"""The CLI's study, solve, build and fit outputs, pinned by SHA-256.

Every command below runs on the desk network
(`write_synthetic_network(12, 20, 16, n_fixed=6, seed=0)`) under iteration
budgets only, so its outputs are deterministic.  Each output file is hashed,
except `timing.json` (wall time).  A MANIFEST.json is hashed as canonical
JSON without its path fields, `config_hash` and `version`, which depend on
where and from what the command ran.

The commands run in one child process with BLAS pinned to one thread: a
multi-threaded matrix-vector product splits its sums by thread count, which
moves the last bits of some objectives (`solve --solver random-decomp` here).
`python tests/test_pinned_outputs.py DIR` is that child: it runs every
command under DIR and writes DIR/digests.json.

The hashes were recorded with Python 3.11.7 and numpy 2.4.6 (OpenBLAS
0.3.31) on x86-64; other toolchains may round differently.  A change that
moves an output on purpose updates its row here, in the same diff, and says
why in CHANGES.md.  The assertion message prints the row as it now is.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from redispatch.cli import main
from redispatch.data import write_synthetic_network

SRC = Path(__file__).resolve().parents[1] / "src"
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
PATH_KEYS = ("data_dir", "instance", "out")

# label -> argv without the network, instance and output arguments
COMMANDS = {
    "build-instance-S": ["build-instance", "--size", "S"],
    "build-instance-L": ["build-instance", "--size", "L"],
    "penalty-norm": ["experiment", "penalty-norm"],
    "score-norm": ["experiment", "score-norm"],
    "decomposers-L": ["experiment", "decomposers", "--size", "L",
                      "--seeds", "0,1"],
    "timeseries": ["experiment", "timeseries"],
    "estimate-sensitivity": ["estimate-sensitivity",
                             "--max-iterations", "2000"],
    "solve-alpha": ["solve", "--solver", "alpha", "--max-iterations", "5"],
    "solve-tabu": ["solve", "--solver", "tabu", "--max-iterations", "2000"],
    "solve-sa": ["solve", "--solver", "sa", "--max-iterations", "300"],
    "solve-random-decomp": ["solve", "--solver", "random-decomp",
                            "--max-iterations", "20"],
    "solve-score-decomp": ["solve", "--solver", "score-decomp",
                           "--max-iterations", "20"],
    # desk L is far above brute force's cap, so brute gets 12 bits
    "solve-brute": ["solve", "--solver", "brute", "--max-iterations", "5000"],
}

PINNED = {
    "build-instance-S": {
        "MANIFEST.json":
            "50058a5c00bcdf3cd521804e72e08bdce6876fa7dd8b948a3b01277319630067",
        "instance.json":
            "7870cf24daf584ff2b706b7d6d4fd8f079aa667c8d8c5832be204dde4b94b9bc",
    },
    "build-instance-L": {
        "MANIFEST.json":
            "7a898c0808cc58c8f4541da5f2ac7dd4be9673ef9b171210f00cf2e967d8d37f",
        "instance.json":
            "d001cc97c4c50b3f71eb56e303142cb86bbe099a9b4c089d196e9cae0ec69612",
    },
    "penalty-norm": {
        "MANIFEST.json":
            "6a761bcb5720fd3c39233c299a282fd149569392ab3afaa99bbd42226afcb237",
        "penalty_norm.csv":
            "dd3e959ff7d5f4cf308d1a5cc72b42e23e70a834303c991bbf19af2e6d6df64b",
        "penalty_norm_summary.csv":
            "b723cd45b32a7d689e916d5beff977c0892e61f70d1ebfec9c7b5a42a803cc6b",
    },
    "score-norm": {
        "MANIFEST.json":
            "cd686bcff50a45829015c3901daa8a08fa92ea24232c066040ef04a1f327d9ee",
        "score_norm_solutions.csv":
            "786ef3bac3f1540455b86a135ba3e537ef2f095983d9787201729ae44fe233ad",
        "score_norm_spread.csv":
            "cbf4dfbc801c83112ce6e5b47a40abe4e36a2474f92d784093c14d2487d5bf4f",
    },
    "decomposers-L": {
        "MANIFEST.json":
            "9a1ae71c5c97c21e943e455338dca783e01694d8fda0ef1aa60b0f9127d26e54",
        "decomposers.csv":
            "69c5806085058448d1b4d772f7d44bac06e62912ca5388d6d39a28635627afc7",
        "decomposers_summary.csv":
            "61e4b6bb6172bada8acac9f1ed538c18c1dbbc1ef98e3a810d9e91eb2c88b164",
    },
    "timeseries": {
        "MANIFEST.json":
            "6d3635297e8fce4235f766dc7fd018f68547c4ce99b0765e41ec90991c52b79d",
        "timeseries.csv":
            "10c57bbf654ea9fd003a749c4d4c6551c5d84e12ffdcb47fa1d0ec665234c9be",
    },
    "estimate-sensitivity": {
        "MANIFEST.json":
            "bba0a254b5934e5b6785d334c1c456eff0d2ca13f31d32a9828ba227833970d0",
        "fit_loss.csv":
            "e381e66c86563a55716738d8131c69937ee88f38ad807eea5d6ff6e9ae86f762",
        "sensitivity.csv":
            "17cebf99b5e41f8417a680ac439a8cefeca9496b1881d60c345a51e9a96fcf4f",
    },
    "solve-alpha": {
        "MANIFEST.json":
            "12073a0063893a43c0223a68e1deb439fc2c1e0ffa56bcae16a5892976ed73f3",
        "report.csv":
            "82752bcc77b4345a5150d5fd27403af18beb65e92e3cc62ef5e079662d9c44b1",
        "solution.json":
            "a101939dff6f9ac6f38b88b0fb90fd9bf349703aa2edf8ca50736bc276e282dd",
        "trace.csv":
            "bbdcf32e5bdbc2679f3773beeafae42dc882a28cdddeb9e94891f5572f822c87",
    },
    "solve-tabu": {
        "MANIFEST.json":
            "7120bd96f89a528b53ad11e8b270357a7bee78b07dc3768011dc6cdceed20c00",
        "report.csv":
            "adf5d2b2367ad1e42357acb1e4419fdd7e29c0c873aff1065f10331023dab7e2",
        "solution.json":
            "228aaa52c288bbdb0de1c0a313a8aa0e002edd36021129a5abed6e0d757f3757",
        "trace.csv":
            "a8021462a56b20dbdad44da750f900ae1b83bccbda758db3f4325a3f031ae263",
    },
    "solve-sa": {
        "MANIFEST.json":
            "e14381ddf8bb1c72e3f841d13124fce2abe30908b672057a45ec4fc5029a9dc1",
        "report.csv":
            "a42f92ff7dfd8f4d0d3a556992bcfc22fcc95134e0ff199857b1deba6d8fd479",
        "solution.json":
            "e139ecb942b8674b26e078d06f55a638e50fb9dab79b0d7512fb48f2a70fcab3",
        "trace.csv":
            "e65e968b953588826b4ee27d67e7e19952c0340e7c737f315acbec4a42146898",
    },
    "solve-random-decomp": {
        "MANIFEST.json":
            "16df43c0e43d0c1d63480ebb4d8a00a55233f4870ef239d3acf057c9ff37e51b",
        "report.csv":
            "51edb5875c422df115c8291b5f7818c13fb56b6aa036e840a1ea7f29824bfa2a",
        "solution.json":
            "af20ddffd7810e0b1df096043c9a7313a1b7ba5ed9debebb5d4947bb988041d3",
        "trace.csv":
            "974501619f03f546c407ee3e5e855b41d70b0942747615215b59552dfbf2d80e",
    },
    "solve-score-decomp": {
        "MANIFEST.json":
            "5b0f078c5c1e1b92ff1b3612dbed9233f34d6f76027d37ad90585863b45e8930",
        "report.csv":
            "d45f808aab322a9bf53d847b4880e627ce3afd1b87122823052fbc2101b30b08",
        "solution.json":
            "6acb4dff41c7a513710f4482ee295af774ca9e6e50cd7bccdf2f8aede3469b81",
        "trace.csv":
            "b92d37168bddd6c025a5f1f75945ae50eb691153cd238d8e8af01952c32f048b",
    },
    "solve-brute": {
        "MANIFEST.json":
            "e4a7c880b60166ed4ece82f0c65cde6a04f0f7838768ef1f942637bc784db701",
        "report.csv":
            "da74c7595ac487024707d76bedc406fe8db14be1779f5c373e53a2f73c22ed96",
        "solution.json":
            "1f21fdc521cfb23518fe2b2b0fda043cb7f125abd03e3dd34149828ef9eeb4eb",
        "trace.csv":
            "16179f055194cc40569562b56cb20e3d916d55ce40043b29af02e8359196ea16",
    },
}


def argv(label: str, inputs: dict, out: Path) -> list[str]:
    args = list(COMMANDS[label])
    if args[0] == "build-instance":
        return args + ["--data-dir", str(inputs["net"]),
                       "--out", str(out / "instance.json")]
    if args[0] == "solve":
        instance = inputs["small" if label == "solve-brute" else "desk-L"]
        args += ["--instance", str(instance)]
    else:
        args += ["--data-dir", str(inputs["net"])]
    return args + ["--out-dir", str(out)]


def digest(path: Path) -> str:
    if path.name == "MANIFEST.json":
        doc = json.loads(path.read_text())
        del doc["config_hash"], doc["version"]
        for key in PATH_KEYS:
            doc["config"].pop(key, None)
        blob = json.dumps(doc, sort_keys=True).encode()
    else:
        blob = path.read_bytes()
    return hashlib.sha256(blob).hexdigest()


def run_all(root: Path) -> dict:
    """Run every command under root; label -> {file name: digest}."""
    net = write_synthetic_network(root / "net", 12, 20, 16, n_fixed=6, seed=0)
    inputs = {"net": net, "desk-L": root / "desk-L" / "instance.json",
              "small": root / "small" / "instance.json"}
    assert main(["build-instance", "--data-dir", str(net), "--size", "L",
                 "--out", str(inputs["desk-L"])]) == 0
    assert main(["build-instance", "--synthetic", "2,3,2,2", "--T", "2",
                 "--k", "3", "--seed", "5", "--out", str(inputs["small"])]) == 0
    digests = {}
    for label in COMMANDS:
        out = root / label
        code = main(argv(label, inputs, out))
        digests[label] = {path.name: digest(path)
                          for path in sorted(out.iterdir())
                          if path.name != "timing.json"}
        if code != 0:
            digests[label]["exit code"] = code
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, __file__, str(root)], env=env,
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    return json.loads((root / "digests.json").read_text())


@pytest.mark.parametrize("label", list(COMMANDS))
def test_outputs_are_pinned(label, digests):
    assert digests[label] == PINNED[label], json.dumps({label: digests[label]},
                                                       indent=4)


if __name__ == "__main__":
    root = Path(sys.argv[1])
    result = run_all(root)
    (root / "digests.json").write_text(json.dumps(result, indent=4))
