"""The CLI's study, solve, build and fit outputs, pinned by SHA-256.

Every command below runs on the desk network
(`write_synthetic_network(12, 20, 16, n_fixed=6, seed=0)`) under iteration
budgets only, so its outputs are deterministic.  Each output file is hashed,
except `timing.json` (wall time).  A MANIFEST.json is hashed as canonical
JSON without its path fields, `config_hash` and `version`, which depend on
where and from what the command ran.

The commands run in one child process with BLAS pinned to one thread, so
that a BLAS product whose sums split by thread count cannot move a pinned
digest.  QUBO scores do not use one: `test_scores_ignore_blas_threads`
and `test_alpha_schedule_ignores_blas_threads` check that `solve --solver
random-decomp` and `--solver alpha` write the same bytes with one and two
BLAS threads.  `python tests/test_pinned_outputs.py DIR` is the
pinned child: it runs every command under DIR and writes DIR/digests.json.

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
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
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
            "eedcfe32c7863bd964c9c940dd7f82dd3074424ba499f3b20accf6cd49e32c95",
    },
    "build-instance-L": {
        "MANIFEST.json":
            "7a898c0808cc58c8f4541da5f2ac7dd4be9673ef9b171210f00cf2e967d8d37f",
        "instance.json":
            "b0708ee6d75eec326187476c11b4a621114a4bda16d4685bda6ad3bad6ea3db8",
    },
    "penalty-norm": {
        "MANIFEST.json":
            "6a761bcb5720fd3c39233c299a282fd149569392ab3afaa99bbd42226afcb237",
        "penalty_norm.csv":
            "96007c93db571ea2d2f2d5a4ff3ea1bb42148f3d4135b6d95071583fe0a25a80",
        "penalty_norm_summary.csv":
            "083111499e4f525a9ec8b37aeb9633fb21b25740e6418ead5e6d791d0b3343e2",
    },
    "score-norm": {
        "MANIFEST.json":
            "cd686bcff50a45829015c3901daa8a08fa92ea24232c066040ef04a1f327d9ee",
        "score_norm_solutions.csv":
            "d2b956f2898947207f45134e8273ee8cfb97df3e28aeb9f84041f38c673829f1",
        "score_norm_spread.csv":
            "1634acc7f7ddf40849758b940f67ce01cc92916dc5827c5dace4ed747531276e",
    },
    "decomposers-L": {
        "MANIFEST.json":
            "9a1ae71c5c97c21e943e455338dca783e01694d8fda0ef1aa60b0f9127d26e54",
        "decomposers.csv":
            "807e5ccc8314616d324f8552f766b22832575e77a5a4d330be0b60cc1a8369ec",
        "decomposers_summary.csv":
            "44092b70e7f149e60cd9c3ee23369a2ec2a0a5a1430213c15554b375fd00ab12",
    },
    "timeseries": {
        "MANIFEST.json":
            "6d3635297e8fce4235f766dc7fd018f68547c4ce99b0765e41ec90991c52b79d",
        "timeseries.csv":
            "6937fa1de547e042a52496b99fb59f5d0f0abd6e7dfdc58267517fc74778fb31",
    },
    "estimate-sensitivity": {
        "MANIFEST.json":
            "bba0a254b5934e5b6785d334c1c456eff0d2ca13f31d32a9828ba227833970d0",
        "fit.json":
            "74012b6ee9b35047e3158b77968e7121b78c77d950c4bc4e5ff165f9ff70f166",
        "fit_loss.csv":
            "a1113ad87b7e952346353b49732211959a15a8c29755890d6bf3f14ddc8958de",
        "sensitivity.csv":
            "c658576c9cedf57b75e9d673dad9cef9565c8841b0f09262ec9e99623fb5ab4e",
    },
    "solve-alpha": {
        "MANIFEST.json":
            "12073a0063893a43c0223a68e1deb439fc2c1e0ffa56bcae16a5892976ed73f3",
        "report.csv":
            "96aa8bca5ffa7c314b8bd09d2619a2b2565704abd2cc837b4193387ad2763598",
        "solution.json":
            "0a770f82298bbccf6c9a14101bf052a0af5de7731dc7d34ddee763ca5778fd90",
        "trace.csv":
            "681e5cb4fec03da320115f10813356fab301d0d01a9f4720e70628fd47d5489b",
    },
    "solve-tabu": {
        "MANIFEST.json":
            "7120bd96f89a528b53ad11e8b270357a7bee78b07dc3768011dc6cdceed20c00",
        "report.csv":
            "6d9e7b72438c0b12995b639ff92b6dc141822760a3a8f22436996dc99c4dc94c",
        "solution.json":
            "4c74418dba7c6d9609a4ed12f19f031149ea90ef01988cc8114838ba5f26c2ff",
        "trace.csv":
            "9440f1a68bb953408f46a556994ecdff25f1ac8783f1604ee82736a62d18b4c1",
    },
    "solve-sa": {
        "MANIFEST.json":
            "e14381ddf8bb1c72e3f841d13124fce2abe30908b672057a45ec4fc5029a9dc1",
        "report.csv":
            "a42f92ff7dfd8f4d0d3a556992bcfc22fcc95134e0ff199857b1deba6d8fd479",
        "solution.json":
            "ed30268a8a16db39377bdde2d1c65d7284632fccc8ec21cf84f18b4bb772be76",
        "trace.csv":
            "e65e968b953588826b4ee27d67e7e19952c0340e7c737f315acbec4a42146898",
    },
    "solve-random-decomp": {
        "MANIFEST.json":
            "16df43c0e43d0c1d63480ebb4d8a00a55233f4870ef239d3acf057c9ff37e51b",
        "report.csv":
            "566f9082c3627a11e027b83bcb073294b1adfca476c74b17f72b3662816f698e",
        "solution.json":
            "56bb082b6b1b79112c24b37aa5444bf90059d7f1c278b844f442417a96f917e0",
        "trace.csv":
            "36c0a888e3cc8475440f062d1e81b0d91b28db82b1b2a94699816bb58a83ad54",
    },
    "solve-score-decomp": {
        "MANIFEST.json":
            "5b0f078c5c1e1b92ff1b3612dbed9233f34d6f76027d37ad90585863b45e8930",
        "report.csv":
            "d45f808aab322a9bf53d847b4880e627ce3afd1b87122823052fbc2101b30b08",
        "solution.json":
            "4d4826969023725be5d2efbf2ff0b11af17b617ad2c8b4b8439af4edd5eab215",
        "trace.csv":
            "e65e968b953588826b4ee27d67e7e19952c0340e7c737f315acbec4a42146898",
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


def _child_env(threads: int) -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path,
            **{key: str(threads) for key in BLAS_THREADS}}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    child = subprocess.run([sys.executable, __file__, str(root)],
                           env=_child_env(1), capture_output=True, text=True,
                           timeout=600)
    assert child.returncode == 0, child.stderr
    return json.loads((root / "digests.json").read_text())


def solutions_by_blas_threads(tmp_path, solve_args: list[str]) -> list[bytes]:
    """solution.json of `solve` on desk L with one, then two BLAS threads."""
    net = write_synthetic_network(tmp_path / "net", 12, 20, 16, n_fixed=6,
                                  seed=0)
    instance = tmp_path / "desk-L.json"
    assert main(["build-instance", "--data-dir", str(net), "--size", "L",
                 "--out", str(instance)]) == 0
    solutions = []
    for threads in (1, 2):
        out = tmp_path / f"threads-{threads}"
        child = subprocess.run(
            [sys.executable, "-m", "redispatch.cli", "solve", "--instance",
             str(instance), *solve_args, "--out-dir", str(out)],
            env=_child_env(threads), capture_output=True, text=True,
            timeout=600)
        assert child.returncode == 0, child.stderr
        solutions.append((out / "solution.json").read_bytes())
    return solutions


@pytest.mark.parametrize("seed", [0, 1])
def test_scores_ignore_blas_threads(tmp_path, seed):
    # the desk L objective has 15,204 terms; a BLAS dot over them splits its
    # sum by thread count, which moves the objective at seed 1
    first, second = solutions_by_blas_threads(tmp_path, [
        "--solver", "random-decomp", "--max-iterations", "20",
        "--seed", str(seed)])
    assert first == second


def test_alpha_schedule_ignores_blas_threads(tmp_path):
    # alpha's move scores break ties between equal-scoring selections, so a
    # scorer whose sums split by BLAS thread count could change its schedule
    first, second = solutions_by_blas_threads(tmp_path, [
        "--solver", "alpha", "--max-iterations", "5"])
    assert first == second


@pytest.mark.parametrize("label", list(COMMANDS))
def test_outputs_are_pinned(label, digests):
    assert digests[label] == PINNED[label], json.dumps({label: digests[label]},
                                                       indent=4)


if __name__ == "__main__":
    root = Path(sys.argv[1])
    result = run_all(root)
    (root / "digests.json").write_text(json.dumps(result, indent=4))
