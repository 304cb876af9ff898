"""End-to-end command line tests (in-process via main)."""

import hashlib
import json

import pytest

from redispatch.cli import main
from redispatch.data import load_instance, write_synthetic_network


@pytest.fixture()
def network_dir(tmp_path):
    return write_synthetic_network(
        tmp_path / "net", n_controllables=3, n_lines=2,
        raw_timepoints=6, n_fixed=2, seed=0)


def build_synthetic_instance(tmp_path, name="inst.json"):
    out = tmp_path / name
    code = main(["build-instance", "--synthetic", "2,3,2,2",
                 "--T", "2", "--k", "3", "--seed", "5", "--out", str(out)])
    assert code == 0
    return out


# ------------------------------------------------------------ build-instance


def test_build_instance_synthetic(tmp_path, capsys):
    out = build_synthetic_instance(tmp_path)
    inst = load_instance(out)
    assert (inst.T, inst.n, inst.k, inst.L) == (2, 2, 3, 2)
    manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
    assert manifest["command"] == "build-instance"
    blob = json.dumps(manifest["config"], sort_keys=True,
                      separators=(",", ":")).encode()
    assert manifest["config_hash"] == hashlib.sha256(blob).hexdigest()
    assert "wrote instance" in capsys.readouterr().out


def test_build_instance_from_dataset_with_preset(tmp_path, network_dir):
    out = tmp_path / "inst.json"
    code = main(["build-instance", "--data-dir", str(network_dir),
                 "--size", "S", "--out", str(out)])
    assert code == 0
    inst = load_instance(out)
    assert inst.T == 2 and inst.k == 3 and inst.n == 3


def test_build_instance_requires_one_source(tmp_path, network_dir, capsys):
    assert main(["build-instance", "--out", str(tmp_path / "i.json")]) == 2
    assert main(["build-instance", "--data-dir", str(network_dir),
                 "--synthetic", "2,3,2,2",
                 "--out", str(tmp_path / "i.json")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


def test_build_instance_requires_shape(tmp_path, network_dir):
    assert main(["build-instance", "--data-dir", str(network_dir),
                 "--out", str(tmp_path / "i.json")]) == 2


def test_missing_dataset_dir_is_config_error(tmp_path):
    assert main(["build-instance", "--data-dir", str(tmp_path / "nope"),
                 "--size", "S", "--out", str(tmp_path / "i.json")]) == 2


# -------------------------------------------------------------------- solve


def run_solve(tmp_path, inst_path, out_name, solver, extra=()):
    out = tmp_path / out_name
    code = main(["solve", "--instance", str(inst_path), "--solver", solver,
                 "--max-iterations", "300", "--seed", "1",
                 "--out-dir", str(out), *extra])
    assert code == 0
    return out


def test_solve_tabu_outputs(tmp_path, capsys):
    inst_path = build_synthetic_instance(tmp_path)
    out = run_solve(tmp_path, inst_path, "tabu-out", "tabu")
    for name in ("solution.json", "report.csv", "trace.csv",
                 "timing.json", "MANIFEST.json"):
        assert (out / name).exists()
    sol = json.loads((out / "solution.json").read_text())
    assert sol["feasible"] in (True, False)
    assert isinstance(sol["objective"], float)
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == ("solver,seed,iterations,objective,overloaded_lines,"
                      "production_cost,fulfilled_timepoints,switches,feasible")


def test_solve_alpha_stays_feasible(tmp_path, capsys):
    inst_path = build_synthetic_instance(tmp_path)
    out = run_solve(tmp_path, inst_path, "alpha-out", "alpha")
    sol = json.loads((out / "solution.json").read_text())
    assert sol["feasible"] is True
    schedule = sol["schedule"]
    assert len(schedule) == 2 and len(schedule[0]) == 2


def test_solve_brute_on_small_instance(tmp_path, capsys):
    inst_path = build_synthetic_instance(tmp_path)
    out = run_solve(tmp_path, inst_path, "brute-out", "brute")
    sol = json.loads((out / "solution.json").read_text())
    alpha_out = run_solve(tmp_path, inst_path, "alpha2-out", "alpha")
    alpha_sol = json.loads((alpha_out / "solution.json").read_text())
    # exhaustive search bounds every heuristic from below
    assert sol["objective"] <= alpha_sol["objective"] + 1e-9


def test_solve_reruns_are_byte_identical(tmp_path, capsys):
    inst_path = build_synthetic_instance(tmp_path)
    a = run_solve(tmp_path, inst_path, "run-a", "tabu")
    b = run_solve(tmp_path, inst_path, "run-b", "tabu")
    for name in ("solution.json", "report.csv", "trace.csv", "MANIFEST.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_solve_decomposer_paths(tmp_path, capsys):
    inst_path = build_synthetic_instance(tmp_path)
    for solver in ("random-decomp", "score-decomp", "sa"):
        out = run_solve(tmp_path, inst_path, f"{solver}-out", solver,
                        extra=("--max-iterations", "40"))
        assert (out / "solution.json").exists()


@pytest.mark.parametrize("command, extra", [
    ("solve", ("--time-limit", "0")),
    ("solve", ("--time-limit", "-1.5")),
    ("solve", ("--max-iterations", "-1")),
    ("solve", ("--batch-size", "0")),
    ("solve", ("--batch-size", "-2")),
    ("solve", ("--solver", "brute")),
    ("experiment", ("--time-limit", "0")),
    ("experiment", ("--max-iterations", "-1")),
    ("instance-missing-key", ()),
    ("instance-not-json", ()),
    ("instance-negative-s-box", ()),
    ("config", ({"seed": "abc"},)),
    ("config", ({"func": "x"},)),
], ids=["time-limit-0", "time-limit-negative", "max-iterations-negative",
        "batch-size-0", "batch-size-negative", "brute-above-cap",
        "experiment-time-limit-0", "experiment-max-iterations-negative",
        "instance-missing-key", "instance-not-json",
        "instance-negative-s-box", "config-bad-type", "config-not-a-flag"])
def test_bad_input_exits_2(tmp_path, network_dir, capsys, command, extra):
    if command != "experiment":
        # 5 resources x 3 states x 2 timepoints: 30 bits, above the brute cap
        inst_path = tmp_path / "big.json"
        assert main(["build-instance", "--synthetic", "5,3,2,2", "--T", "2",
                     "--k", "3", "--out", str(inst_path)]) == 0
        args = ["solve", "--instance", str(inst_path)]
        if command == "instance-missing-key":
            doc = json.loads(inst_path.read_text())
            del doc["n"]
            inst_path.write_text(json.dumps(doc))
        elif command == "instance-not-json":
            inst_path.write_text("{not json")
        elif command == "instance-negative-s-box":
            doc = json.loads(inst_path.read_text())
            doc["s_box"] = [-1.0, 1.0]
            inst_path.write_text(json.dumps(doc))
        elif command == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(extra[0]))
            args += ["--config", str(cfg)]
            extra = ()
    else:
        args = ["experiment", "penalty-norm", "--data-dir", str(network_dir),
                "--seeds", "0"]
    assert main(args + [*extra, "--out-dir", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err


# ------------------------------------------------------------------- config


def test_config_file_overrides_flags(tmp_path, capsys):
    inst_path = build_synthetic_instance(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iterations": 7, "solver": "tabu"}))
    out = tmp_path / "cfg-out"
    code = main(["solve", "--instance", str(inst_path), "--solver", "alpha",
                 "--max-iterations", "999", "--config", str(cfg),
                 "--out-dir", str(out)])
    assert code == 0
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["config"]["max_iterations"] == 7
    assert manifest["config"]["solver"] == "tabu"


def test_config_file_errors(tmp_path, capsys):
    inst_path = build_synthetic_instance(tmp_path)
    missing = ["solve", "--instance", str(inst_path),
               "--config", str(tmp_path / "absent.json")]
    assert main(missing) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--instance", str(inst_path),
                 "--config", str(bad)]) == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"no_such_flag": 1}))
    assert main(["solve", "--instance", str(inst_path),
                 "--config", str(unknown)]) == 2

    not_object = tmp_path / "list.json"
    not_object.write_text("[1,2]")
    assert main(["solve", "--instance", str(inst_path),
                 "--config", str(not_object)]) == 2


# -------------------------------------------------------------- experiments


def test_experiment_penalty_norm(tmp_path, network_dir, capsys):
    out = tmp_path / "exp"
    code = main(["experiment", "penalty-norm", "--data-dir", str(network_dir),
                 "--seeds", "0,1", "--max-iterations", "300",
                 "--out-dir", str(out)])
    assert code == 0
    assert (out / "penalty_norm.csv").exists()
    assert (out / "penalty_norm_summary.csv").exists()
    assert (out / "MANIFEST.json").exists()
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["experiment"] == "penalty-norm"


def test_experiment_timeseries_rerun_identical(tmp_path, network_dir, capsys):
    args = ["experiment", "timeseries", "--data-dir", str(network_dir),
            "--seeds", "0", "--max-iterations", "200"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    assert (a / "timeseries.csv").read_bytes() == (b / "timeseries.csv").read_bytes()


# -------------------------------------------------------------- sensitivity


def test_estimate_sensitivity_outputs(tmp_path, network_dir, capsys):
    out = tmp_path / "fit"
    code = main(["estimate-sensitivity", "--data-dir", str(network_dir),
                 "--max-iterations", "500", "--out-dir", str(out)])
    assert code == 0
    rows = (out / "sensitivity.csv").read_text().splitlines()
    assert rows[0] == "source_id,line_id,sensitivity"
    assert len(rows) == 1 + (3 + 2) * 2  # (controllables + fixed) * lines
    loss_rows = (out / "fit_loss.csv").read_text().splitlines()
    assert loss_rows[0] == "iteration,loss"
    losses = [float(r.split(",")[1]) for r in loss_rows[1:]]
    assert losses[-1] <= losses[0]
