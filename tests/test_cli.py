"""End-to-end command line tests (in-process via main)."""

import argparse
import csv
import hashlib
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from redispatch import cli
from redispatch.cli import STUDIES, main
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


def test_build_instance_synthetic_takes_shape_from_string(tmp_path):
    out = tmp_path / "inst.json"
    assert main(["build-instance", "--synthetic", "6,3,2,4",
                 "--out", str(out)]) == 0
    inst = load_instance(out)
    assert (inst.n, inst.k, inst.T, inst.L) == (6, 3, 2, 4)
    config = json.loads((tmp_path / "MANIFEST.json").read_text())["config"]
    assert (config["T"], config["k"]) == (2, 3)


def test_build_instance_from_dataset_with_preset(tmp_path, network_dir):
    out = tmp_path / "inst.json"
    code = main(["build-instance", "--data-dir", str(network_dir),
                 "--size", "S", "--out", str(out)])
    assert code == 0
    inst = load_instance(out)
    assert inst.T == 2 and inst.k == 3 and inst.n == 3


def test_build_instance_on_generated_tiny_network(tmp_path, capsys):
    # the negative-flow push of the old fit diverged on this network (exit 3)
    net = write_synthetic_network(tmp_path / "net", 2, 1, 8, n_fixed=1, seed=1)
    assert main(["build-instance", "--data-dir", str(net), "--T", "2",
                 "--k", "3", "--out", str(tmp_path / "i.json")]) == 0


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


@pytest.mark.parametrize("solver", ["tabu", "sa", "alpha", "brute",
                                    "random-decomp", "score-decomp"])
def test_solve_single_timepoint_instance(tmp_path, capsys, solver):
    # at T=1 the switch term is constant, so its score range is empty
    inst_path = tmp_path / "t1.json"
    assert main(["build-instance", "--synthetic", "3,3,1,2", "--T", "1",
                 "--k", "3", "--out", str(inst_path)]) == 0
    out = run_solve(tmp_path, inst_path, f"{solver}-out", solver)
    assert json.loads((out / "solution.json").read_text())["feasible"] is True


# instance-file fields that must exit 2, not 0 or 3
INSTANCE_EDITS = {
    "instance-negative-s-box": {"s_box": [-1.0, 1.0]},
    "instance-gamma-nan": {"gamma": float("nan")},
    "instance-gamma-negative": {"gamma": -5.0},
    "instance-weight-nan": {"weights": [float("nan"), 100.0, 20.0, 1e-4]},
    "instance-weight-inf": {"weights": [float("inf"), 100.0, 20.0, 1e-4]},
    # no schedule reaches the target, so compute_bounds has no slack
    "instance-unreachable-target": {"tau": [1e9, 1e9]},
    # finite levels whose squared penalties overflow the float range
    "instance-huge-levels": {"p": [[0, 1e200, 1e200]] * 5},
    # counts are integers: a whole float is not one, nor is infinity
    "instance-float-T": {"T": 2.0},
    "instance-infinite-L": {"L": float("inf")},
}


@pytest.mark.parametrize("command, extra", [
    ("solve", ("--time-limit", "0")),
    ("solve", ("--time-limit", "-1.5")),
    ("solve", ("--max-iterations", "-1")),
    ("solve", ("--batch-size", "0")),
    ("solve", ("--batch-size", "-2")),
    ("solve", ("--solver", "brute")),
    ("experiment-decomposers", ("--time-limit", "0")),
    ("experiment", ("--max-iterations", "-1")),
    ("experiment-decomposers", ("--max-steps", "-1")),
    ("instance-missing-key", ()),
    ("instance-not-json", ()),
    ("instance-negative-s-box", ()),
    ("config", ({"seed": "abc"},)),
    ("config", ({"func": "x"},)),
    ("estimate-sensitivity", ("--max-iterations", "-3")),
    ("estimate-sensitivity", ({"step": 0.1},)),
    ("experiment", ("--seeds", "x")),
    ("experiment", ("--T", "0")),
    ("experiment-decomposers", ("--size", "L")),
    ("solve", ("--seed", "-1")),
    ("build-instance", ("--synthetic", "0,2,1,1", "--T", "1", "--k", "2")),
    ("solve", ("--solver", "random-decomp", "--subproblem-size", "0")),
    ("instance-gamma-nan", ()),
    ("instance-gamma-negative", ()),
    ("instance-weight-nan", ()),
    ("instance-weight-inf", ()),
    ("instance-unreachable-target", ()),
    ("build-instance", ("--synthetic", "3,1,2,2", "--T", "2", "--k", "1")),
    ("instance-huge-levels", ()),
    ("build-instance", ("--synthetic", "6,3,2,4", "--T", "5", "--k", "7")),
    ("build-instance", ("--synthetic", "6,3,2,4", "--size", "S")),
    ("experiment-timeseries", ("--max-iterations", "5")),
    ("experiment-penalty-norm", ("--max-steps", "5")),
    ("experiment-decomposers", ("--max-iterations", "5")),
    ("experiment", ("--seed", "1")),
    ("estimate-sensitivity", ("--seed", "1")),
    ("build-instance-net", ("--T", "2", "--k", "-1")),
    ("experiment", ("--k", "-1")),
    ("solve", ("--solver", "tabu", "--batch-size", "5")),
    ("solve", ("--subproblem-size", "40")),
    ("solve", ("--solver", "score-decomp", "--batch-size", "12")),
    ("config", ({"solver": "sa", "subproblem_size": 4},)),
    ("instance-float-T", ()),
    ("instance-infinite-L", ()),
], ids=["time-limit-0", "time-limit-negative", "max-iterations-negative",
        "batch-size-0", "batch-size-negative", "brute-above-cap",
        "experiment-time-limit-0", "experiment-max-iterations-negative",
        "experiment-max-steps-negative",
        "instance-missing-key", "instance-not-json",
        "instance-negative-s-box", "config-bad-type", "config-not-a-flag",
        "sensitivity-max-iterations-negative", "sensitivity-config-step",
        "experiment-seeds-not-integers", "experiment-T-0",
        "experiment-L-on-6-timepoints", "seed-negative",
        "synthetic-zero-resources", "subproblem-size-0",
        "instance-gamma-nan", "instance-gamma-negative", "instance-weight-nan",
        "instance-weight-inf", "instance-unreachable-target",
        "synthetic-one-state", "instance-huge-levels",
        "synthetic-shape-mismatch", "synthetic-with-size",
        "timeseries-max-iterations", "penalty-norm-max-steps",
        "decomposers-max-iterations", "experiment-seed",
        "sensitivity-seed", "build-instance-k-negative",
        "experiment-k-negative", "batch-size-unread-by-tabu",
        "subproblem-size-unread-by-alpha", "batch-size-unread-by-decomp",
        "config-subproblem-size-unread-by-sa", "instance-float-T",
        "instance-infinite-L"])
def test_bad_input_exits_2(tmp_path, network_dir, capsys, command, extra):
    if extra and isinstance(extra[0], dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(extra[0]))
        extra = ("--config", str(cfg))
    out = ["--out-dir", str(tmp_path / "out")]
    if command.startswith("experiment"):
        which = command.partition("-")[2] or "penalty-norm"
        args = ["experiment", which, "--data-dir", str(network_dir),
                "--seeds", "0"]
    elif command.startswith("build-instance"):
        args, out = ["build-instance"], ["--out", str(tmp_path / "i.json")]
        if command == "build-instance-net":
            args += ["--data-dir", str(network_dir)]
    elif command == "estimate-sensitivity":
        args = ["estimate-sensitivity", "--data-dir", str(network_dir)]
    else:
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
        elif command in INSTANCE_EDITS:
            doc = json.loads(inst_path.read_text())
            doc.update(INSTANCE_EDITS[command])
            inst_path.write_text(json.dumps(doc))
    try:
        code, message = main(args + [*extra, *out]), "configuration error"
    except SystemExit as exc:  # argparse rejects a flag the command lacks
        code, message = exc.code, "unrecognized arguments"
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("size", ["S", "L"])
def test_controllable_of_type_static_exits_2(tmp_path, capsys, size):
    # "static" names no cost range: only a promoted fixed element (L
    # promotes) runs for free, and a dataset cannot claim that by its tag
    net = write_synthetic_network(tmp_path / "net", n_controllables=4,
                                  n_lines=3, raw_timepoints=8, n_fixed=2,
                                  seed=1)
    path = net / "controllables.csv"
    header, first, *rest = path.read_text().splitlines()
    ident, _, ratings = first.split(",", 2)
    path.write_text("\n".join([header, f"{ident},Static,{ratings}", *rest])
                    + "\n")
    assert main(["build-instance", "--data-dir", str(net), "--size", size,
                 "--out", str(tmp_path / "i.json")]) == 2
    assert "no cost range for resource type 'static'" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("build-instance", "--size", "S"), ("build-instance", "--size", "L"),
    ("estimate-sensitivity",)], ids=["build-S", "build-L", "sensitivity"])
def test_huge_injection_exits_2(tmp_path, capsys, args):
    # a finite injection of 1e300 MW overflows the sensitivity fit's
    # Lipschitz constant: a data error, not a runtime error
    net = write_synthetic_network(tmp_path / "net", n_controllables=12,
                                  n_lines=20, raw_timepoints=16, n_fixed=6,
                                  seed=0)
    path = net / "fixed_profiles.csv"
    rows = path.read_text().splitlines()
    rows[1] = rows[1].rpartition(",")[0] + ",1e300"
    path.write_text("\n".join(rows) + "\n")
    out = (["--out", str(tmp_path / "i.json")] if args[0] == "build-instance"
           else ["--out-dir", str(tmp_path / "out")])
    assert main([args[0], "--data-dir", str(net), *args[1:], *out]) == 2
    assert "overflowed" in capsys.readouterr().err


# ----------------------------------------------------- dataset file property

# the five files of write_synthetic_network, and the values a cell may take
NETWORK_FILES = ["controllables.csv", "controllable_profiles.csv",
                 "fixed_profiles.csv", "lines.csv", "flows.csv"]
CELL_VALUES = ["0", "-1", "1e-300", "1e300", "1e308", "-1e308", "nan", "inf",
               "x", ""]


def perturb(path: Path, edit: str, row: int, column: int, value: str) -> None:
    """Edits of a CSV file, applied in turn (`edit` joins them with "+"): a
    cell of body row `row` set to `value`, that row dropped, repeated, cut
    to its first `column` cells or extended by a cell of `value`, a BOM, the
    columns reversed in every line or in the header alone, or the body
    emptied (row and column wrap around)."""
    lines = path.read_text().splitlines()
    header, body = lines[0], lines[1:]
    row %= len(body)
    for step in edit.split("+"):
        if step == "cell":
            cells = body[row].split(",")
            cells[column % len(cells)] = value
            body[row] = ",".join(cells)
        elif step == "drop":
            del body[row]
        elif step == "repeat":
            body.append(body[row])
        elif step == "cut":
            cells = body[row].split(",")
            body[row] = ",".join(cells[:column % len(cells)])
        elif step == "extend":
            body[row] += "," + value
        elif step == "bom":
            header = "\ufeff" + header
        elif step == "reverse":
            header, *body = (",".join(line.split(",")[::-1])
                             for line in [header, *body])
        elif step == "reverse-header":
            header = ",".join(header.split(",")[::-1])
        elif step == "empty":
            body = []
    path.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")


def assert_no_nan(root: Path) -> None:
    """No JSON value and no numeric CSV cell under root is NaN."""
    def constant(name):
        assert name != "NaN", "NaN in a JSON report"
        return float(name)

    for path in root.rglob("*"):
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=constant)
        elif path.suffix == ".csv":
            for record in csv.DictReader(path.read_text().splitlines()):
                assert not [col for col, cell in record.items()
                            if not col.endswith("_id") and col != "solver"
                            and cell.lower() == "nan"], (path, record)


@settings(max_examples=50, deadline=None)
@example(name="controllables.csv", edit="cell", row=0, column=3, value="1e308")
@example(name="lines.csv", edit="cell", row=0, column=2, value="1e308")
@example(name="fixed_profiles.csv", edit="cell", row=0, column=2, value="inf")
@example(name="controllable_profiles.csv", edit="cell", row=0, column=1,
         value="1e-300")
@example(name="flows.csv", edit="cell", row=0, column=1, value="-1")
@example(name="controllables.csv", edit="repeat", row=0, column=0, value="")
@example(name="controllables.csv", edit="empty", row=0, column=0, value="")
@example(name="lines.csv", edit="cell", row=0, column=1, value="0")
@example(name="lines.csv", edit="empty", row=0, column=0, value="")
# an overflowing fit, and a short row whose missing cells are the text ones
@example(name="flows.csv", edit="cell", row=0, column=2, value="1e308")
@example(name="controllables.csv", edit="reverse+cut", row=0, column=2,
         value="")
# a row longer than its header, which csv.DictReader reads without a word
@example(name="controllables.csv", edit="extend", row=0, column=0, value="x")
@given(name=st.sampled_from(NETWORK_FILES),
       edit=st.sampled_from(["cell", "cell", "cell", "drop", "repeat", "cut",
                             "extend", "bom", "reverse", "reverse-header",
                             "reverse+cut", "empty"]),
       row=st.integers(0, 10**6), column=st.integers(0, 3),
       value=st.sampled_from(CELL_VALUES))
def test_every_dataset_builds_or_exits_2(name, edit, row, column, value):
    """A perturbed dataset builds at S and L, fits and solves (exit 0, no
    NaN in any report), or is rejected as bad input (exit 2), never 3; a row
    with more cells than its header is always rejected."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        # seed 1: the L preset promotes two of the three fixed elements
        net = write_synthetic_network(root / "net", n_controllables=3,
                                      n_lines=2, raw_timepoints=8, n_fixed=3,
                                      seed=1)
        perturb(net / name, edit, row, column, value)
        out = root / "out"
        exits = (2,) if "extend" in edit else (0, 2)
        built = []
        for size in ("S", "L"):
            inst = out / f"{size}.json"
            code = main(["build-instance", "--data-dir", str(net),
                         "--size", size, "--out", str(inst)])
            assert code in exits, size
            built += [inst] if code == 0 else []
        code = main(["estimate-sensitivity", "--data-dir", str(net),
                     "--out-dir", str(out / "fit")])
        assert code in exits, "estimate-sensitivity"
        if code == 0:
            fit = json.loads((out / "fit" / "fit.json").read_text())
            assert math.isfinite(fit["final_loss"]), fit
        if built:
            code = main(["solve", "--instance", str(built[-1]),
                         "--solver", "alpha", "--max-iterations", "3",
                         "--out-dir", str(out / "solve")])
            assert code in (0, 2), "solve"
        assert_no_nan(out)


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


@pytest.mark.parametrize("key", ["instance", "out_dir"])
def test_config_null_keeps_command_line_value(tmp_path, capsys, key):
    inst_path = build_synthetic_instance(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: None}))
    out = tmp_path / "given-out"
    assert main(["solve", "--instance", str(inst_path), "--solver", "tabu",
                 "--max-iterations", "50", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    config = json.loads((out / "MANIFEST.json").read_text())["config"]
    assert config["instance"] == str(inst_path)


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


def test_penalty_norm_on_zero_targets_writes_finite_cells(tmp_path, capsys):
    # no timepoint asks for power: each counts as fulfilled, so the mean
    # fulfillment is 1.0 and no summary reads the std of an inf
    net = write_synthetic_network(tmp_path / "net", n_controllables=4,
                                  n_lines=3, raw_timepoints=8, n_fixed=2,
                                  seed=1)
    path = net / "controllable_profiles.csv"
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join(
        [header, *(row.rpartition(",")[0] + ",0.0" for row in rows)]) + "\n")
    out = tmp_path / "exp"
    assert main(["experiment", "penalty-norm", "--data-dir", str(net),
                 "--seeds", "0,1", "--out-dir", str(out)]) == 0
    for name in ("penalty_norm.csv", "penalty_norm_summary.csv"):
        records = list(csv.DictReader((out / name).read_text().splitlines()))
        cells = [cell for record in records
                 for col, cell in record.items() if col != "variant"]
        assert records and all(math.isfinite(float(c)) for c in cells), name


def test_experiment_score_norm_single_timepoint(tmp_path, network_dir, capsys):
    # at T=1 the switch term is constant on one-hot schedules: left out
    out = tmp_path / "exp"
    code = main(["experiment", "score-norm", "--data-dir", str(network_dir),
                 "--T", "1", "--seeds", "0", "--max-iterations", "200",
                 "--out-dir", str(out)])
    assert code == 0
    for report in ("score_norm_spread.csv", "score_norm_solutions.csv"):
        terms = {row.split(",")[0]
                 for row in (out / report).read_text().splitlines()[1:]}
        assert terms == {"power", "load", "cost"}, report


def test_experiment_timeseries_rerun_identical(tmp_path, network_dir, capsys):
    args = ["experiment", "timeseries", "--data-dir", str(network_dir),
            "--seeds", "0"]
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
    fit = json.loads((out / "fit.json").read_text())
    assert sorted(fit) == ["converged", "final_loss", "iterations",
                           "kkt_residual"]
    assert fit["iterations"] == len(losses) - 1 and fit["converged"] is True
    assert fit["final_loss"] == pytest.approx(losses[-1], rel=1e-9)
    assert fit["kkt_residual"] <= 1e-10
    assert "KKT residual" in capsys.readouterr().out


# --------------------------------------------------------------- read guard


class ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# one run of each command; {net}, {inst} and {out} are filled in per test
GUARDED_RUNS = {
    "build-instance": ["build-instance", "--synthetic", "2,3,2,2",
                       "--out", "{out}/i.json"],
    "solve": ["solve", "--instance", "{inst}", "--solver", "tabu",
              "--max-iterations", "50", "--out-dir", "{out}"],
    "penalty-norm": ["experiment", "penalty-norm", "--data-dir", "{net}",
                     "--seeds", "0", "--max-iterations", "50",
                     "--out-dir", "{out}"],
    "score-norm": ["experiment", "score-norm", "--data-dir", "{net}",
                   "--seeds", "0", "--max-iterations", "50",
                   "--out-dir", "{out}"],
    "decomposers": ["experiment", "decomposers", "--data-dir", "{net}",
                    "--seeds", "0", "--max-steps", "2", "--out-dir", "{out}"],
    "timeseries": ["experiment", "timeseries", "--data-dir", "{net}",
                   "--seeds", "0", "--out-dir", "{out}"],
    "estimate-sensitivity": ["estimate-sensitivity", "--data-dir", "{net}",
                             "--out-dir", "{out}"],
}


@pytest.mark.parametrize("label", list(GUARDED_RUNS))
def test_every_flag_is_read(tmp_path, network_dir, capsys, label):
    """Each flag a subcommand defines is read by the config layer or by the
    command itself, so no accepted flag leaves the outputs unchanged."""
    inst = build_synthetic_instance(tmp_path)
    argv = [arg.format(net=network_dir, inst=inst, out=tmp_path / "out")
            for arg in GUARDED_RUNS[label]]
    parser = cli.build_parser()
    args = parser.parse_args(argv, namespace=ReadRecorder())
    args._reads.clear()  # argparse reads the namespace while it parses
    cli._apply_config_file(args, parser)
    assert args.func(args) == 0
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in commands.choices[argv[0]]._actions
             if a.default != argparse.SUPPRESS}
    assert dests - args._reads == set()


# ------------------------------------------------------- exit-code property

# (valid, bad) values per flag.  Valid budgets stay small (--max-iterations
# <= 50, --max-steps <= 5, --time-limit 0.5, one seed), so a drawn command
# that runs to the end takes under half a second, most of it the
# sensitivity fit.  Bad values cover NaN, -1, 0 and non-numbers.
BUDGETS = {
    "--max-iterations": (["0", "1", "50"], ["-1", "nan", "x"]),
    "--max-steps": (["1", "5"], ["0", "-1", "x"]),
    "--time-limit": (["0.5"], ["0", "-1", "nan", "x"]),
    "--seeds": (["0", "1"], ["-1", "x", "0,x"]),
}
OPTIONS = {
    "--seed": (["0", "1"], ["-1", "nan", "x"]),
    "--size": (["S"], ["L", "X"]),  # L needs 8 raw timepoints, the net has 6
    "--T": (["1", "2"], ["0", "-1", "x"]),
    "--k": (["2", "3"], ["0", "-1", "x"]),
    "--promote-statics": (["0", "1"], ["2"]),
    "--synthetic": (["2,3,2,2", "1,2,1,1"], ["0,2,1,1", "2,3", "a,b,c,d"]),
    "--solver": (["alpha", "tabu", "sa", "brute", "random-decomp",
                  "score-decomp"], ["bogus"]),
    "--batch-size": (["1", "3"], ["0", "-1", "x"]),
    "--subproblem-size": (["1", "4"], ["0", "-1", "x"]),
}
COMMAND_FLAGS = {
    "build-instance": ["--seed", "--size", "--T", "--k", "--promote-statics",
                       "--synthetic"],
    "solve": ["--seed", "--solver", "--time-limit", "--batch-size",
              "--subproblem-size"],
    "experiment": ["--size", "--T", "--k", "--promote-statics"],
    "estimate-sensitivity": [],
}
COMMAND_BUDGETS = {
    "build-instance": [],
    "solve": ["--max-iterations"],
    "experiment": ["--max-iterations", "--max-steps", "--time-limit",
                   "--seeds"],
    "estimate-sensitivity": ["--max-iterations"],
}
FLAG_VALUES = {**BUDGETS, **OPTIONS}
# --config values, valid or not for whichever key they land on; the
# integers are small enough for any budget
CONFIG_VALUES = st.sampled_from(
    [0, 1, 5, -1, 1.5, "nan", "x", "S", "tabu", None, True, [1], {}])


@pytest.fixture(scope="module")
def exit_code_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("exit-codes")
    net = write_synthetic_network(root / "net", n_controllables=3, n_lines=2,
                                  raw_timepoints=6, n_fixed=2, seed=0)
    inst = root / "inst.json"
    assert main(["build-instance", "--synthetic", "2,3,2,2", "--T", "2",
                 "--k", "3", "--out", str(inst)]) == 0
    (root / "bad.json").write_text("{not json")
    return root, net, inst


@st.composite
def cli_argv(draw, root, net, inst, command=None):
    """argv of one command (drawn unless given): valid with probability 1/2,
    else with one bad part, which is a flag value, a config file of random
    keys and values, or, for an experiment, a budget its study does not read.
    Valid values can still clash (say, --size with --synthetic)."""
    bad = draw(st.booleans())
    command = command or draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    slots = []  # (flag, or None for the study, (valid values, bad values))
    budgets = unread = COMMAND_BUDGETS[command]
    if command == "experiment":
        which = draw(st.sampled_from(sorted(STUDIES)))
        slots.append((None, ([which], ["bogus"])))
        budgets = ["--seeds"] + [f"--{dest.replace('_', '-')}"
                                 for dest in STUDIES[which][1]]
        unread = [flag for flag in unread if flag not in budgets]
    if command == "solve":
        slots.append(("--instance", ([inst], [root / "bad.json", root / "absent"])))
    elif command != "build-instance" or draw(st.booleans()):
        slots.append(("--data-dir", ([net], [root / "absent"])))
    slots += [(flag, FLAG_VALUES[flag]) for flag in budgets]
    slots += [(flag, FLAG_VALUES[flag]) for flag in COMMAND_FLAGS[command]
              if draw(st.booleans())]
    # the bad part: slot `wrong`, else the config file, else an unread budget
    wrong = draw(st.integers(0, len(slots) + bool(unread))) if bad else None
    argv = [command]
    for i, (flag, (valid, invalid)) in enumerate(slots):
        value = str(draw(st.sampled_from(invalid if i == wrong else valid)))
        argv += [value] if flag is None else [flag, value]
    if wrong == len(slots):
        flags = COMMAND_FLAGS[command] + COMMAND_BUDGETS[command]
        keys = [f[2:].replace("-", "_") for f in flags] + ["no_such_flag"]
        config = draw(st.dictionaries(st.sampled_from(keys), CONFIG_VALUES,
                                      min_size=1, max_size=2))
        path = root / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    elif wrong == len(slots) + 1:
        flag = draw(st.sampled_from(unread))
        argv += [flag, draw(st.sampled_from(FLAG_VALUES[flag][0]))]
    out = root / "out"
    return argv + (["--out", str(out / "inst.json")]
                   if command == "build-instance" else ["--out-dir", str(out)])


def exit_code(argv: list[str]) -> int:
    """main's exit code, counting argparse's SystemExit code as one."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_cli_exits_only_with_0_2_or_3(exit_code_inputs, data):
    """Whatever the flags and config file, main ends with 0, 2 or 3.

    Runs in-process; argparse's SystemExit code counts as the exit code.
    """
    argv = data.draw(cli_argv(*exit_code_inputs))
    assert exit_code(argv) in (0, 2, 3), argv


def test_exit_code_draws_often_run_an_experiment(exit_code_inputs):
    # the property above only reaches a study's own exit codes through
    # draws that pass every check; at least a quarter of experiments must
    codes = []

    @given(data=st.data())
    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    def sample(data):
        codes.append(exit_code(data.draw(cli_argv(*exit_code_inputs,
                                                  command="experiment"))))

    sample()
    assert codes.count(0) >= 0.25 * len(codes), codes
