"""Unit tests for experiment report helpers and protocols."""

import math

import numpy as np
import pytest

from redispatch.data import load_network, synth_instance, write_synthetic_network
from redispatch.experiments import (
    ExperimentSettings,
    _hard_weight,
    composed_objective,
    fmt,
    read_out,
    run_score_norm,
    write_csv,
)
from redispatch.model import encode_one_hot, is_adjacent_feasible, read_schedule


def test_fmt_rendering():
    assert fmt("alpha") == "alpha"
    assert fmt(True) == "1" and fmt(False) == "0"
    assert fmt(7) == "7" and fmt(np.int64(-3)) == "-3"
    assert fmt(0.5) == "0.5"
    assert fmt(1 / 3) == "0.3333333333"
    assert fmt(math.inf) == "inf" and fmt(-math.inf) == "-inf"
    with pytest.raises(ValueError):
        fmt(math.nan)


def test_hard_weight_floors_the_soft_span_at_one():
    # a soft span below 1 (a normalized term's is 1 at most) still gets the
    # hard terms a weight of 10, not 10 times the span
    assert _hard_weight(0.25) == _hard_weight(0.0) == _hard_weight(1.0) == 10.0
    assert _hard_weight(3.5) == 35.0


def test_write_csv_layout(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [[1, 0.25], ["x", True]])
    assert path.read_text() == "a,b\n1,0.25\nx,1\n"


def test_project_feasible_rules():
    T, n, k = 2, 2, 3
    Z = np.array([[2, 3], [1, 2]])
    x = encode_one_hot(Z, T, n, k)
    decoded, one_hot = read_schedule(x, T, n, k)
    assert np.array_equal(decoded, Z) and one_hot
    x_multi = x.copy()
    x_multi[0] = 1  # block (0, 0) now has bits for states 1 and 2
    projected, one_hot = read_schedule(x_multi, T, n, k)
    assert projected[0, 0] == 1 and not one_hot  # first set bit wins
    assert np.array_equal(projected[1:], Z[1:])
    x_empty = x.copy()
    x_empty[x.nonzero()[0][0]] = 0
    projected, one_hot = read_schedule(x_empty, T, n, k)
    assert projected[0, 0] == 1 and not one_hot  # empty block: off state


def test_read_out_flags_a_jump_of_two_states_infeasible():
    inst, _ = synth_instance(3, 3, 2, 2, seed=0)
    Z = np.array([[1, 1, 1], [3, 1, 1]])  # one-hot, but resource 0 jumps 1 -> 3
    assert not is_adjacent_feasible(Z)
    decoded, feasible, _ = read_out(inst, encode_one_hot(Z, 2, 3, 3))
    assert np.array_equal(decoded, Z) and feasible is False
    step = np.array([[1, 1, 1], [2, 1, 1]])
    assert read_out(inst, encode_one_hot(step, 2, 3, 3))[1] is True


def test_composed_objective_keeps_hard_floor_dominant():
    inst, planted = synth_instance(n=2, k=3, T=2, L=2, seed=3)
    q = composed_objective(inst)
    x = encode_one_hot(planted, inst.T, inst.n, inst.k)
    feasible_score = q.evaluate(x)
    # breaking one-hot structure anywhere must cost more than any feasible
    # soft-term variation, which is bounded by the summed unit weights
    broken = x.copy()
    broken[0] ^= 1
    assert q.evaluate(broken) > feasible_score + 1.0


def test_run_score_norm_normalized_spread_in_unit_interval(tmp_path):
    root = write_synthetic_network(tmp_path / "net", 3, 2, 6, n_fixed=2, seed=1)
    ds = load_network(root)
    settings = ExperimentSettings(seeds=(0,), tabu_iterations=200)
    summary = run_score_norm(ds, settings, tmp_path)
    assert summary == {"terms": ["cost", "load", "power", "switch"]}
    rows = (tmp_path / "score_norm_spread.csv").read_text().splitlines()[1:]
    for row in rows:
        term, variant, lo, med, hi = row.split(",")
        if variant == "normalized":
            assert -1e-9 <= float(lo) <= float(med) <= float(hi) <= 1 + 1e-9
