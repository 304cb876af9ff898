"""Domain model tests: codec, feasibility checks, schedule metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redispatch import model
from redispatch.model import (
    NotOneHotError,
    ProblemInstance,
    decode_one_hot,
    encode_one_hot,
    evaluate_schedule,
    first_adjacency_violation,
    is_adjacent_feasible,
)

from oracles import flat_index


def tiny_instance():
    # 2 timepoints, 2 resources, 3 states, 1 line; hand-checkable numbers
    p = np.array([[0.0, 5.0, 10.0],
                  [0.0, 2.0, 4.0]])
    c = np.zeros((2, 2, 3))
    c[:, 0, :] = [0.0, 50.0, 100.0]
    c[:, 1, :] = [0.0, 10.0, 20.0]
    S = np.array([[0.5], [1.0]])
    M = np.full((2, 1), 20.0)
    tau = np.array([6.0, 6.0])
    return ProblemInstance(T=2, n=2, k=3, L=1, p=p, c=c, S=S, M=M, tau=tau)


def test_flat_index_is_timepoint_major():
    # layout: ((t * n) + a) * k + (state - 1), as encode_one_hot sets it
    T, n, k = 2, 2, 3
    for t, a, i, bit in [(0, 0, 1, 0), (0, 0, 3, 2), (0, 1, 1, 3),
                         (1, 0, 1, 6), (1, 1, 2, 10)]:
        Z = np.array([[2, 3], [3, 1]])
        Z[t, a] = i
        x = encode_one_hot(Z, T, n, k)
        assert x[bit] == 1
        assert np.flatnonzero(x).tolist() == sorted(
            (s * n + b) * k + Z[s, b] - 1 for s in range(T) for b in range(n))


def test_encode_decode_round_trip_small():
    Z = np.array([[1, 3], [2, 2]])
    x = encode_one_hot(Z, 2, 2, 3)
    assert x.sum() == 4
    assert x[flat_index(0, 1, 3, 2, 3)] == 1
    assert decode_one_hot(x, 2, 2, 3).tolist() == Z.tolist()


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_encode_decode_round_trip_random(T, n, k, seed):
    rng = np.random.default_rng(seed)
    Z = rng.integers(1, k + 1, size=(T, n))
    assert decode_one_hot(encode_one_hot(Z, T, n, k), T, n, k).tolist() == Z.tolist()


def test_decode_flags_empty_and_double_blocks():
    x = encode_one_hot(np.array([[1, 2], [2, 1]]), 2, 2, 3)
    empty = x.copy()
    empty[flat_index(1, 0, 2, 2, 3)] = 0
    with pytest.raises(NotOneHotError) as info:
        decode_one_hot(empty, 2, 2, 3)
    assert (info.value.t, info.value.a, info.value.set_bits) == (1, 0, 0)
    double = x.copy()
    double[flat_index(0, 0, 3, 2, 3)] = 1
    with pytest.raises(NotOneHotError) as info:
        decode_one_hot(double, 2, 2, 3)
    assert (info.value.t, info.value.a, info.value.set_bits) == (0, 0, 2)


def test_encode_rejects_bad_states():
    with pytest.raises(ValueError):
        encode_one_hot(np.array([[0, 1]]), 1, 2, 3)
    with pytest.raises(ValueError):
        encode_one_hot(np.array([[1, 4]]), 1, 2, 3)


def test_adjacency_violation_detection():
    assert is_adjacent_feasible(np.array([[1, 2], [2, 3], [3, 3]]))
    Z = np.array([[1, 2], [2, 2], [2, 4]])
    assert not is_adjacent_feasible(Z)
    assert first_adjacency_violation(Z) == (1, 1)
    assert first_adjacency_violation(np.array([[3], [1]])) == (0, 0)
    assert first_adjacency_violation(np.array([[2], [2]])) is None


def test_power_and_loads_hand_values():
    inst = tiny_instance()
    Z = np.array([[2, 3], [1, 1]])
    # MW produced: 5 + 4 at t=0, nothing at t=1
    assert evaluate_schedule(inst, Z).produced_per_t.tolist() == [9.0, 0.0]
    # line load = 0.5 * resource0 + 1.0 * resource1: 6.5 at t=0, 0 at t=1;
    # a load at its limit is not an overload
    for limits, overloaded in (([6.5, 0.0], [0, 0]), ([6.4, -0.1], [1, 1])):
        edged = ProblemInstance(T=2, n=2, k=3, L=1, p=inst.p, c=inst.c,
                                S=inst.S, M=np.array(limits)[:, None],
                                tau=inst.tau)
        report = evaluate_schedule(edged, Z)
        assert report.overloaded_per_t.tolist() == overloaded
        assert report.overloaded_lines == sum(overloaded)


def test_cost_and_switch_metrics_hand_values():
    inst = tiny_instance()
    report = evaluate_schedule(inst, np.array([[2, 3], [3, 2]]))
    assert report.cost_per_t.tolist() == [50 + 20, 100 + 10]
    assert report.production_cost == 50 + 20 + 100 + 10
    # |10-5| + |2-4| summed across resources, gamma = 1
    assert report.switching_cost == pytest.approx(5 + 2)
    assert report.switches == 2
    assert report.switches_into_t.tolist() == [0, 2]
    report = evaluate_schedule(inst, np.array([[2, 3], [3, 3]]))
    assert (report.switches, report.switches_into_t.tolist()) == (1, [0, 1])
    report = evaluate_schedule(inst, np.array([[2, 3], [2, 3]]))
    assert report.switches == 0 and report.switching_cost == 0.0
    assert report.switches_into_t.tolist() == [0, 0]
    doubled = ProblemInstance(T=2, n=2, k=3, L=1, p=inst.p, c=inst.c, S=inst.S,
                              M=inst.M, tau=inst.tau, gamma=2.0)
    report = evaluate_schedule(doubled, np.array([[2, 3], [3, 2]]))
    assert report.switching_cost == pytest.approx(2 * (5 + 2))


def test_a_report_validates_its_schedule_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return validate(*args)

    validate = model.validate_schedule
    monkeypatch.setattr(model, "validate_schedule", counting)
    evaluate_schedule(tiny_instance(), np.array([[2, 3], [3, 2]]))
    assert len(calls) == 1
    with pytest.raises(ValueError, match="states must lie in"):
        evaluate_schedule(tiny_instance(), np.array([[2, 4], [3, 2]]))


@pytest.mark.parametrize("field, value", [
    ("gamma", float("nan")), ("gamma", -5.0), ("gamma", float("inf")),
    ("weights", (float("nan"), 100.0, 20.0, 1e-4)),
    ("weights", (float("inf"), 100.0, 20.0, 1e-4)),
    ("weights", (30.0, 100.0, -20.0, 1e-4)),
])
def test_instance_rejects_bad_gamma_and_weights(field, value):
    # a NaN weight used to drop its term silently (NaN > 0 is False)
    fields = {f: getattr(tiny_instance(), f)
              for f in ("T", "n", "k", "L", "p", "c", "S", "M", "tau")}
    with pytest.raises(ValueError, match="finite and non-negative"):
        ProblemInstance(**fields, **{field: value})


def test_evaluate_schedule_report():
    inst = tiny_instance()
    Z = np.array([[3, 3], [1, 1]])
    report = evaluate_schedule(inst, Z)
    assert report.production_cost == 100 + 20
    # t=0 produces 14 >= 6, t=1 produces 0 < 6
    assert report.fulfilled_timepoints == 1
    assert report.fulfillment.tolist() == [14 / 6, 0.0]
    assert report.overloaded_lines == 0
    assert report.switches == 2
    assert not np.isnan(report.fulfillment).any()


def test_zero_target_renders_finite_or_inf_never_nan():
    inst = tiny_instance()
    zeroed = ProblemInstance(
        T=2, n=2, k=3, L=1, p=inst.p, c=inst.c, S=inst.S, M=inst.M,
        tau=np.array([0.0, 6.0]))
    report = evaluate_schedule(zeroed, np.array([[2, 2], [2, 2]]))
    assert report.fulfillment[0] == np.inf  # produced > 0 against zero target
    assert report.fulfilled_timepoints >= 1
    # the mean reads the timepoints that ask for power: t=1's 7 MW against 6
    assert report.mean_fulfillment == 7 / 6
    report_off = evaluate_schedule(zeroed, np.array([[1, 1], [2, 2]]))
    assert report_off.fulfillment[0] == 1.0  # nothing asked, nothing produced
    # that timepoint counts as fulfilled, beside t=1's 7 MW against 6
    assert report_off.fulfilled_timepoints == 2
    assert report_off.mean_fulfillment == 7 / 6
    exact = ProblemInstance(
        T=2, n=2, k=3, L=1, p=inst.p, c=inst.c, S=inst.S, M=inst.M,
        tau=np.array([5.0, 7.0]))
    report_exact = evaluate_schedule(exact, np.array([[2, 1], [2, 2]]))
    assert report_exact.fulfillment.tolist() == [1.0, 1.0]
    assert report_exact.fulfilled_timepoints == 2  # a met target counts
    # with no target positive every timepoint counts as met: the mean is 1.0,
    # not the mean of nothing, while a ratio keeps its documented inf
    idle = ProblemInstance(T=2, n=2, k=3, L=1, p=inst.p, c=inst.c, S=inst.S,
                           M=inst.M, tau=np.zeros(2))
    report_idle = evaluate_schedule(idle, np.array([[2, 1], [1, 1]]))
    assert report_idle.fulfillment.tolist() == [np.inf, 1.0]
    assert report_idle.mean_fulfillment == 1.0
    assert report_idle.fulfilled_timepoints == 2


def test_overload_counting():
    inst = tiny_instance()
    tight = ProblemInstance(
        T=2, n=2, k=3, L=1, p=inst.p, c=inst.c, S=inst.S,
        M=np.full((2, 1), 3.0), tau=inst.tau)
    report = evaluate_schedule(tight, np.array([[3, 3], [1, 1]]))
    # t=0 load = 10*0.5 + 4*1 = 9 > 3; t=1 load = 0
    assert report.overloaded_lines == 1
    assert report.mean_overloaded_per_timepoint == 0.5


def test_instance_validation_errors():
    good = tiny_instance()
    with pytest.raises(ValueError):
        ProblemInstance(T=2, n=2, k=3, L=1, p=good.p[:, ::-1], c=good.c,
                        S=good.S, M=good.M, tau=good.tau)  # decreasing levels
    with pytest.raises(ValueError):
        ProblemInstance(T=2, n=2, k=3, L=1, p=-good.p, c=good.c,
                        S=good.S, M=good.M, tau=good.tau)
    with pytest.raises(ValueError):
        ProblemInstance(T=2, n=2, k=3, L=1, p=good.p, c=good.c,
                        S=good.S * 3.0, M=good.M, tau=good.tau)  # outside box
    with pytest.raises(ValueError):
        ProblemInstance(T=2, n=2, k=3, L=1, p=good.p, c=good.c[:1], S=good.S,
                        M=good.M, tau=good.tau)  # wrong c shape
    with pytest.raises(ValueError):
        ProblemInstance(T=0, n=2, k=3, L=1, p=good.p, c=good.c, S=good.S,
                        M=good.M, tau=good.tau)
    with pytest.raises(ValueError, match="negative sensitivities"):
        ProblemInstance(T=2, n=2, k=3, L=1, p=good.p, c=good.c, S=good.S,
                        M=good.M, tau=good.tau, s_box=(-1.0, 1.0))


def test_instance_dimensions_are_integers():
    # counts are integers: a whole float (T: 2.0 in an instance file) or
    # infinity is rejected here, before any array is sized from it
    arrays = {f: getattr(tiny_instance(), f) for f in ("p", "c", "S", "M", "tau")}
    inst = ProblemInstance(T=np.int64(2), n=2, k=3, L=1, **arrays)
    assert type(inst.T) is int and inst.T == 2
    for bad in (2.0, float("inf"), float("nan"), "2"):
        with pytest.raises(ValueError, match="T must be an integer"):
            ProblemInstance(T=bad, n=2, k=3, L=1, **arrays)


def test_instance_arrays_are_read_only():
    inst = tiny_instance()
    with pytest.raises(ValueError):
        inst.p[0, 0] = 99.0
