"""Domain model tests: codec, feasibility checks, schedule metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redispatch.model import (
    NotOneHotError,
    ProblemInstance,
    count_switches,
    decode_one_hot,
    encode_one_hot,
    evaluate_schedule,
    first_adjacency_violation,
    flat_index,
    is_adjacent_feasible,
    line_loads,
    power_production,
    production_cost,
    switching_cost,
)


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
    # layout: ((t * n) + a) * k + (state - 1)
    assert flat_index(0, 0, 1, n=2, k=3) == 0
    assert flat_index(0, 0, 3, n=2, k=3) == 2
    assert flat_index(0, 1, 1, n=2, k=3) == 3
    assert flat_index(1, 0, 1, n=2, k=3) == 6
    assert flat_index(1, 1, 2, n=2, k=3) == 10


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
    prod = power_production(inst, Z)
    assert prod.tolist() == [[5.0, 4.0], [0.0, 0.0]]
    loads = line_loads(inst, Z)
    # line load = 0.5 * resource0 + 1.0 * resource1
    assert loads[:, 0].tolist() == [5 * 0.5 + 4 * 1.0, 0.0]


def test_cost_and_switch_metrics_hand_values():
    inst = tiny_instance()
    Z = np.array([[2, 3], [3, 2]])
    assert production_cost(inst, Z) == 50 + 20 + 100 + 10
    # |10-5| + |2-4| summed across resources, gamma = 1
    assert switching_cost(inst, Z) == pytest.approx(5 + 2)
    assert count_switches(inst, Z) == 2
    assert count_switches(inst, np.array([[2, 3], [2, 3]])) == 0


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
    report_off = evaluate_schedule(zeroed, np.array([[1, 1], [2, 2]]))
    assert report_off.fulfillment[0] == 1.0  # nothing asked, nothing produced


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


def test_instance_arrays_are_read_only():
    inst = tiny_instance()
    with pytest.raises(ValueError):
        inst.p[0, 0] = 99.0
