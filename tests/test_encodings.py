"""Encoding tests: every matrix builder against an independent scalar oracle."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redispatch.data import synth_instance
from redispatch.encodings import (
    InfeasibleBoundError,
    build_adjacency_qubo,
    build_cost_qubo,
    build_load_qubo,
    build_objective,
    build_onehot_qubo,
    build_power_qubo,
    build_switch_qubo,
    compute_bounds,
    extremal_schedules,
    extremal_scores,
    load_penalty,
    penalty_scalar,
    power_penalty,
)
from redispatch.model import (
    ProblemInstance,
    encode_one_hot,
    first_adjacency_violation,
    production_cost,
    switching_cost,
)
from redispatch.qubo import DegenerateRangeError, normalize_range, weighted_sum


def random_instance(rng, T=None, n=None, k=None, L=None, monotone_cost=False):
    """Random valid instance with strictly positive penalty bounds."""
    T = T or int(rng.integers(1, 5))
    n = n or int(rng.integers(1, 5))
    k = k or int(rng.integers(2, 5))
    L = L or int(rng.integers(1, 4))
    p = np.sort(rng.uniform(0.0, 10.0, size=(n, k)), axis=1)
    if monotone_cost:
        c = np.broadcast_to(rng.uniform(0.5, 2.0, size=(n, 1)) * p,
                            (T, n, k)).copy()
    else:
        c = rng.uniform(0.0, 5.0, size=(T, n, k))
    S = rng.uniform(0.0, 1.0, size=(n, L))
    tau = rng.uniform(0.0, 0.9, size=T) * p[:, -1].sum()
    min_flow = (p[:, 0:1] * S).sum(axis=0)
    max_flow = (p[:, -1:] * S).sum(axis=0)
    M = min_flow[None, :] + rng.uniform(0.2, 1.2, size=(T, L)) * (
        (max_flow - min_flow)[None, :] + 1.0)
    return ProblemInstance(T=T, n=n, k=k, L=L, p=p, c=c, S=S, M=M, tau=tau)


def random_schedule(rng, inst):
    return rng.integers(1, inst.k + 1, size=(inst.T, inst.n))


def all_bit_vectors(dim):
    for v in range(1 << dim):
        yield np.array([(v >> b) & 1 for b in range(dim)], dtype=np.int8)


# ---------------------------------------------------------------- hard terms


def test_onehot_certificate_exhaustive():
    T, n, k = 2, 2, 3
    q = build_onehot_qubo(T, n, k)
    floor = -T * n
    for x in all_bit_vectors(T * n * k):
        score = q.evaluate(x)
        blocks = x.reshape(T * n, k).sum(axis=1)
        if np.all(blocks == 1):
            assert score == floor
        else:
            assert score > floor


def test_adjacency_counts_violations_exhaustively():
    T, n, k = 3, 2, 3
    q = build_adjacency_qubo(T, n, k)
    for states in itertools.product(range(1, k + 1), repeat=T * n):
        Z = np.array(states).reshape(T, n)
        x = encode_one_hot(Z, T, n, k)
        expected = sum(
            1
            for t in range(T - 1)
            for a in range(n)
            if abs(Z[t + 1, a] - Z[t, a]) > 1
        )
        assert q.evaluate(x) == expected


def test_adjacency_zero_when_single_timepoint():
    assert build_adjacency_qubo(1, 3, 4).num_terms == 0


# ---------------------------------------------------------------- soft costs


def test_cost_qubo_equals_production_cost():
    rng = np.random.default_rng(0)
    for _ in range(10):
        inst = random_instance(rng)
        for _ in range(5):
            Z = random_schedule(rng, inst)
            x = encode_one_hot(Z, inst.T, inst.n, inst.k)
            assert build_cost_qubo(inst).evaluate(x) == pytest.approx(
                production_cost(inst, Z), rel=1e-12, abs=1e-12)


def test_switch_qubo_equals_switching_cost():
    rng = np.random.default_rng(1)
    for _ in range(10):
        inst = random_instance(rng)
        q = build_switch_qubo(inst)
        for _ in range(5):
            Z = random_schedule(rng, inst)
            x = encode_one_hot(Z, inst.T, inst.n, inst.k)
            # switch qubo carries the raw MW deltas; gamma is applied on top
            assert inst.gamma * q.evaluate(x) == pytest.approx(
                switching_cost(inst, Z), rel=1e-12, abs=1e-12)


# ------------------------------------------------------------ penalty terms


def test_penalty_scalar_reference_points():
    assert penalty_scalar(0.0) == 1.0
    assert penalty_scalar(1.0) == 0.5
    assert penalty_scalar(-1.0) == 2.5
    assert penalty_scalar(2.0) == 1.0


def test_power_qubo_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        inst = random_instance(rng)
        bounds = compute_bounds(inst)
        for normalized in (False, True):
            q = build_power_qubo(inst, bounds, normalized=normalized)
            for _ in range(5):
                x = encode_one_hot(random_schedule(rng, inst),
                                   inst.T, inst.n, inst.k)
                oracle = power_penalty(inst, x, bounds, normalized=normalized)
                assert q.evaluate(x) == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_load_qubo_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        inst = random_instance(rng)
        bounds = compute_bounds(inst)
        for normalized in (False, True):
            q = build_load_qubo(inst, bounds, normalized=normalized)
            for _ in range(5):
                x = encode_one_hot(random_schedule(rng, inst),
                                   inst.T, inst.n, inst.k)
                oracle = load_penalty(inst, x, bounds, normalized=normalized)
                assert q.evaluate(x) == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_penalties_score_arbitrary_bit_vectors():
    # the QUBO and the oracle agree off the one-hot manifold as well
    rng = np.random.default_rng(4)
    inst = random_instance(rng, T=2, n=2, k=3, L=2)
    bounds = compute_bounds(inst)
    qg = build_power_qubo(inst, bounds)
    qh = build_load_qubo(inst, bounds)
    for _ in range(30):
        x = rng.integers(0, 2, inst.dim)
        assert qg.evaluate(x) == pytest.approx(
            power_penalty(inst, x, bounds), rel=1e-9, abs=1e-9)
        assert qh.evaluate(x) == pytest.approx(
            load_penalty(inst, x, bounds), rel=1e-9, abs=1e-9)


def test_normalized_penalty_argument_at_most_one():
    # at the extreme schedule the scaled slack hits exactly 1, so the
    # penalty term bottoms out at 0.5 per constraint
    rng = np.random.default_rng(5)
    inst = random_instance(rng, T=2, n=3, k=3, L=2)
    bounds = compute_bounds(inst)
    all_max = np.full((inst.T, inst.n), inst.k)
    x = encode_one_hot(all_max, inst.T, inst.n, inst.k)
    assert power_penalty(inst, x, bounds) == pytest.approx(0.5 * inst.T)
    all_min = np.ones((inst.T, inst.n), dtype=int)
    x = encode_one_hot(all_min, inst.T, inst.n, inst.k)
    assert load_penalty(inst, x, bounds) == pytest.approx(0.5 * inst.T * inst.L)


def test_exact_target_scores_one_per_timepoint():
    # engineered so some schedule meets tau exactly: zeta(0) = 1 there
    p = np.array([[0.0, 4.0, 8.0]])
    inst = ProblemInstance(
        T=1, n=1, k=3, L=1, p=p, c=np.zeros((1, 1, 3)),
        S=np.array([[0.2]]), M=np.array([[10.0]]), tau=np.array([4.0]))
    x = encode_one_hot(np.array([[2]]), 1, 1, 3)
    assert power_penalty(inst, x, normalized=False) == pytest.approx(1.0)


def test_zero_sensitivity_gives_constant_load_penalty():
    p = np.array([[0.0, 5.0], [0.0, 3.0]])
    inst = ProblemInstance(
        T=2, n=2, k=2, L=2, p=p, c=np.zeros((2, 2, 2)),
        S=np.zeros((2, 2)), M=np.full((2, 2), 7.0),
        tau=np.array([1.0, 1.0]))
    q = build_load_qubo(inst)
    assert q.num_terms == 0
    # every (t, l) pair contributes zeta(M / M) = 0.5
    assert q.offset == pytest.approx(0.5 * inst.T * inst.L)


def test_bounds_values_and_infeasibility():
    p = np.array([[0.0, 5.0, 10.0], [0.0, 2.0, 4.0]])
    S = np.array([[0.5], [1.0]])
    inst = ProblemInstance(
        T=1, n=2, k=3, L=1, p=p, c=np.zeros((1, 2, 3)), S=S,
        M=np.array([[20.0]]), tau=np.array([6.0]))
    bounds = compute_bounds(inst)
    assert bounds.power.tolist() == [14.0 - 6.0]
    # lowest state flows are zero here, so the full limit remains
    assert bounds.load.tolist() == [[20.0]]

    with pytest.raises(InfeasibleBoundError, match="tau"):
        compute_bounds(ProblemInstance(
            T=1, n=2, k=3, L=1, p=p, c=np.zeros((1, 2, 3)), S=S,
            M=np.array([[20.0]]), tau=np.array([14.0])))
    lifted = p + 1.0  # minimum state now produces, occupying the line
    with pytest.raises(InfeasibleBoundError, match="limit"):
        compute_bounds(ProblemInstance(
            T=1, n=2, k=3, L=1, p=lifted, c=np.zeros((1, 2, 3)), S=S,
            M=np.array([[1.0]]), tau=np.array([6.0])))


def test_load_bound_is_sensitivity_weighted():
    # minimum-state production 2 MW and 3 MW against sensitivities 0.5 / 1.0:
    # the reachable floor is 2*0.5 + 3*1.0 = 4, not 2 + 3
    p = np.array([[2.0, 5.0], [3.0, 6.0]])
    S = np.array([[0.5], [1.0]])
    inst = ProblemInstance(
        T=1, n=2, k=2, L=1, p=p, c=np.zeros((1, 2, 2)), S=S,
        M=np.array([[10.0]]), tau=np.array([5.0]))
    bounds = compute_bounds(inst)
    assert bounds.load[0, 0] == pytest.approx(10.0 - 4.0)


# ------------------------------------------------------- score normalization


def test_extremal_scores_match_exhaustive_min_max():
    rng = np.random.default_rng(6)
    inst = random_instance(rng, T=2, n=2, k=3, L=2, monotone_cost=True)
    bounds = compute_bounds(inst)
    qubos = {
        "cost": build_cost_qubo(inst),
        "switch": build_switch_qubo(inst),
        "power": build_power_qubo(inst, bounds),
        "load": build_load_qubo(inst, bounds),
    }
    for which, q in qubos.items():
        scores = []
        for states in itertools.product(range(1, inst.k + 1),
                                        repeat=inst.T * inst.n):
            Z = np.array(states).reshape(inst.T, inst.n)
            scores.append(q.evaluate(encode_one_hot(Z, inst.T, inst.n, inst.k)))
        lo, hi = extremal_scores(inst, which, qubo=q)
        assert lo == pytest.approx(min(scores), rel=1e-9, abs=1e-12)
        assert hi == pytest.approx(max(scores), rel=1e-9, abs=1e-12)


def test_extremal_cost_scores_exact_for_nonmonotone_costs():
    # costs that dip at interior states must still produce a valid range
    rng = np.random.default_rng(12)
    for _ in range(5):
        inst = random_instance(rng, T=2, n=2, k=3, L=1)  # random c, not sorted
        q = build_cost_qubo(inst)
        scores = []
        for states in itertools.product(range(1, inst.k + 1),
                                        repeat=inst.T * inst.n):
            Z = np.array(states).reshape(inst.T, inst.n)
            scores.append(q.evaluate(encode_one_hot(Z, inst.T, inst.n, inst.k)))
        lo, hi = extremal_scores(inst, "cost", qubo=q)
        assert lo == pytest.approx(min(scores), rel=1e-9, abs=1e-12)
        assert hi == pytest.approx(max(scores), rel=1e-9, abs=1e-12)
        assert lo <= hi


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), k=st.integers(2, 4), T=st.integers(1, 3),
       L=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_normalized_terms_lie_in_unit_interval(n, k, T, L, seed):
    inst, _ = synth_instance(n, k, T, L, seed=seed)
    rng = np.random.default_rng(seed)
    sample = np.stack([
        encode_one_hot(rng.integers(1, k + 1, size=(T, n)), T, n, k)
        for _ in range(20)
    ])
    terms = {"power": build_power_qubo(inst), "load": build_load_qubo(inst),
             "cost": build_cost_qubo(inst), "switch": build_switch_qubo(inst)}
    for name, term in terms.items():
        try:
            normalized = normalize_range(
                term, *extremal_scores(inst, name, qubo=term), T * n)
        except DegenerateRangeError:  # e.g. switch at T=1
            continue
        scores = normalized.evaluate_many(sample)
        assert scores.min() >= -1e-9 and scores.max() <= 1.0 + 1e-9, name


def test_extremal_schedules_shapes():
    rng = np.random.default_rng(7)
    inst = random_instance(rng, T=3, n=2, k=4)
    z_lo, z_hi = extremal_schedules(inst, "switch")
    assert np.all(z_lo == z_lo[0])  # constant schedule
    assert z_hi[0].tolist() == [1, 1] and z_hi[1].tolist() == [4, 4]
    with pytest.raises(ValueError):
        extremal_schedules(inst, "unknown")


def test_normalized_terms_hit_zero_and_one_on_extremes():
    rng = np.random.default_rng(8)
    inst = random_instance(rng, T=2, n=3, k=3, L=2, monotone_cost=True)
    ones = inst.T * inst.n
    for which in ("cost", "switch", "power", "load"):
        lo, hi = extremal_scores(inst, which)
        q = normalize_range(
            {"cost": build_cost_qubo, "switch": build_switch_qubo}.get(
                which, lambda i: None)(inst)
            if which in ("cost", "switch") else
            (build_power_qubo(inst) if which == "power" else build_load_qubo(inst)),
            lo, hi, ones)
        z_lo, z_hi = extremal_schedules(inst, which)
        x_lo = encode_one_hot(z_lo, inst.T, inst.n, inst.k)
        x_hi = encode_one_hot(z_hi, inst.T, inst.n, inst.k)
        assert q.evaluate(x_lo) == pytest.approx(0.0, abs=1e-9)
        assert q.evaluate(x_hi) == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------- composition


def test_objective_hard_terms_only_when_weights_zero():
    rng = np.random.default_rng(9)
    inst = random_instance(rng, T=2, n=2, k=3, L=2)
    zeroed = ProblemInstance(
        T=inst.T, n=inst.n, k=inst.k, L=inst.L, p=inst.p, c=inst.c,
        S=inst.S, M=inst.M, tau=inst.tau, weights=(0.0, 0.0, 0.0, 0.0))
    q = build_objective(zeroed)
    expected = weighted_sum([
        (1.0, build_onehot_qubo(inst.T, inst.n, inst.k)),
        (1.0, build_adjacency_qubo(inst.T, inst.n, inst.k)),
    ])
    assert q == expected


def test_objective_cost_only_scores_cost_minus_floor():
    rng = np.random.default_rng(10)
    inst = random_instance(rng, T=2, n=2, k=3, L=2)
    cost_only = ProblemInstance(
        T=inst.T, n=inst.n, k=inst.k, L=inst.L, p=inst.p, c=inst.c,
        S=inst.S, M=inst.M, tau=inst.tau, weights=(0.0, 0.0, 1.0, 0.0))
    q = build_objective(cost_only)
    for _ in range(10):
        Z = random_schedule(rng, inst)
        if first_adjacency_violation(Z) is not None:
            continue
        x = encode_one_hot(Z, inst.T, inst.n, inst.k)
        assert q.evaluate(x) == pytest.approx(
            production_cost(inst, Z) - inst.T * inst.n, rel=1e-9)


def test_objective_matches_manual_weighted_sum():
    rng = np.random.default_rng(11)
    inst = random_instance(rng, T=2, n=2, k=3, L=2)
    bounds = compute_bounds(inst)
    manual = weighted_sum([
        (inst.weights[0], build_power_qubo(inst, bounds)),
        (inst.weights[1], build_load_qubo(inst, bounds)),
        (inst.weights[2], build_cost_qubo(inst)),
        (inst.weights[3] * inst.gamma, build_switch_qubo(inst)),
        (1.0, build_onehot_qubo(inst.T, inst.n, inst.k)),
        (1.0, build_adjacency_qubo(inst.T, inst.n, inst.k)),
    ])
    q = build_objective(inst)
    assert q.dim == manual.dim
    assert q.offset == pytest.approx(manual.offset, rel=1e-12)
    assert q.rows.tolist() == manual.rows.tolist()
    assert q.cols.tolist() == manual.cols.tolist()
    assert q.vals == pytest.approx(manual.vals, rel=1e-12)


# SHA-256 over rows, cols, vals (little-endian int64/int64/float64 bytes) and
# repr(offset) of build_objective(inst, score_normalized=False); recorded
# before the coefficient storage moved from a dict to triplet arrays.
OBJECTIVE_DIGESTS = {
    0: "8ea4e68887c68b114e7c5dfc34a1f068478d46b6e75ba7d857dd4b2ea116aa49",
    1: "8679f81bcb6042caf01ddc242c258ba1c7c0ab982bd4cf8a55290240af82bad2",
}


@pytest.mark.parametrize("seed", sorted(OBJECTIVE_DIGESTS))
def test_objective_bits_are_pinned(seed):
    inst = random_instance(np.random.default_rng(seed))
    q = build_objective(inst, score_normalized=False)
    digest = hashlib.sha256()
    digest.update(q.rows.astype("<i8").tobytes())
    digest.update(q.cols.astype("<i8").tobytes())
    digest.update(q.vals.astype("<f8").tobytes())
    digest.update(repr(q.offset).encode())
    assert digest.hexdigest() == OBJECTIVE_DIGESTS[seed]
