"""Encoding tests: every matrix builder against an independent scalar oracle."""

import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redispatch import encodings
from redispatch.data import synth_instance
from redispatch.encodings import (
    InfeasibleBoundError,
    add_hard_terms,
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
from redispatch.experiments import _hard_weight, composed_objective
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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), L=st.integers(1, 8),
       normalized=st.booleans(), data=st.data())
def test_penalties_score_arbitrary_bit_vectors(seed, L, normalized, data):
    # the QUBO and the oracle agree off the one-hot manifold as well
    inst = random_instance(np.random.default_rng(seed), L=L)
    bounds = compute_bounds(inst)
    qg = build_power_qubo(inst, bounds, normalized=normalized)
    qh = build_load_qubo(inst, bounds, normalized=normalized)
    x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=inst.dim,
                                    max_size=inst.dim)))
    for q, oracle in ((qg, power_penalty), (qh, load_penalty)):
        expected = oracle(inst, x, bounds, normalized=normalized)
        assert abs(q.evaluate(x) - expected) <= 1e-9 * (1.0 + abs(expected))


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
        lo, hi = extremal_scores(inst, which, q)
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
        lo, hi = extremal_scores(inst, "cost", q)
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
                term, *extremal_scores(inst, name, term), T * n)
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
    builders = {"cost": build_cost_qubo, "switch": build_switch_qubo,
                "power": build_power_qubo, "load": build_load_qubo}
    for which, build in builders.items():
        term = build(inst)
        q = normalize_range(term, *extremal_scores(inst, which, term), ones)
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
    # the reference is the per-term chain: each builder's Qubo, normalized
    # from its materialized extremes, summed with the hard blocks
    rng = np.random.default_rng(11)
    inst = random_instance(rng, T=2, n=2, k=3, L=2)
    bounds = compute_bounds(inst)
    terms = {"power": build_power_qubo(inst, bounds),
             "load": build_load_qubo(inst, bounds),
             "cost": build_cost_qubo(inst), "switch": build_switch_qubo(inst)}
    weights = (*inst.weights[:3], inst.weights[3] * inst.gamma)
    for objective, q in (
            ("plain", build_objective(inst)),
            ("normalized", build_objective(inst, score_normalized=True)),
            ("composed", composed_objective(inst))):
        soft = [(w, term if objective == "plain" else normalize_range(
                    term, *extremal_scores(inst, which, term), inst.T * inst.n))
                for w, (which, term) in zip(weights, terms.items())]
        manual = add_hard_terms(inst, soft, _hard_weight(sum(inst.weights))
                                if objective == "composed" else 1.0)
        assert q.dim == manual.dim
        assert q.offset == pytest.approx(manual.offset, rel=1e-12), objective
        assert q.rows.tolist() == manual.rows.tolist(), objective
        assert q.cols.tolist() == manual.cols.tolist(), objective
        assert q.vals == pytest.approx(manual.vals, rel=1e-12), objective


def test_objective_is_assembled_from_the_record_only(monkeypatch):
    # build_objective sums FactoredObjective records and materializes the
    # sum once; the per-term Qubo chain above is a test reference only
    def refuse(*args, **kwargs):
        raise AssertionError("build_objective went through a per-term Qubo")

    for name in ("build_power_qubo", "build_load_qubo", "build_cost_qubo",
                 "build_switch_qubo", "normalize_range", "add_hard_terms"):
        monkeypatch.setattr(encodings, name, refuse)
    inst = random_instance(np.random.default_rng(12), T=2, n=2, k=3, L=2)
    for normalized in (False, True):
        assert build_objective(inst, normalized).factored is not None


@settings(max_examples=60, deadline=None)
@given(T=st.integers(1, 3), n=st.integers(1, 3), k=st.integers(2, 4),
       L=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       objective=st.sampled_from(["plain", "normalized", "composed"]),
       repeat=st.booleans(), zero=st.lists(st.booleans(), min_size=4,
                                           max_size=4))
def test_record_scores_as_its_qubo(T, n, k, L, seed, objective, repeat,
                                   zero):
    # the record build_objective assembles and the Qubo it materializes are
    # one polynomial: the same score on a one-hot schedule and on any bits
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, T=T, n=n, k=k, L=L)
    p = inst.p.copy()
    if repeat and k > 2:  # two equal levels below the top one
        i = int(rng.integers(k - 2))
        p[:, i + 1] = p[:, i]
    inst = dataclasses.replace(inst, p=p, weights=tuple(
        0.0 if z else w for z, w in zip(zero, inst.weights)))
    q = {"plain": lambda: build_objective(inst),
         "normalized": lambda: build_objective(inst, score_normalized=True),
         "composed": lambda: composed_objective(inst)}[objective]()
    Z = rng.integers(1, k + 1, size=(T, n))
    for x in (encode_one_hot(Z, T, n, k), rng.integers(0, 2, size=q.dim)):
        score = q.evaluate(x)
        assert abs(q.factored.evaluate(x) - score) <= 1e-9 * (1.0 + abs(score))


@pytest.mark.parametrize("j", [-2, 1, 3])
@pytest.mark.parametrize("seed", range(10))
def test_power_of_two_units_leave_the_objective_bits(seed, j):
    # penalties divide by their bounds and soft terms by their spans, so MW
    # (p, tau, M) times 2^j and cost times 2^-j, both exact, change no bit
    inst = random_instance(np.random.default_rng(seed))
    scaled = dataclasses.replace(inst, p=inst.p * 2.0**j, tau=inst.tau * 2.0**j,
                                 M=inst.M * 2.0**j, c=inst.c * 2.0**-j)
    q, q2 = composed_objective(inst), composed_objective(scaled)
    assert q == q2  # dim, offset, rows, cols and vals, bit for bit
    f, g = q.factored, q2.factored
    for name in ("linear", "transition", "hard", "shift"):
        assert np.array_equal(getattr(f, name), getattr(g, name)), name
    # each penalty column s = V . x scales by 2^j, its slope and curvature
    # by 2^-j and 2^-2j
    for name, power in (("V", j), ("const", 0), ("lin", -j), ("quad", -2 * j)):
        assert np.array_equal(getattr(f.penalty, name) * 2.0**power,
                              getattr(g.penalty, name)), name


# SHA-256 over rows, cols, vals (little-endian int64/int64/float64 bytes) and
# repr(offset) of build_objective(inst, score_normalized=False); re-recorded
# when the coefficients came to be summed from the FactoredObjective record
# (FactoredObjective.qubo) instead of from one Qubo per term.
OBJECTIVE_DIGESTS = {
    0: "7340ae81f1a03c469252ab3eb053d57f096dc03631e4fcfb04e903dfde40a953",
    1: "5e5b1f3d2b174d47ef4030741fa694e1be449533f4701d6d02fd9c6e26c2621a",
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


BUILD_DIGEST = """
import hashlib
from redispatch.data import synth_instance
from redispatch.encodings import build_load_qubo, build_power_qubo
inst, _ = synth_instance(105, 5, 2, 20, seed=0)
digest = hashlib.sha256()
for build in (build_power_qubo, build_load_qubo):
    for normalized in (False, True):
        q = build(inst, normalized=normalized)
        digest.update(q.rows.astype("<i8").tobytes())
        digest.update(q.cols.astype("<i8").tobytes())
        digest.update(q.vals.astype("<f8").tobytes())
        digest.update(repr(q.offset).encode())
print(digest.hexdigest())
"""


def test_penalty_bits_ignore_blas_threads():
    # nk = 525 and L = 20: large enough that a BLAS product would split a
    # block's sums by thread count
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in (1, 2):
        env = {**os.environ, "PYTHONPATH": path,
               **{key: str(threads) for key in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
        child = subprocess.run([sys.executable, "-c", BUILD_DIGEST], env=env,
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        digests.append(child.stdout)
    assert digests[0] == digests[1]
