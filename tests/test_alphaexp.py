"""Tests for the feasibility-preserving batched move search."""

import ast
import dataclasses
import inspect
import itertools
import pickle
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from redispatch import alphaexp
from redispatch.alphaexp import (
    CycleSet,
    InfeasibleStartError,
    NonDisjointCyclesError,
    StateChange,
    alpha_expansion,
    build_alpha_qubo,
    _enumerate_members,
    rectify,
    sample_disjoint_changes,
)
from redispatch.data import synth_instance
from redispatch.encodings import (
    Factors,
    FactoredObjective,
    build_objective,
)
from redispatch.experiments import composed_objective
from redispatch.model import (
    ProblemInstance,
    decode_one_hot,
    encode_one_hot,
    first_adjacency_violation,
)
from redispatch.qubo import Qubo
from redispatch.solvers import Budget, brute_force, tabu_search

from oracles import apply_cycle, flat_index
from test_encodings import random_instance


def apply_to_schedule(Z, cycle, T, n, k):
    x = encode_one_hot(np.asarray(Z), T, n, k)
    return decode_one_hot(apply_cycle(cycle, x), T, n, k)


# ----------------------------------------------------------------- cycles


def test_rectify_pulls_both_neighbors():
    Z = np.array([[1], [1], [1]])
    c = rectify(Z, StateChange(t=1, j=0, i_new=3), k=3)
    Z2 = apply_to_schedule(Z, c, 3, 1, 3)
    assert Z2.ravel().tolist() == [2, 3, 2]


def test_rectify_walks_multiple_steps():
    Z = np.array([[1], [1], [1], [1]])
    c = rectify(Z, StateChange(t=0, j=0, i_new=4), k=4)
    Z2 = apply_to_schedule(Z, c, 4, 1, 4)
    assert Z2.ravel().tolist() == [4, 3, 2, 1]


def test_rectify_pull_lands_on_side_of_original_state():
    Z = np.array([[5], [5], [5]])
    c = rectify(Z, StateChange(t=0, j=0, i_new=1), k=5)
    Z2 = apply_to_schedule(Z, c, 3, 1, 5)
    # neighbors sat above the new value, so they are pulled down from above
    assert Z2.ravel().tolist() == [1, 2, 3]


def test_rectify_stops_at_already_close_neighbor():
    Z = np.array([[2], [1], [5]])
    c = rectify(Z, StateChange(t=2, j=0, i_new=1), k=5)
    assert c.touched == frozenset([(2, 0)])
    Z2 = apply_to_schedule(Z, c, 3, 1, 5)
    assert Z2.ravel().tolist() == [2, 1, 1]


def test_rectify_noop_when_state_already_set():
    Z = np.array([[2], [3], [2]])
    c = rectify(Z, StateChange(t=1, j=0, i_new=3), k=3)
    assert c.swaps == ()


def test_rectify_preserves_feasibility_randomized():
    rng = np.random.default_rng(0)
    for _ in range(200):
        T = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 6))
        # random feasible schedule built by bounded increments
        Z = np.empty((T, n), dtype=int)
        Z[0] = rng.integers(1, k + 1, n)
        for t in range(1, T):
            step = rng.integers(-1, 2, n)
            Z[t] = np.clip(Z[t - 1] + step, 1, k)
        assert first_adjacency_violation(Z) is None
        ch = StateChange(
            t=int(rng.integers(T)), j=int(rng.integers(n)),
            i_new=int(rng.integers(1, k + 1)))
        cyc = rectify(Z, ch, k)
        Z2 = apply_to_schedule(Z, cyc, T, n, k)
        assert Z2[ch.t, ch.j] == ch.i_new
        assert first_adjacency_violation(Z2) is None
        # only column j moves
        others = [c for c in range(n) if c != ch.j]
        assert np.array_equal(Z2[:, others], Z[:, others])


@settings(max_examples=50, deadline=None)
@given(T=st.integers(1, 6), n=st.integers(1, 4), k=st.integers(2, 6),
       data=st.data())
def test_rectify_reads_rows_of_ints_as_it_reads_the_array(T, n, k, data):
    # alpha_expansion hands rectify Z.tolist(); any schedule, feasible or not
    Z = np.array(data.draw(st.lists(
        st.lists(st.integers(1, k), min_size=n, max_size=n),
        min_size=T, max_size=T)))
    change = StateChange(data.draw(st.integers(0, T - 1)),
                         data.draw(st.integers(0, n - 1)),
                         data.draw(st.integers(1, k)))
    cycle = rectify(Z, change, k)
    assert rectify(Z.tolist(), change, k) == cycle
    # each swap moves the set bit of one touched block within that block
    blocks = [divmod(on // k, n) for on, _ in cycle.swaps]
    assert set(blocks) == cycle.touched and len(blocks) == len(cycle.touched)
    for (t, j), (on, off) in zip(blocks, cycle.swaps):
        assert on == flat_index(t, j, Z[t, j], n, k)
        assert off // k == on // k and off != on


def test_sample_disjoint_changes_spacing_and_conservation():
    pool = [StateChange(t, 0, 1) for t in range(10)]
    accepted, skipped = sample_disjoint_changes(pool, count=99, k=3)
    times = sorted(ch.t for ch in accepted)
    assert all(b - a >= 3 for a, b in zip(times, times[1:]))
    assert len(accepted) + len(skipped) == len(pool)
    assert set(accepted) | set(skipped) == set(pool)

    capped, rest = sample_disjoint_changes(pool, count=2, k=3)
    assert len(capped) == 2 and len(rest) == 8


def test_sample_disjoint_changes_resources_independent():
    pool = [StateChange(0, j, 1) for j in range(5)]
    accepted, skipped = sample_disjoint_changes(pool, count=99, k=4)
    assert len(accepted) == 5 and not skipped


def full_scan_sample(pool, count, k):
    """Reference: the scan over the whole pool that the early exit replaced."""
    accepted, skipped = [], []
    for change in pool:
        if len(accepted) >= count:
            skipped.append(change)
            continue
        clash = any(other.j == change.j and abs(other.t - change.t) < k
                    for other in accepted)
        (skipped if clash else accepted).append(change)
    return accepted, skipped


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(st.builds(StateChange, st.integers(0, 7),
                               st.integers(0, 3), st.integers(1, 4)),
                     max_size=60),
       count=st.integers(0, 12), k=st.integers(1, 5))
def test_sample_disjoint_changes_equals_full_scan(pool, count, k):
    assert sample_disjoint_changes(pool, count, k) == full_scan_sample(
        pool, count, k)


# ----------------------------------------------------- reduced move problem


def test_alpha_qubo_exact_delta_exhaustive():
    rng = np.random.default_rng(1)
    T, n, k = 3, 3, 3
    inst = random_instance(rng, T=T, n=n, k=k, L=2)
    q = build_objective(inst)
    Z = np.full((T, n), 2)
    x = encode_one_hot(Z, T, n, k)
    cycles = [
        rectify(Z, StateChange(0, 0, 3), k),
        rectify(Z, StateChange(1, 1, 1), k),
        rectify(Z, StateChange(2, 2, 3), k),
    ]
    reduced = build_alpha_qubo(q, x, cycles)
    base = q.evaluate(x)
    for bits in itertools.product((0, 1), repeat=3):
        alpha = np.array(bits, dtype=np.int8)
        moved = x
        for sel, cyc in zip(bits, cycles):
            if sel:
                moved = apply_cycle(cyc, moved)
        assert reduced.evaluate(alpha) == pytest.approx(
            q.evaluate(moved) - base, rel=1e-9, abs=1e-9)


def exact_score(f, x):
    """f's score of the bit vector x in exact rationals: the polynomial that
    FactoredObjective.evaluate and f.qubo() round, each in its own way."""
    (n, k), F = f.transition.shape[:2], Fraction
    pen, X = f.penalty, np.asarray(x).reshape(-1, n, k)
    total = F(0)
    for t, blocks in enumerate(X):
        on = np.flatnonzero(blocks.ravel())
        for r in range(pen.V.shape[1]):
            s = sum((F(float(v)) for v in pen.V[on, r]), F(0))
            total += (F(float(pen.const[t, r])) + F(float(pen.lin[t, r])) * s
                      + F(float(pen.quad[t, r])) * s * s)
        total += sum(F(float(f.linear[t * n * k + j])) + F(float(f.shift))
                     for j in on)
        total += F(float(f.hard)) * sum(
            (int(c) - 1) ** 2 - 1 for c in blocks.sum(axis=1))
        if t + 1 < len(X):
            for a in range(n):
                for i, i2 in itertools.product(np.flatnonzero(blocks[a]),
                                               np.flatnonzero(X[t + 1, a])):
                    total += F(float(f.transition[a, i, i2]))
    return total


def moved_deltas(q, x, cycles):
    """True score delta of every selection of cycles, in encoding order, of
    the record q carries, computed exactly.  q.evaluate's delta is off by
    the rounding of q's coefficients, up to an ulp of the largest: on an
    ill-conditioned normalized objective (coefficients near 1.9e8) that is
    6e-8 on a delta of 50, which the record itself scores to 1e-11."""
    base = exact_score(q.factored, x)
    for bits in itertools.product((0, 1), repeat=len(cycles)):
        moved = x
        for sel, cyc in zip(bits, cycles):
            if sel:
                moved = apply_cycle(cyc, moved)
        yield np.array(bits), float(exact_score(q.factored, moved) - base)


def test_exact_score_is_what_the_record_and_its_qubo_round():
    rng = np.random.default_rng(5)
    for objective in ("plain", "normalized"):
        inst = random_instance(rng, T=3, n=2, k=3, L=2)
        q = build_objective(inst, score_normalized=objective == "normalized")
        for _ in range(5):
            x = rng.integers(0, 2, q.dim)
            exact = float(exact_score(q.factored, x))
            for score in (q.evaluate(x), q.factored.evaluate(x)):
                assert score == pytest.approx(exact, rel=1e-9, abs=1e-6)


def assert_exact(q, x, cycles):
    """build_alpha_qubo scores every selection as the exact delta of the
    record it reads."""
    reduced = build_alpha_qubo(q, x, cycles)
    assert reduced == build_alpha_qubo(q.factored, x, cycles)
    for bits, delta in moved_deltas(q, x, cycles):
        assert abs(reduced.evaluate(bits) - delta) <= 1e-9 * (1.0 + abs(delta))


def one_hot_start(seed, T=1, n=2, k=3):
    """(instance, build_objective of it, one-hot x of all-state-1)."""
    inst = random_instance(np.random.default_rng(seed), T=T, n=n, k=k, L=1)
    x = encode_one_hot(np.ones((T, n), dtype=int), T, n, k)
    return inst, build_objective(inst), x


def test_alpha_qubo_rejects_overlapping_cycles():
    _, q, x = one_hot_start(3)  # blocks (0, 0) and (0, 1): bits 0-2, 3-5
    shared = frozenset([(0, 0)])
    cycles = [
        CycleSet(swaps=((0, 1),), touched=shared),
        CycleSet(swaps=((0, 2),), touched=shared),
    ]
    with pytest.raises(NonDisjointCyclesError, match="cycles 0 and 1"):
        build_alpha_qubo(q, x, cycles)
    # blocks apart, but both cycles move bit 0
    cycles = [
        CycleSet(swaps=((0, 1),), touched=frozenset([(0, 0)])),
        CycleSet(swaps=((0, 2),), touched=frozenset([(0, 1)])),
    ]
    with pytest.raises(NonDisjointCyclesError, match="bit"):
        build_alpha_qubo(q, x, cycles)


def test_alpha_qubo_rejects_a_swap_out_of_its_block():
    # bit 1 is state 2 of block (0, 0), bit 3 state 1 of block (0, 1): the
    # record would score this swap as a move inside one block
    inst, _ = synth_instance(3, 3, 4, 2, seed=0)
    q = build_objective(inst)
    x = encode_one_hot(np.full((inst.T, inst.n), 2), inst.T, inst.n, inst.k)
    cycles = [CycleSet(swaps=((1, 3),), touched=frozenset([(0, 0)]))]
    with pytest.raises(ValueError, match="out of its"):
        build_alpha_qubo(q, x, cycles)


def test_alpha_qubo_rejects_a_qubo_without_a_record():
    _, q, x = one_hot_start(4)
    cycles = [CycleSet(swaps=((0, 1),), touched=frozenset([(0, 0)]))]
    for bare in (q.with_factored(None), pickle.loads(pickle.dumps(q))):
        with pytest.raises(ValueError, match="no factored record"):
            build_alpha_qubo(bare, x, cycles)


def test_alpha_qubo_empty_cycle_contributes_nothing():
    _, q, x = one_hot_start(4)
    cycles = [CycleSet(swaps=(), touched=frozenset())]
    reduced = build_alpha_qubo(q, x, cycles)
    assert reduced.evaluate(np.array([1])) == 0.0


def random_feasible_schedule(rng, T, n, k):
    Z = np.empty((T, n), dtype=int)
    Z[0] = rng.integers(1, k + 1, n)
    for t in range(1, T):
        Z[t] = np.clip(Z[t - 1] + rng.integers(-1, 2, n), 1, k)
    return Z


def test_alpha_qubo_is_exact_with_empty_cycles():
    # changes already in place rectify to cycles with no swaps, which alpha
    # keeps in its batches; they score 0 and leave the others exact
    rng = np.random.default_rng(11)
    for trial in range(10):
        inst = random_instance(rng, T=3, n=3, k=int(rng.integers(2, 5)))
        q = build_objective(inst)
        Z = random_feasible_schedule(rng, inst.T, inst.n, inst.k)
        x = encode_one_hot(Z, inst.T, inst.n, inst.k)
        changes = [StateChange(0, 0, int(Z[0, 0])), StateChange(2, 1, 1),
                   StateChange(1, 2, int(Z[1, 2])), StateChange(0, 2, inst.k)]
        cycles = [rectify(Z, ch, inst.k) for ch in changes]
        assert cycles[0].swaps == cycles[2].swaps == ()
        assert_exact(q, x, cycles)


def alpha_batches(rng, T, n, k, Z):
    """Batches of cycles drawn as alpha_expansion draws them at schedule Z."""
    members = _enumerate_members(T, n, k)
    pool = [members[i] for i in rng.permutation(len(members))]
    while pool:
        batch, pool = sample_disjoint_changes(pool, int(rng.integers(1, 7)), k)
        cycles = []
        for ch in batch:
            cand = rectify(Z, ch, k)
            if all(cand.disjoint_from(c) for c in cycles):
                cycles.append(cand)
        yield cycles


def asymmetric_objective(rng, T, n, k):
    """qubo() of a FactoredObjective with random factors, a random
    asymmetric transition table and a random hard weight and shift."""
    R = int(rng.integers(1, 3))
    return FactoredObjective(
        Factors(rng.normal(size=(n * k, R)), *rng.normal(size=(3, T, R))),
        rng.normal(size=T * n * k), rng.normal(size=(n, k, k)),
        *rng.normal(size=2)).qubo()


@settings(max_examples=60, deadline=None)
@example(T=1, n=2, k=3, L=1, seed=0, objective="composed", repeat=True,
         zero=[False] * 4)
@example(T=3, n=2, k=2, L=2, seed=1, objective="normalized", repeat=False,
         zero=[True, False, True, False])
@example(T=3, n=2, k=3, L=1, seed=2, objective="plain", repeat=True,
         zero=[True] * 4)
@example(T=1, n=1, k=2, L=1, seed=3799308, objective="normalized",
         repeat=False, zero=[False] * 4)  # coefficients near 1.9e8
@given(T=st.integers(1, 4), n=st.integers(1, 3), k=st.integers(2, 4),
       L=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       objective=st.sampled_from(["plain", "normalized", "composed",
                                  "asymmetric"]),
       repeat=st.booleans(), zero=st.lists(st.booleans(), min_size=4,
                                           max_size=4))
def test_factored_alpha_qubo_matches_qubo_path(T, n, k, L, seed, objective,
                                               repeat, zero):
    # every selection of every batch scores the exact delta of the record
    # the materialized objective came with
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, T=T, n=n, k=k, L=L)
    p = inst.p.copy()
    if repeat and k > 2:
        # two equal levels below the top one, which the bounds read: moves
        # between them are exactly neutral
        i = int(rng.integers(k - 2))
        p[:, i + 1] = p[:, i]
    weights = tuple(0.0 if z else w for z, w in zip(zero, inst.weights))
    inst = dataclasses.replace(inst, p=p, weights=weights)
    q = {"plain": lambda: build_objective(inst),
         "normalized": lambda: build_objective(inst, score_normalized=True),
         "composed": lambda: composed_objective(inst),
         "asymmetric": lambda: asymmetric_objective(rng, T, n, k)}[objective]()
    assert isinstance(q.factored, FactoredObjective)
    Z = random_feasible_schedule(rng, T, n, k)
    x = encode_one_hot(Z, T, n, k)
    for cycles in itertools.islice(alpha_batches(rng, T, n, k, Z), 4):
        assert_exact(q, x, cycles)


@settings(max_examples=40, deadline=None)
@given(T=st.integers(1, 5), n=st.integers(1, 12), k=st.integers(2, 4),
       L=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       objective=st.sampled_from(["plain", "normalized", "composed",
                                  "asymmetric"]),
       zero=st.lists(st.booleans(), min_size=4, max_size=4))
def test_refreshed_fields_have_the_bits_of_a_full_recompute(T, n, k, L, seed,
                                                            objective, zero):
    # alpha refreshes the fields of the rows an accepted move touches (and
    # their neighbours' h); the weights zeroed here leave the penalty 0, 1 or
    # 1 + L columns wide
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, T=T, n=n, k=k, L=L)
    inst = dataclasses.replace(inst, weights=tuple(
        0.0 if z else w for z, w in zip(zero, inst.weights)))
    f = {"plain": lambda: build_objective(inst),
         "normalized": lambda: build_objective(inst, score_normalized=True),
         "composed": lambda: composed_objective(inst),
         "asymmetric": lambda: asymmetric_objective(rng, T, n, k)}[objective]()
    f = f.factored
    Z = random_feasible_schedule(rng, T, n, k)
    fields = f.fields(Z)
    for cycles in itertools.islice(alpha_batches(rng, T, n, k, Z), 6):
        chosen = [c for c in cycles if rng.random() < 0.5 and c.swaps]
        if not chosen:
            continue
        x = encode_one_hot(Z, T, n, k)
        for cycle in chosen:
            x = apply_cycle(cycle, x)
        Z = decode_one_hot(x, T, n, k)
        times = [t for cycle in chosen for t, _ in cycle.touched]
        f.refresh_fields(fields, Z, min(times), max(times) + 1)
        full = f.fields(Z)
        assert [a.tobytes() for a in fields] == [a.tobytes() for a in full]


BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "outer"}


@pytest.mark.parametrize("scorer", [build_alpha_qubo,
                                    FactoredObjective.fields,
                                    FactoredObjective.refresh_fields,
                                    FactoredObjective.evaluate,
                                    brute_force])
def test_factored_scorer_uses_no_blas_product(scorer):
    # a BLAS product's rounding can depend on the thread count, and the move
    # scores break ties; at the sizes the scorer sees OpenBLAS stays on one
    # thread, so test_alpha_schedule_ignores_blas_threads cannot catch one
    tree = ast.parse(textwrap.dedent(inspect.getsource(scorer)))
    products = [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                or isinstance(node, ast.Call) and (
                    getattr(node.func, "attr", None) in BLAS_CALLS
                    or any(kw.arg == "optimize" for kw in node.keywords))]
    assert products == []


# ------------------------------------------------------------- full search


def small_guarded_instance(rng, T=3, n=2, k=3):
    inst = random_instance(rng, T=T, n=n, k=k, L=2)
    # time-invariant costs make the optimum a constant argmin schedule
    c = np.broadcast_to(rng.uniform(1.0, 9.0, size=(n, k)), (T, n, k)).copy()
    return ProblemInstance(
        T=T, n=n, k=k, L=inst.L, p=inst.p, c=c, S=inst.S, M=inst.M,
        tau=inst.tau, weights=(0.0, 0.0, 1.0, 0.0))


def test_alpha_expansion_descends_to_planted_optimum():
    rng = np.random.default_rng(5)
    inst = small_guarded_instance(rng)
    q = build_objective(inst)
    Z0 = np.full((inst.T, inst.n), inst.k)
    x0 = encode_one_hot(Z0, inst.T, inst.n, inst.k)
    res = alpha_expansion(inst, q, x0, batch_size=4, seed=0)
    Z = decode_one_hot(res.best, inst.T, inst.n, inst.k)
    best_states = np.argmin(inst.c[0], axis=1) + 1
    assert np.array_equal(Z, np.tile(best_states, (inst.T, 1)))
    expected = inst.c[0].min(axis=1).sum() * inst.T - inst.T * inst.n
    assert res.score == pytest.approx(expected, rel=1e-9)


def test_alpha_expansion_keeps_iterates_feasible():
    rng = np.random.default_rng(6)
    inst = random_instance(rng, T=4, n=3, k=4, L=2)
    q = build_objective(inst)
    Z0 = np.ones((inst.T, inst.n), dtype=int)
    x0 = encode_one_hot(Z0, inst.T, inst.n, inst.k)
    res = alpha_expansion(inst, q, x0, batch_size=6, seed=1)
    Z = decode_one_hot(res.best, inst.T, inst.n, inst.k)  # raises if broken
    assert first_adjacency_violation(Z) is None
    scores = [s for _, s in res.trace]
    assert all(b <= a + 1e-9 for a, b in zip(scores, scores[1:]))
    assert res.score == pytest.approx(q.evaluate(res.best))


def test_alpha_expansion_zero_budget_returns_start():
    rng = np.random.default_rng(7)
    inst = random_instance(rng, T=2, n=2, k=3, L=1)
    q = build_objective(inst)
    Z0 = np.full((inst.T, inst.n), 2)
    x0 = encode_one_hot(Z0, inst.T, inst.n, inst.k)
    res = alpha_expansion(inst, q, x0, budget=Budget(max_iterations=0))
    assert res.best.tolist() == x0.tolist()
    assert res.score == pytest.approx(q.evaluate(x0))


@pytest.mark.parametrize("objective", ["no-record", "pickled", "other-layout"])
def test_alpha_expansion_rejects_a_qubo_without_its_record(objective):
    # moves are scored from the record alone: a Qubo without one, and one
    # whose record describes another (n, k) at the same dim, are refused
    rng = np.random.default_rng(13)
    inst = random_instance(rng, T=2, n=3, k=2, L=1)
    q = build_objective(inst)
    q = {"no-record": lambda: q.with_factored(None),
         "pickled": lambda: pickle.loads(pickle.dumps(q)),
         "other-layout": lambda: build_objective(
             random_instance(rng, T=3, n=2, k=2, L=1))}[objective]()
    x0 = encode_one_hot(np.ones((inst.T, inst.n), dtype=int),
                        inst.T, inst.n, inst.k)
    with pytest.raises(ValueError, match="no factored record"):
        alpha_expansion(inst, q, x0, seed=3)


def test_alpha_expansion_reads_no_score_from_the_qubo(monkeypatch):
    # alpha scores moves, the start and the result from the record, and
    # reads nothing else from the Qubo
    rng = np.random.default_rng(14)
    inst = random_instance(rng, T=3, n=2, k=3, L=2)
    q = composed_objective(inst)
    evaluate = Qubo.evaluate

    def guarded(self, x):
        assert self is not q, "alpha scored a vector on the full Qubo"
        return evaluate(self, x)

    monkeypatch.setattr(Qubo, "evaluate", guarded)
    x0 = encode_one_hot(np.ones((inst.T, inst.n), dtype=int),
                        inst.T, inst.n, inst.k)
    res = alpha_expansion(inst, q, x0, seed=2)
    assert res.score == pytest.approx(evaluate(q, res.best), rel=1e-12)


def test_alpha_expansion_rejects_infeasible_start():
    rng = np.random.default_rng(8)
    inst = random_instance(rng, T=3, n=2, k=3, L=1)
    q = build_objective(inst)
    with pytest.raises(InfeasibleStartError):
        alpha_expansion(inst, q, np.zeros(inst.dim, dtype=np.int8))
    Z_jump = np.ones((inst.T, inst.n), dtype=int)
    Z_jump[1, 0] = 3  # jumps two states between rows 0 and 1
    x_jump = encode_one_hot(Z_jump, inst.T, inst.n, inst.k)
    with pytest.raises(InfeasibleStartError):
        alpha_expansion(inst, q, x_jump)


@pytest.mark.parametrize("batch_size", [0, -3])
def test_alpha_expansion_rejects_empty_batches(batch_size):
    # a batch of zero moves would never drain the proposal pool
    rng = np.random.default_rng(7)
    inst = random_instance(rng, T=2, n=2, k=3, L=1)
    x0 = encode_one_hot(np.ones((inst.T, inst.n), dtype=int),
                        inst.T, inst.n, inst.k)
    with pytest.raises(ValueError, match="batch_size"):
        alpha_expansion(inst, build_objective(inst), x0, batch_size=batch_size)


@pytest.mark.parametrize("kwargs", [
    {"batch_size": 2.5}, {"batch_size": 12.0}, {"seed": -1}, {"seed": 2.5},
    {"seed": float("nan")},
])
def test_alpha_expansion_takes_integer_batch_sizes_and_seeds(kwargs):
    # these used to fail inside numpy, with a TypeError for the floats
    rng = np.random.default_rng(7)
    inst = random_instance(rng, T=2, n=2, k=3, L=1)
    x0 = encode_one_hot(np.ones((inst.T, inst.n), dtype=int),
                        inst.T, inst.n, inst.k)
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        alpha_expansion(inst, build_objective(inst), x0, **kwargs)


def test_alpha_expansion_deterministic_and_stops_after_idle_epoch():
    rng = np.random.default_rng(9)
    inst = random_instance(rng, T=3, n=2, k=3, L=2)
    q = build_objective(inst)
    Z0 = np.full((inst.T, inst.n), 2)
    x0 = encode_one_hot(Z0, inst.T, inst.n, inst.k)
    a = alpha_expansion(inst, q, x0, seed=12)
    b = alpha_expansion(inst, q, x0, seed=12)
    assert a.best.tolist() == b.best.tolist()
    assert a.score == b.score
    # an epoch that accepts nothing ends the run long before the default
    # 1,000 epochs, so a budget of 2,000 runs the same steps
    c = alpha_expansion(inst, q, x0, seed=12,
                        budget=Budget(max_iterations=2000))
    assert c.best.tolist() == a.best.tolist()
    assert (c.score, c.trace, c.iterations) == (a.score, a.trace, a.iterations)


def test_alpha_expansion_matches_brute_force_on_feasible_set():
    rng = np.random.default_rng(10)
    for trial in range(5):
        inst = random_instance(rng, T=2, n=2, k=3, L=2)
        q = build_objective(inst)
        # exhaustive search over adjacency-feasible schedules
        best = np.inf
        for states in itertools.product(range(1, inst.k + 1),
                                        repeat=inst.T * inst.n):
            Z = np.array(states).reshape(inst.T, inst.n)
            if first_adjacency_violation(Z) is not None:
                continue
            best = min(best, q.evaluate(encode_one_hot(Z, inst.T, inst.n, inst.k)))
        starts = [np.full((inst.T, inst.n), 1), np.full((inst.T, inst.n), inst.k)]
        reached = min(
            alpha_expansion(
                inst, q, encode_one_hot(Z0, inst.T, inst.n, inst.k),
                batch_size=4, seed=s).score
            for s, Z0 in enumerate(starts))
        # local search from two corners should land on the global optimum
        # for these tiny landscapes
        assert reached == pytest.approx(best, rel=1e-6, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), k=st.integers(2, 4), T=st.integers(1, 4),
       L=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       batch_size=st.integers(1, 6))
def test_alpha_output_feasible_and_trace_never_rises(n, k, T, L, seed,
                                                     batch_size):
    inst, _ = synth_instance(n, k, T, L, seed=seed)
    q = build_objective(inst)
    Z0 = random_feasible_schedule(np.random.default_rng(seed), T, n, k)
    res = alpha_expansion(inst, q, encode_one_hot(Z0, T, n, k),
                          batch_size=batch_size, seed=seed,
                          budget=Budget(max_iterations=5))
    Z = decode_one_hot(res.best, T, n, k)  # raises unless one-hot
    assert first_adjacency_violation(Z) is None
    scores = [s for _, s in res.trace]
    assert all(b < a for a, b in zip(scores, scores[1:]))
    # the summed move-QUBO deltas land on the exact score of the result
    assert abs(scores[-1] - res.score) <= 1e-9 * (1.0 + abs(res.score))


def test_alpha_solves_batches_above_20_moves_by_tabu(monkeypatch):
    # brute force takes batches of up to 20 moves; larger ones go to tabu
    sizes = []

    def counted(req):
        sizes.append(req.qubo.dim)
        return tabu_search(req)

    monkeypatch.setattr(alphaexp, "tabu_search", counted)
    inst, _ = synth_instance(24, 3, 4, 2, seed=0)
    x0 = encode_one_hot(np.ones((inst.T, inst.n), dtype=int),
                        inst.T, inst.n, inst.k)
    res = alpha_expansion(inst, build_objective(inst), x0, batch_size=32,
                          seed=0, budget=Budget(max_iterations=3))
    assert sizes and min(sizes) > 20
    Z = decode_one_hot(res.best, inst.T, inst.n, inst.k)
    assert first_adjacency_violation(Z) is None
    scores = [s for _, s in res.trace]
    assert all(b < a for a, b in zip(scores, scores[1:]))
    assert abs(scores[-1] - res.score) <= 1e-9 * (1.0 + abs(res.score))


@settings(max_examples=150, deadline=None)
@example(T=1, n=2, k=2, L=1, seed=0, objective="normalized", repeat=False,
         batch_size=1)
@example(T=1, n=2, k=3, L=2, seed=0, objective="plain", repeat=False,
         batch_size=1)
@given(T=st.integers(1, 3), n=st.integers(1, 3), k=st.integers(2, 4),
       L=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       objective=st.sampled_from(["plain", "normalized", "composed"]),
       repeat=st.booleans(), batch_size=st.integers(1, 20))
def test_alpha_result_is_one_optimal(T, n, k, L, seed, objective, repeat,
                                     batch_size):
    # alpha ends on an epoch that proposed every change and took none, so
    # no single rectified change lowers the true score; Qubo.evaluate, not
    # the move scorer, gives each delta
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, T=T, n=n, k=k, L=L)
    if repeat and k > 2:
        # two equal levels below the top one, as in the exactness property
        p = inst.p.copy()
        i = int(rng.integers(k - 2))
        p[:, i + 1] = p[:, i]
        inst = dataclasses.replace(inst, p=p)
    q = {"plain": lambda: build_objective(inst),
         "normalized": lambda: build_objective(inst, score_normalized=True),
         "composed": lambda: composed_objective(inst)}[objective]()
    Z0 = random_feasible_schedule(rng, T, n, k)
    res = alpha_expansion(inst, q, encode_one_hot(Z0, T, n, k),
                          batch_size=batch_size, seed=seed,
                          budget=Budget(max_iterations=10**6))
    Z = decode_one_hot(res.best, T, n, k)
    score = q.evaluate(res.best)
    for change in _enumerate_members(T, n, k):
        if Z[change.t, change.j] != change.i_new:
            moved = apply_cycle(rectify(Z, change, k), res.best)
            assert q.evaluate(moved) - score >= -1e-9 * (1.0 + abs(score))
