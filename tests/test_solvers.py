"""Sampler tests against exhaustive enumeration oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redispatch.alphaexp import alpha_expansion
from redispatch.data import synth_instance
from redispatch.decomposers import DecomposeConfig, decompose_loop
from redispatch.encodings import build_objective
from redispatch.model import encode_one_hot
from redispatch.qubo import Qubo
from redispatch.solvers import (
    BRUTE_FORCE_LIMIT,
    Budget,
    SolveRequest,
    TooLargeError,
    _SMALL_DIM,
    _Walk,
    _all_deltas,
    _tabu_on_arrays,
    _tabu_on_lists,
    brute_force,
    simulated_annealing,
    tabu_search,
    write_trace_csv,
)


def random_qubo(rng, dim, density=0.5):
    rows, cols, vals = [], [], []
    for i in range(dim):
        rows.append(i)
        cols.append(i)
        vals.append(rng.normal())
        for j in range(i + 1, dim):
            if rng.random() < density:
                rows.append(i)
                cols.append(j)
                vals.append(rng.normal())
    return Qubo(dim, rows, cols, vals, offset=rng.normal())


def enumerate_minimum(q):
    """Independent oracle: walk every vector in integer order, keep first min."""
    best_v, best_score = None, np.inf
    for v in range(1 << q.dim):
        x = np.array([(v >> b) & 1 for b in range(q.dim)], dtype=np.int8)
        s = q.evaluate(x)
        if s < best_score - 1e-15:
            best_v, best_score = v, s
    x = np.array([(best_v >> b) & 1 for b in range(q.dim)], dtype=np.int8)
    return x, best_score


def test_brute_force_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(10):
        dim = int(rng.integers(1, 11))
        q = random_qubo(rng, dim)
        res = brute_force(SolveRequest(qubo=q))
        x, score = enumerate_minimum(q)
        assert res.score == pytest.approx(score, rel=1e-12, abs=1e-12)
        assert res.best.tolist() == x.tolist()
        assert res.score == pytest.approx(q.evaluate(res.best))


def test_brute_force_tie_break_prefers_smallest_integer():
    # two-variable landscape where 00 and 11 tie at 0 below 10/01 at 1
    q = Qubo(2, [0, 1, 0], [0, 1, 1], [1.0, 1.0, -2.0])
    res = brute_force(SolveRequest(qubo=q))
    assert res.best.tolist() == [0, 0]


def evaluate_many_minimum(q):
    """Reference: evaluate_many over every vector in integer order, first min."""
    scores = np.concatenate([
        q.evaluate_many(((np.arange(start, min(start + 4096, 1 << q.dim))[:, None]
                          >> np.arange(q.dim)) & 1).astype(np.int8))
        for start in range(0, 1 << q.dim, 4096)])
    v = int(np.argmin(scores))
    return [(v >> b) & 1 for b in range(q.dim)], scores[v]


# small integers tie often; the fractions, over 20 or more terms, make the
# order of addition visible in the last bits
@st.composite
def tie_prone_qubos(draw):
    dim = draw(st.sampled_from([*range(14), 17]))
    value = st.sampled_from([-2.0, -1.0, -0.7, -0.1, 0.2, 0.3, 1.0, 2.0])
    index = st.integers(0, max(dim - 1, 0))
    terms = draw(st.lists(st.tuples(index, index, value),
                          min_size=20 if dim else 0, max_size=60 if dim else 0))
    return Qubo(dim, [i for i, _, _ in terms], [j for _, j, _ in terms],
                [v for _, _, v in terms],
                draw(st.sampled_from([0.0, -0.0, 0.5])))


@settings(max_examples=60, deadline=None)
@given(q=tie_prone_qubos())
def test_brute_force_equals_evaluate_many_enumeration(q):
    # dim 17 runs two chunks with the high bit held constant
    res = brute_force(SolveRequest(qubo=q))
    best, score = evaluate_many_minimum(q)
    assert res.best.tolist() == best
    assert res.score == score


def test_brute_force_rejects_large_problems():
    q = Qubo(BRUTE_FORCE_LIMIT + 1, [0], [0], [1.0])
    with pytest.raises(TooLargeError):
        brute_force(SolveRequest(qubo=q))


def test_brute_force_empty_objective():
    q = Qubo(3, offset=2.5)
    res = brute_force(SolveRequest(qubo=q))
    assert res.score == 2.5
    assert res.best.tolist() == [0, 0, 0]


def assert_deltas_are_flip_differences(q, x, deltas):
    for j in range(q.dim):
        y = x.copy()
        y[j] ^= 1
        assert deltas[j] == pytest.approx(
            q.evaluate(y) - q.evaluate(x), rel=1e-10, abs=1e-10)


def test_incremental_delta_equals_evaluate_difference():
    rng = np.random.default_rng(1)
    q = random_qubo(rng, 12)
    for _ in range(50):
        x = rng.integers(0, 2, 12)
        assert_deltas_are_flip_differences(q, x, _all_deltas(q, x))


def test_flip_chain_stays_consistent():
    # ten thousand maintained-delta flips never drift from exact evaluation,
    # and each maintained delta stays the score change of its flip
    rng = np.random.default_rng(2)
    q = random_qubo(rng, 20)
    walk = _Walk(SolveRequest(qubo=q, initial=rng.integers(0, 2, 20)))
    assert_deltas_are_flip_differences(q, walk.x, walk.deltas)
    assert np.array_equal(walk.sign, 1 - 2 * walk.x)
    for it in range(1, 10_001):
        walk.flip(int(rng.integers(20)), it)
        if it % 2500 == 0:
            assert_deltas_are_flip_differences(q, walk.x, walk.deltas)
            assert np.array_equal(walk.sign, 1 - 2 * walk.x)
    assert walk.score == pytest.approx(q.evaluate(walk.x), rel=1e-9, abs=1e-9)
    assert np.allclose(walk.deltas, _all_deltas(q, walk.x), atol=1e-9)


def test_tabu_reaches_optimum_on_small_instances():
    rng = np.random.default_rng(3)
    for trial in range(10):
        q = random_qubo(rng, 10)
        _, opt = enumerate_minimum(q)
        res = tabu_search(SolveRequest(
            qubo=q, seed=trial, budget=Budget(max_iterations=2000)))
        assert res.score == pytest.approx(opt, rel=1e-9, abs=1e-9)


def test_tabu_deterministic_given_seed():
    rng = np.random.default_rng(4)
    q = random_qubo(rng, 30)
    a = tabu_search(SolveRequest(qubo=q, seed=7, budget=Budget(max_iterations=500)))
    b = tabu_search(SolveRequest(qubo=q, seed=7, budget=Budget(max_iterations=500)))
    assert a.score == b.score
    assert a.best.tolist() == b.best.tolist()
    c = tabu_search(SolveRequest(qubo=q, seed=8, budget=Budget(max_iterations=500)))
    assert c.best.shape == a.best.shape  # different seed still well formed


def test_tabu_never_worse_than_start():
    rng = np.random.default_rng(5)
    q = random_qubo(rng, 25)
    x0 = rng.integers(0, 2, 25)
    res = tabu_search(SolveRequest(
        qubo=q, initial=x0, seed=0, budget=Budget(max_iterations=300)))
    assert res.score <= q.evaluate(x0) + 1e-12
    assert res.score == pytest.approx(q.evaluate(res.best))


def test_tabu_zero_budget_returns_start():
    rng = np.random.default_rng(6)
    q = random_qubo(rng, 8)
    x0 = rng.integers(0, 2, 8)
    res = tabu_search(SolveRequest(
        qubo=q, initial=x0, budget=Budget(max_iterations=0)))
    assert res.best.tolist() == x0.tolist()
    assert res.iterations == 0


def test_sa_reaches_optimum_on_small_instances():
    rng = np.random.default_rng(7)
    hits = 0
    for trial in range(10):
        q = random_qubo(rng, 10)
        _, opt = enumerate_minimum(q)
        res = simulated_annealing(SolveRequest(
            qubo=q, seed=trial, budget=Budget(max_iterations=20_000)))
        if res.score == pytest.approx(opt, rel=1e-9, abs=1e-9):
            hits += 1
        assert res.score >= opt - 1e-9
    assert hits >= 8  # anneal is stochastic but should almost always land


def test_sa_deterministic_given_seed():
    rng = np.random.default_rng(8)
    q = random_qubo(rng, 30)
    a = simulated_annealing(SolveRequest(qubo=q, seed=3))
    b = simulated_annealing(SolveRequest(qubo=q, seed=3))
    assert a.score == b.score
    assert a.best.tolist() == b.best.tolist()


def test_sa_score_matches_reported_vector():
    rng = np.random.default_rng(9)
    q = random_qubo(rng, 15)
    res = simulated_annealing(SolveRequest(qubo=q, seed=0))
    assert res.score == pytest.approx(q.evaluate(res.best))


def test_trace_monotone_and_csv_layout(tmp_path):
    rng = np.random.default_rng(10)
    q = random_qubo(rng, 20)
    res = tabu_search(SolveRequest(
        qubo=q, seed=0, budget=Budget(max_iterations=200)))
    assert len(res.trace) >= 1
    scores = [s for _, s in res.trace]
    assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:]))
    out = tmp_path / "trace.csv"
    write_trace_csv(out, res.trace)
    lines = out.read_text().splitlines()
    assert lines[0] == "iteration,best_score"
    assert len(lines) == len(res.trace) + 1
    first_it, first_score = lines[1].split(",")
    assert int(first_it) == res.trace[0][0]
    assert float(first_score) == pytest.approx(res.trace[0][1])


@pytest.mark.parametrize("kwargs", [
    {"time_limit": float("nan")}, {"time_limit": 0.0}, {"time_limit": -1.0},
    {"max_iterations": -1},
])
def test_budget_rejects_bad_limits(kwargs):
    # a NaN limit used to be accepted and stop every search before its
    # first iteration
    with pytest.raises(ValueError):
        Budget(**kwargs)


@pytest.mark.parametrize("solver", [tabu_search, simulated_annealing])
def test_empty_qubo_returns_its_offset(solver):
    # tabu search used to raise on the empty scan of a dim-0 QUBO
    res = solver(SolveRequest(Qubo(0, offset=1.0),
                              budget=Budget(max_iterations=5)))
    assert res.score == 1.0
    assert res.iterations == 0
    assert res.best.shape == (0,)


def test_time_limit_stops_search():
    rng = np.random.default_rng(11)
    q = random_qubo(rng, 40)
    res = tabu_search(SolveRequest(
        qubo=q, seed=0,
        budget=Budget(max_iterations=10_000_000, time_limit=0.2)))
    assert res.wall_seconds < 5.0
    assert res.iterations < 10_000_000


# ------------------------------------------------- properties of the samplers


@st.composite
def small_qubos(draw):
    dim = draw(st.integers(1, 12))
    unit = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    rows, cols = list(range(dim)), list(range(dim))
    vals = [draw(unit) for _ in range(dim)]
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    if pairs:
        for i, j in draw(st.lists(st.sampled_from(pairs), unique=True)):
            rows.append(i)
            cols.append(j)
            vals.append(draw(unit))
    return Qubo(dim, rows, cols, vals, draw(unit))


def run_sampler(name, q, seed, x0):
    budget = Budget(max_iterations=150)
    if name in ("random", "score"):
        return decompose_loop(q, x0, DecomposeConfig(
            subproblem_size=5, strategy=name, max_steps=6, seed=seed))
    sampler = {"brute": brute_force, "tabu": tabu_search,
               "sa": simulated_annealing}[name]
    return sampler(SolveRequest(qubo=q, initial=x0, seed=seed, budget=budget))


@pytest.mark.parametrize("name", ["brute", "tabu", "sa", "random", "score"])
@settings(max_examples=30, deadline=None)
@given(q=small_qubos(), seed=st.integers(0, 2**31 - 1), data=st.data())
def test_sampler_reports_exact_score_and_monotone_trace(name, q, seed, data):
    x0 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=q.dim,
                                     max_size=q.dim)), dtype=np.int8)
    res = run_sampler(name, q, seed, x0)
    exact = q.evaluate(res.best)
    assert abs(res.score - exact) <= 1e-9 * (1.0 + abs(res.score))
    scores = [s for _, s in res.trace]
    assert all(b <= a for a, b in zip(scores, scores[1:]))
    if name in ("tabu", "sa"):
        again = run_sampler(name, q, seed, x0)
        assert again.best.tolist() == res.best.tolist()
        assert again.score == res.score and again.trace == res.trace


# --------------------------------------- tabu: list kernel against numpy path


def run_tabu_path(path, req):
    """Result of one tabu path plus the walk's final vector, signs and deltas."""
    walk = _Walk(req)
    it = path(walk, req.budget.max_iterations, max(10, req.qubo.dim // 50))
    return walk.result(it), (walk.x.tolist(), walk.sign.tolist(),
                             walk.deltas.tolist())


def assert_same_result(a, b):
    assert a.best.dtype == b.best.dtype == np.int8
    assert a.best.tolist() == b.best.tolist()
    assert a.score == b.score
    assert a.trace == b.trace
    assert a.iterations == b.iterations


def assert_paths_agree(req):
    """List kernel, numpy path and tabu_search give the same bits.

    The final walk state is compared too: best, score and trace stop moving
    after the last improvement, the walk does not.
    """
    reference, walk_state = run_tabu_path(_tabu_on_arrays, req)
    result, list_state = run_tabu_path(_tabu_on_lists, req)
    assert_same_result(result, reference)
    assert list_state == walk_state
    assert_same_result(tabu_search(req), reference)
    return reference


@settings(max_examples=60, deadline=None)
@given(q=small_qubos(), seed=st.integers(0, 2**31 - 1),
       flips=st.integers(0, 300), data=st.data())
def test_tabu_list_kernel_matches_array_path(q, seed, flips, data):
    # dims up to 12 sit at or below the tenure, so runs where every bit is
    # tabu and none aspires take the "released soonest" branch
    x0 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=q.dim,
                                     max_size=q.dim)), dtype=np.int8)
    assert_paths_agree(SolveRequest(qubo=q, initial=x0, seed=seed,
                                    budget=Budget(max_iterations=flips)))


@pytest.mark.parametrize("dim", [8, 40, _SMALL_DIM, _SMALL_DIM + 1])
def test_tabu_list_kernel_matches_array_path_around_cutoff(dim):
    # at dim 8 (below the tenure of 10) most iterations find every bit tabu
    rng = np.random.default_rng(dim)
    q = random_qubo(rng, dim, density=8.0 / dim)
    reference = assert_paths_agree(SolveRequest(
        qubo=q, seed=dim, budget=Budget(max_iterations=400)))
    assert len(reference.trace) > 1  # the runs improved, so traces were compared


@pytest.mark.parametrize("value, at", [(256, 1), (0.5, 1), (257, 0), (1.5, 0),
                                       (2, 0), (-1, 1)])
@pytest.mark.parametrize("entry", ["tabu", "sa", "alpha", "decompose"])
def test_start_values_are_checked_before_the_cast(entry, value, at):
    # an int8 cast reads 256 and 0.5 as 0, 257 and 1.5 as 1: put where a
    # start holds that bit (bit 0 is set, bit 1 clear), each would pass
    inst, _ = synth_instance(2, 3, 2, 1, seed=0)
    q = build_objective(inst)
    x0 = encode_one_hot(np.ones((inst.T, inst.n), dtype=int),
                        inst.T, inst.n, inst.k).astype(float)
    x0[at] = value
    run = {"tabu": lambda: tabu_search(SolveRequest(qubo=q, initial=x0)),
           "sa": lambda: simulated_annealing(SolveRequest(qubo=q, initial=x0)),
           "alpha": lambda: alpha_expansion(inst, q, x0),
           "decompose": lambda: decompose_loop(q, x0, DecomposeConfig())}
    with pytest.raises(ValueError, match="must be a 0/1 vector"):
        run[entry]()
