"""Sampler tests against exhaustive enumeration oracles."""

import itertools
import time
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from redispatch import experiments, solvers
from redispatch.alphaexp import alpha_expansion
from redispatch.data import (
    load_network,
    synth_instance,
    write_synthetic_network,
)
from redispatch.decomposers import DecomposeConfig, decompose_loop
from redispatch.encodings import build_objective
from redispatch.model import encode_one_hot
from redispatch.qubo import Qubo, round_to_grid
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
# order of addition visible in the last bits.  Dims 0-16 take every split
# into halves, 17 runs two blocks of 2^16 vectors
@st.composite
def tie_prone_qubos(draw):
    dim = draw(st.sampled_from(range(18)))
    value = st.sampled_from([-2.0, -1.0, -0.7, -0.1, 0.2, 0.3, 1.0, 2.0])
    index = st.integers(0, max(dim - 1, 0))
    terms = draw(st.lists(st.tuples(index, index, value),
                          min_size=20 if dim else 0, max_size=60 if dim else 0))
    return Qubo(dim, [i for i, _, _ in terms], [j for _, j, _ in terms],
                [v for _, _, v in terms],
                draw(st.sampled_from([0.0, -0.0, 0.5])))


@settings(max_examples=60, deadline=None)
# by halves 25 = 0b11001 scores just below -1.0 and 9 = 0b01001 -1.0; in
# evaluate_many's order both score -1.0, and 9 comes first
@example(q=Qubo(5, [0, 0, 1, 3, 4], [3, 4, 1, 4, 4],
                [-1.0, -1.7, 2.0, -0.3, 2.0]))
@given(q=tie_prone_qubos())
def test_brute_force_equals_evaluate_many_enumeration(q):
    res = brute_force(SolveRequest(qubo=q))
    best, score = evaluate_many_minimum(q)
    assert res.best.tolist() == best
    assert res.score == score


def test_brute_force_rescores_every_vector_when_sums_overflow():
    # terms near 1e308: some sums overflow to +-inf, so no rounding bound
    # holds and every vector is rescored, a slice at a time rather than as
    # one 2^16 x terms table (about 25 MB here)
    rng = np.random.default_rng(3)
    dim = 17
    pick = rng.permutation(dim * (dim + 1) // 2)[:40]  # distinct keys
    rows, cols = np.triu_indices(dim)
    q = Qubo(dim, rows[pick], cols[pick], rng.uniform(-1.6, 1.6, 40) * 1e308)
    tracemalloc.start()
    try:
        with np.errstate(over="ignore"):
            res = brute_force(SolveRequest(qubo=q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with np.errstate(over="ignore"):
        best, score = evaluate_many_minimum(q)
    assert res.score == score == -np.inf
    assert res.best.tolist() == best
    assert sum(b << i for i, b in enumerate(best)) == 288
    assert peak < 12e6


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
    {"max_iterations": -1}, {"max_iterations": float("nan")},
    {"max_iterations": float("inf")}, {"max_iterations": 2.5},
    {"max_iterations": 2000.0}, {"max_iterations": "2000"},
])
def test_budget_rejects_bad_limits(kwargs):
    # a NaN limit used to be accepted and stop every search before its
    # first iteration; max_iterations=nan gave tabu 0 flips but annealing
    # 1,000 sweeps, and inf let tabu walk until its walk cycled
    with pytest.raises(ValueError):
        Budget(**kwargs)


@pytest.mark.parametrize("seed", [-1, 1.0, 0.5, float("nan"), "3"])
def test_solve_request_takes_non_negative_integer_seeds(seed):
    with pytest.raises(ValueError, match="seed"):
        SolveRequest(qubo=Qubo(1), seed=seed)


def test_numpy_integers_are_integers():
    Budget(max_iterations=np.int64(7))
    SolveRequest(qubo=Qubo(1), seed=np.uint32(3))


@pytest.mark.parametrize("solver", [tabu_search, simulated_annealing])
def test_empty_qubo_returns_its_offset(solver):
    # tabu search used to raise on the empty scan of a dim-0 QUBO
    res = solver(SolveRequest(Qubo(0, offset=1.0),
                              budget=Budget(max_iterations=5)))
    assert res.score == 1.0
    assert res.iterations == 0
    assert res.best.shape == (0,)


def test_time_limit_stops_search():
    # above _SMALL_DIM tabu walks every flip (the array path skips no
    # period), so only the deadline ends this walk
    rng = np.random.default_rng(11)
    q = random_qubo(rng, _SMALL_DIM + 1, density=0.05)
    res = tabu_search(SolveRequest(
        qubo=q, seed=0,
        budget=Budget(max_iterations=10_000_000, time_limit=0.2)))
    assert res.wall_seconds < 5.0
    assert res.iterations < 10_000_000


def test_time_limit_stops_the_list_kernel(monkeypatch):
    # a clock one second on at each read: the walk starts at 0, reads 1..10
    # before the deadline at 10.5 and stops, before the first kept state
    # (iteration 16) could repeat and skip the walk to its limit
    clock = itertools.count()
    monkeypatch.setattr(solvers, "time", SimpleNamespace(
        monotonic=lambda: float(next(clock))))
    req = SolveRequest(qubo=random_qubo(np.random.default_rng(11), 40), seed=0,
                       budget=Budget(10_000_000, time_limit=10.5))
    res = tabu_search(req)
    assert res.iterations == 10
    assert_same_result(res, tabu_search(replace(req, budget=Budget(10))))


def test_overflowing_total_warns_nothing():
    # |1e308| + |-1e308| overflows, no score does; the total only picks a
    # branch (keep q, rescore every vector) and used to print "overflow
    # encountered in reduce"
    q = Qubo(2, [0, 1], [0, 1], [1e308, -1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert round_to_grid(q) is q
        brute = brute_force(SolveRequest(qubo=q))
        tabu = tabu_search(SolveRequest(qubo=q, budget=Budget(50)))
    assert brute.best.tolist() == tabu.best.tolist() == [0, 1]
    assert brute.score == tabu.score == -1e308


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


@settings(max_examples=100, deadline=None)
@given(q=small_qubos(), seed=st.integers(0, 2**31 - 1),
       flips=st.integers(0, 300), data=st.data())
def test_walks_on_a_gridded_qubo_keep_exact_deltas_and_score(q, seed, flips,
                                                             data):
    # tabu's list kernel, then single flips as annealing makes them: on the
    # grid every running delta and score is the exact one of the current
    # vector (equal as numbers; 0.0 == -0.0)
    q = round_to_grid(q)
    walk = _Walk(SolveRequest(qubo=q, seed=seed))
    _tabu_on_lists(walk, flips, 10)
    assert walk.deltas.tolist() == _all_deltas(q, walk.x).tolist()
    assert walk.score == q.evaluate(walk.x)
    moves = data.draw(st.lists(st.integers(0, q.dim - 1), max_size=60))
    for it, i in enumerate(moves, start=flips + 1):
        walk.flip(i, it)
    assert walk.deltas.tolist() == _all_deltas(q, walk.x).tolist()
    assert walk.score == q.evaluate(walk.x)


# --------------------------------------- tabu: list kernel against numpy path


def run_tabu_path(path, req, walked=None):
    """Result of one tabu path walked on `walked` (default req.qubo) and
    scored on req.qubo, plus the walk's final vector, signs and deltas."""
    walk = _Walk(req if walked is None else replace(req, qubo=walked))
    it = path(walk, req.budget.max_iterations, max(10, req.qubo.dim // 50))
    return walk.result(it, req.qubo), (walk.x.tolist(), walk.sign.tolist(),
                                       walk.deltas.tolist())


def assert_same_result(a, b):
    assert a.best.dtype == b.best.dtype == np.int8
    assert a.best.tolist() == b.best.tolist()
    assert a.score == b.score
    assert a.trace == b.trace
    assert a.iterations == b.iterations


def assert_kernels_agree(req, walked=None):
    """List kernel and numpy path, walked as in run_tabu_path, give the same
    bits.

    The final walk state is compared too: best, score and trace stop moving
    after the last improvement, the walk does not.
    """
    reference, walk_state = run_tabu_path(_tabu_on_arrays, req, walked)
    result, list_state = run_tabu_path(_tabu_on_lists, req, walked)
    assert_same_result(result, reference)
    assert list_state == walk_state
    return reference


def assert_paths_agree(req):
    """The kernels agree on req.qubo, and tabu_search gives the bits of the
    kernels on what it walks: round_to_grid(req.qubo) up to _SMALL_DIM (where
    the kernels agree too), req.qubo above.  Returns the kernels' result on
    req.qubo."""
    reference = expected = assert_kernels_agree(req)
    if req.qubo.dim <= _SMALL_DIM:
        expected = assert_kernels_agree(req, round_to_grid(req.qubo))
    assert_same_result(tabu_search(req), expected)
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
    req = SolveRequest(qubo=q, seed=dim, budget=Budget(max_iterations=400))
    reference = assert_paths_agree(req)
    assert len(reference.trace) > 1  # the runs improved, so traces were compared
    if dim > _SMALL_DIM:
        # tabu_search walked q itself, which a walk on the grid would show: a
        # gridded copy of a ladder-sized QUBO would double its memory, and
        # the array path has no period skip for the grid to serve
        gridded, _ = run_tabu_path(_tabu_on_arrays, req, round_to_grid(q))
        assert gridded.trace != reference.trace


def integer_qubo(seed, dim, density):
    """Weights in -5..5: with so many ties a tabu walk soon repeats a state."""
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(dim)
    keep = (rows == cols) | (rng.random(rows.size) < density)
    return Qubo(dim, rows[keep], cols[keep],
                rng.integers(-5, 6, int(keep.sum())).astype(float))


def test_tabu_list_kernel_skips_whole_periods_of_a_repeated_state(monkeypatch):
    seed, ticks = 1, []

    def monotonic():
        ticks.append(None)
        return time.monotonic()

    monkeypatch.setattr(solvers, "time", SimpleNamespace(monotonic=monotonic))
    limit = 1999  # the jump leaves part of a period to walk
    req = SolveRequest(qubo=integer_qubo(seed, 32, 0.2), seed=seed,
                       budget=Budget(max_iterations=limit, time_limit=3600.0))
    walk = _Walk(req)
    ticks.clear()
    assert _tabu_on_lists(walk, limit, 10) == limit
    assert 0 < len(ticks) < limit  # the deadline is read once per walked flip
    assert_paths_agree(req)
    # without a deadline the kernel never reads the clock
    walk = _Walk(SolveRequest(qubo=req.qubo, seed=seed,
                              budget=Budget(max_iterations=limit)))
    ticks.clear()
    _tabu_on_lists(walk, limit, 10)
    assert not ticks


def test_tabu_list_kernel_walks_on_from_a_state_with_a_new_incumbent():
    # at iteration 412 this walk is back at the bits, deltas, score and tabu
    # windows it had at 256, but with the incumbent an aspirated flip found
    # at 273; that flip no longer aspires, so the walk does not repeat
    assert_paths_agree(SolveRequest(qubo=integer_qubo(4, 32, 0.2), seed=4,
                                    budget=Budget(max_iterations=1999)))


# ----------------------------------- tabu on the grid below _SMALL_DIM only


@pytest.fixture(scope="module")
def pnorm_requests(tmp_path_factory):
    """The penalty-norm study's tabu requests at seed 0 (desk network, S
    preset, dim 72): the baseline, then the normalized variant."""
    root = tmp_path_factory.mktemp("pnorm")
    net = write_synthetic_network(root / "net", 12, 20, 16, n_fixed=6, seed=0)
    requests = []

    def record(req):
        requests.append(req)
        return tabu_search(req)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "tabu_search", record)
        experiments.run_penalty_norm(load_network(net),
                                     experiments.ExperimentSettings(seeds=(0,)),
                                     root)
    return requests


@pytest.mark.parametrize("variant", [0, 1], ids=["baseline", "normalized"])
def test_desk_tabu_walks_on_the_grid_and_scores_on_the_qubo(pnorm_requests,
                                                            variant):
    req = pnorm_requests[variant]
    res = tabu_search(req)
    grid = round_to_grid(req.qubo)
    assert res.score == req.qubo.evaluate(res.best)
    assert res.trace[-1][1] == grid.evaluate(res.best)  # bit for bit
    assert res.score != grid.evaluate(res.best)  # the two are told apart


def test_desk_tabu_skips_repeated_periods(pnorm_requests, monkeypatch):
    # under a finite deadline the list kernel reads the clock once a walked
    # flip (and _Walk twice more); off the grid rounding drift in the deltas
    # kept this walk from repeating, and all 4,000 flips were walked
    ticks = []

    def monotonic():
        ticks.append(None)
        return time.monotonic()

    monkeypatch.setattr(solvers, "time", SimpleNamespace(monotonic=monotonic))
    req = replace(pnorm_requests[1], budget=Budget(4000, time_limit=3600.0))
    assert tabu_search(req).iterations == 4000
    assert 0 < len(ticks) < 0.25 * 4000


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
