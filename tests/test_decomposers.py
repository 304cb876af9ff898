"""Tests for the clamp-and-solve decomposition baselines."""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redispatch import decomposers, qubo as qubo_mod, solvers
from redispatch.data import build_instance, load_network, write_synthetic_network
from redispatch.decomposers import (
    DecomposeConfig,
    decompose_loop,
    random_subproblem,
    score_subproblem,
)
from redispatch.experiments import composed_objective
from redispatch.model import encode_one_hot
from redispatch.qubo import Qubo, round_to_grid
from redispatch.solvers import (
    Budget,
    SolveResult,
    _SMALL_DIM,
    _all_deltas,
    _tabu_on_free_bits,
)

from oracles import clamped_tabu
from test_solvers import enumerate_minimum, integer_qubo, random_qubo


@pytest.fixture(scope="module")
def desk_l(tmp_path_factory):
    """The desk objective at the L preset (network and instance seed 0,
    dim 560) and the all-state-1 start of the decomposers study."""
    net = write_synthetic_network(tmp_path_factory.mktemp("desk") / "net",
                                  12, 20, 16, n_fixed=6, seed=0)
    inst = build_instance(load_network(net), T=8, k=5, seed=0,
                          promote_statics=True)
    x0 = encode_one_hot(np.ones((inst.T, inst.n), dtype=int),
                        inst.T, inst.n, inst.k)
    return composed_objective(inst), x0


def test_config_validation():
    with pytest.raises(ValueError):
        DecomposeConfig(subproblem_size=0)
    with pytest.raises(ValueError):
        DecomposeConfig(strategy="greedy")
    with pytest.raises(ValueError):
        DecomposeConfig(max_steps=-1)
    # a non-positive or NaN limit used to end the loop before its first step
    for limit in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            DecomposeConfig(time_limit=limit)


@pytest.mark.parametrize("kwargs", [
    {"max_steps": 2.5}, {"max_steps": float("nan")},
    {"max_steps": float("inf")}, {"subproblem_size": 2.5},
    {"subproblem_size": 40.0}, {"seed": -1}, {"seed": 0.5}, {"seed": "1"},
])
def test_config_takes_integers_only(kwargs):
    # at construction: max_steps=2.5 used to run 3 steps and nan none,
    # subproblem_size=2.5 failed in numpy, seed=-1 in the first step
    with pytest.raises(ValueError):
        DecomposeConfig(**kwargs)


def test_random_subproblem_clamp_consistency():
    rng = np.random.default_rng(0)
    q = random_qubo(rng, 14)
    x = rng.integers(0, 2, 14)
    free = random_subproblem(np.random.default_rng(1), q.dim, 5)
    # the draw of rng.choice, sorted: the order clamp gives its free bits
    drawn = np.random.default_rng(1).choice(14, size=5, replace=False)
    assert free.tolist() == sorted(drawn.tolist())
    sub, remap = q.clamp(x, free)
    assert sub.dim == 5 and remap.tolist() == free.tolist()
    # scoring the sub-vector extracted from x reproduces the full score
    assert sub.evaluate(x[remap]) == pytest.approx(q.evaluate(x), rel=1e-12)
    assert random_subproblem(rng, 14, 20).tolist() == list(range(14))


def test_score_subproblem_picks_largest_deltas():
    rng = np.random.default_rng(2)
    q = random_qubo(rng, 12)
    x = rng.integers(0, 2, 12)
    free = score_subproblem(q, x, 4)
    assert free.tolist() == sorted(set(free.tolist())) and free.size == 4
    deltas = np.abs(_all_deltas(q, x))
    chosen = set(free.tolist())
    worst_in = min(deltas[i] for i in chosen)
    best_out = max(deltas[i] for i in range(12) if i not in chosen)
    assert worst_in >= best_out - 1e-12


def test_score_subproblem_tie_breaks_toward_low_index():
    # identical diagonal, no couplings: every flip delta ties
    q = Qubo(6, range(6), range(6), np.ones(6))
    assert score_subproblem(q, np.zeros(6, dtype=int), 3).tolist() == [0, 1, 2]


def test_full_size_subproblem_is_exact_solve():
    rng = np.random.default_rng(3)
    q = random_qubo(rng, 10)
    x0 = rng.integers(0, 2, 10)
    _, opt = enumerate_minimum(q)
    for strategy in ("random", "score"):
        res = decompose_loop(q, x0, DecomposeConfig(
            subproblem_size=10, strategy=strategy, max_steps=1))
        assert res.score == pytest.approx(opt, rel=1e-12, abs=1e-12)


def test_separable_problem_random_strategy_converges():
    # purely diagonal objective: the optimum flips exactly the negative terms
    rng = np.random.default_rng(4)
    diag = rng.normal(size=30)
    q = Qubo(30, range(30), range(30), diag)
    x0 = np.zeros(30, dtype=int)
    res = decompose_loop(q, x0, DecomposeConfig(
        subproblem_size=6, strategy="random", max_steps=40, seed=5))
    assert res.score == pytest.approx(diag[diag < 0].sum(), rel=1e-12)


def test_separable_problem_score_strategy_optimizes_top_block():
    # on a diagonal objective the flip magnitudes never change, so the
    # greedy impact ranking keeps re-picking the same block; the guarantee
    # is optimality over that block, not global convergence
    rng = np.random.default_rng(4)
    diag = rng.normal(size=30)
    q = Qubo(30, range(30), range(30), diag)
    x0 = np.zeros(30, dtype=int)
    res = decompose_loop(q, x0, DecomposeConfig(
        subproblem_size=6, strategy="score", max_steps=40))
    top6 = np.argsort(-np.abs(diag), kind="stable")[:6]
    expected = diag[top6][diag[top6] < 0].sum()
    assert res.score == pytest.approx(expected, rel=1e-12)
    untouched = np.ones(30, dtype=bool)
    untouched[top6] = False
    assert not res.best[untouched].any()


def test_scores_never_increase_and_merge_is_consistent():
    rng = np.random.default_rng(6)
    q = random_qubo(rng, 40)
    x0 = rng.integers(0, 2, 40)
    res = decompose_loop(q, x0, DecomposeConfig(
        subproblem_size=12, strategy="random", max_steps=25, seed=7))
    scores = [s for _, s in res.trace]
    assert scores[0] == pytest.approx(q.evaluate(x0))
    assert all(b < a for a, b in zip(scores, scores[1:]))
    assert res.score <= scores[0] + 1e-12
    assert res.score == q.evaluate(res.best)  # the caller's objective, exactly


def test_decompose_deterministic():
    rng = np.random.default_rng(8)
    q = random_qubo(rng, 35)
    x0 = rng.integers(0, 2, 35)
    cfg = DecomposeConfig(subproblem_size=10, strategy="random",
                          max_steps=15, seed=9)
    a = decompose_loop(q, x0, cfg)
    b = decompose_loop(q, x0, cfg)
    assert a.best.tolist() == b.best.tolist()
    assert a.score == b.score


def test_zero_steps_returns_start():
    rng = np.random.default_rng(10)
    q = random_qubo(rng, 8)
    x0 = rng.integers(0, 2, 8)
    res = decompose_loop(q, x0, DecomposeConfig(max_steps=0))
    assert res.best.tolist() == x0.tolist()
    assert res.iterations == 0


def test_zero_gain_move_merges_a_few_ulps_above(monkeypatch):
    # at |score| ~ 1.7e5 one ulp is ~3e-11, far above an absolute 1e-12
    q = Qubo(2, [0, 1], [0, 1], [1.0, 1.0], offset=-1.7e5)
    x0, other = np.array([1, 0]), np.array([0, 1])
    assert q.evaluate(x0) == q.evaluate(other)
    rounded_up = q.evaluate(x0)
    for _ in range(3):
        rounded_up = float(np.nextafter(rounded_up, np.inf))

    def sub_solver(req):
        return SolveResult(best=other.astype(np.int8), score=rounded_up,
                           iterations=1, wall_seconds=0.0,
                           trace=[(0, rounded_up)])

    monkeypatch.setattr(decomposers, "brute_force", sub_solver)
    res = decompose_loop(q, x0, DecomposeConfig(subproblem_size=2,
                                                max_steps=1))
    assert res.best.tolist() == other.tolist()
    assert res.score == q.evaluate(x0)


# (best bits, score) of the score strategy at max_steps=30, recorded before
# it stopped early; random_qubo(default_rng(seed), 40), x0 drawn next.
SCORE_STRATEGY_REFERENCE = {
    0: ("1101000101101100011111111110110000001011", -44.0093286027266),
    2: ("1000011111100001100001010000100010001011", -26.123915776277975),
}


@pytest.mark.parametrize("seed", sorted(SCORE_STRATEGY_REFERENCE))
def test_score_strategy_stops_once_it_stalls(seed):
    rng = np.random.default_rng(seed)
    q = random_qubo(rng, 40)
    x0 = rng.integers(0, 2, 40)
    res = decompose_loop(q, x0, DecomposeConfig(
        subproblem_size=12, strategy="score", max_steps=30))
    bits, score = SCORE_STRATEGY_REFERENCE[seed]
    assert "".join(map(str, res.best.tolist())) == bits
    assert res.score == score
    assert res.iterations < 30
    # the last step is a fixed point: selecting and solving again keeps x
    again = decompose_loop(q, res.best, DecomposeConfig(
        subproblem_size=12, strategy="score", max_steps=30))
    assert again.iterations == 1
    assert again.best.tolist() == res.best.tolist()


@pytest.mark.parametrize("seed", [0, 1])
def test_trace_logs_only_true_improvements(desk_l, seed):
    # sub-solves used to score with their own rounding, and a hair-lower
    # score of an unchanged schedule was logged as a step: the pinned
    # solve-random-decomp trace had five rows printing the score before them
    q, x0 = desk_l
    res = decompose_loop(q, x0, DecomposeConfig(subproblem_size=40,
                                                max_steps=20, seed=seed))
    scores = [s for _, s in res.trace]
    assert len(scores) > 2
    assert all(b < a for a, b in zip(scores, scores[1:]))
    assert scores[-1] == round_to_grid(q).evaluate(res.best)  # bit for bit
    assert res.score == q.evaluate(res.best)


def test_desk_sub_walks_skip_repeated_periods(desk_l, monkeypatch):
    # on the grid a tabu sub-walk back in a state repeats it bit for bit, and
    # the list kernel jumps over its periods.  Under a finite deadline the
    # kernel reads the clock once a walked flip: without the grid, rounding
    # drift in the deltas left about 60-90% of the flips walked
    q, x0 = desk_l
    ticks = []

    def monotonic():
        ticks.append(None)
        return time.monotonic()

    monkeypatch.setattr(solvers, "time", SimpleNamespace(monotonic=monotonic))
    monkeypatch.setattr(decomposers, "Budget", lambda max_iterations: Budget(
        max_iterations, time_limit=3600.0))
    steps = 20
    res = decompose_loop(q, x0, DecomposeConfig(subproblem_size=40,
                                                max_steps=steps, seed=1))
    assert res.iterations == steps
    assert 0 < len(ticks) < 0.25 * steps * 2000


# ------------------------------- tabu steps straight from the coupling lists


def assert_same_sub_walk(grid, x, free, budget):
    """_tabu_on_free_bits gives the bits of tabu_search on the built clamp."""
    result = _tabu_on_free_bits(grid.adjacency(), x, free, grid.evaluate(x),
                                budget)
    reference = clamped_tabu(grid, x, free, budget)
    assert result.best.dtype == reference.best.dtype == np.int8
    assert result.best.tolist() == reference.best.tolist()
    assert result.score.hex() == reference.score.hex()
    assert result.iterations == reference.iterations
    assert result.trace == reference.trace
    return result


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(17, 60), density=st.sampled_from([0.05, 0.3, 1.0]),
       ties=st.booleans(), seed=st.integers(0, 2**32 - 1),
       flips=st.integers(0, 800), data=st.data())
def test_tabu_on_free_bits_matches_tabu_on_the_clamp(dim, density, ties, seed,
                                                      flips, data):
    # integer weights tie often, so walks repeat states and skip periods
    q = (integer_qubo(seed, dim, density) if ties else
         random_qubo(np.random.default_rng(seed), dim, density))
    rng = np.random.default_rng(seed + 1)
    x = rng.integers(0, 2, dim).astype(np.int8)
    size = data.draw(st.integers(17, dim))
    free = np.sort(rng.choice(dim, size=size, replace=False))
    assert_same_sub_walk(round_to_grid(q), x, free,
                         Budget(max_iterations=flips))


def test_tabu_on_free_bits_above_small_dim_matches_the_array_path(desk_l):
    # tabu_search walks a clamp of more than _SMALL_DIM bits by numpy arrays;
    # on the grid the list kernel gives the same bits
    q, x0 = desk_l
    rng = np.random.default_rng(5)
    free = np.sort(rng.choice(q.dim, size=_SMALL_DIM + 40, replace=False))
    result = assert_same_sub_walk(round_to_grid(q), x0, free,
                                  Budget(max_iterations=2000))
    assert len(result.trace) > 2


def test_tabu_steps_build_no_sub_qubo(desk_l, monkeypatch):
    # above 16 free bits a step neither clamps nor re-grids: the loop grids
    # the objective once; exhaustive steps still clamp, once each
    q, x0 = desk_l
    calls = {"clamp": 0, "round_to_grid": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qubo_mod.Qubo, "clamp",
                        counted("clamp", qubo_mod.Qubo.clamp))
    for module in (decomposers, solvers):
        monkeypatch.setattr(module, "round_to_grid",
                            counted("round_to_grid", round_to_grid))
    steps = 20
    res = decompose_loop(q, x0, DecomposeConfig(subproblem_size=40,
                                                max_steps=steps, seed=1))
    assert res.iterations == steps and len(res.trace) > 2
    assert calls == {"clamp": 0, "round_to_grid": 1}
    decompose_loop(q, x0, DecomposeConfig(subproblem_size=12,
                                          max_steps=steps, seed=1))
    assert calls == {"clamp": steps, "round_to_grid": 2}


def test_exhaustive_steps_clamp_the_grid(desk_l):
    # a brute-force step scores the clamp of the gridded objective, so its
    # improvements are exact too
    q, x0 = desk_l
    res = decompose_loop(q, x0, DecomposeConfig(subproblem_size=12,
                                                max_steps=20, seed=0))
    scores = [s for _, s in res.trace]
    assert len(scores) > 1
    assert all(b < a for a, b in zip(scores, scores[1:]))
    assert scores[-1] == round_to_grid(q).evaluate(res.best)  # bit for bit
