"""Tests for the clamp-and-solve decomposition baselines."""

import numpy as np
import pytest

from redispatch import decomposers
from redispatch.decomposers import (
    DecomposeConfig,
    decompose_loop,
    random_subproblem,
    score_subproblem,
)
from redispatch.qubo import Qubo
from redispatch.solvers import SolveResult, _all_deltas

from test_solvers import enumerate_minimum, random_qubo


def test_config_validation():
    with pytest.raises(ValueError):
        DecomposeConfig(subproblem_size=0)
    with pytest.raises(ValueError):
        DecomposeConfig(strategy="greedy")
    with pytest.raises(ValueError):
        DecomposeConfig(max_steps=-1)


def test_random_subproblem_clamp_consistency():
    rng = np.random.default_rng(0)
    q = random_qubo(rng, 14)
    x = rng.integers(0, 2, 14)
    sub, remap = random_subproblem(np.random.default_rng(1), q, x, 5)
    assert sub.dim == 5 and remap.shape == (5,)
    # scoring the sub-vector extracted from x reproduces the full score
    assert sub.evaluate(x[remap]) == pytest.approx(q.evaluate(x), rel=1e-12)


def test_score_subproblem_picks_largest_deltas():
    rng = np.random.default_rng(2)
    q = random_qubo(rng, 12)
    x = rng.integers(0, 2, 12)
    sub, remap = score_subproblem(q, x, 4)
    deltas = np.abs(_all_deltas(q, x))
    chosen = set(remap.tolist())
    worst_in = min(deltas[i] for i in chosen)
    best_out = max(deltas[i] for i in range(12) if i not in chosen)
    assert worst_in >= best_out - 1e-12
    assert sub.evaluate(x[remap]) == pytest.approx(q.evaluate(x), rel=1e-12)


def test_score_subproblem_tie_breaks_toward_low_index():
    # identical diagonal, no couplings: every flip delta ties
    q = Qubo(6, range(6), range(6), np.ones(6))
    _, remap = score_subproblem(q, np.zeros(6, dtype=int), 3)
    assert sorted(remap.tolist()) == [0, 1, 2]


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
    assert res.score == pytest.approx(q.evaluate(res.best))


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
