"""Clamp-and-solve decomposition baselines.

Both strategies pick a subset of variables, clamp the rest at their current
values, solve the reduced QUBO with a small sampler and merge the sub-result
back when that does not worsen the full score.  On the exactly rounded
objective a clamp's numbers are the objective's own, so sub-problems above
16 variables are never built: their tabu walks start from the objective's
coupling lists.  None of this preserves the one-hot structure; infeasible
intermediate vectors are allowed and simply pay the hard-constraint
penalties of the composed objective.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .qubo import InputError, Qubo, _bit_vector, _count, round_to_grid
from .solvers import (
    Budget,
    SolveRequest,
    SolveResult,
    brute_force,
    _all_deltas,
    _tabu_on_free_bits,
)
from .solvers import tabu_search  # noqa: F401 - perfbench/spans.py wraps it here

__all__ = [
    "DecomposeConfig",
    "random_subproblem",
    "score_subproblem",
    "decompose_loop",
]


@dataclass(frozen=True)
class DecomposeConfig:
    """Tuning for decompose_loop.

    subproblem_size bounds the number of free variables per step; strategy is
    "random" or "score".  max_steps and time_limit stop the outer loop.
    subproblem_size, max_steps and seed are integers.
    """

    subproblem_size: int = 50
    strategy: str = "random"
    max_steps: int = 100
    time_limit: float = math.inf
    seed: int = 0

    def __post_init__(self):
        _count(self.subproblem_size, "subproblem_size", 1)
        if self.strategy not in ("random", "score"):
            raise InputError(f"unknown strategy {self.strategy!r}")
        _count(self.max_steps, "max_steps")
        _count(self.seed, "seed")
        if not self.time_limit > 0:  # also rejects NaN
            raise InputError("time_limit must be positive")


def random_subproblem(rng: np.random.Generator, dim: int, size: int) -> np.ndarray:
    """The sorted indices of `size` variables out of dim, chosen uniformly."""
    return np.sort(rng.choice(dim, size=min(size, dim), replace=False))


def score_subproblem(qubo: Qubo, x: np.ndarray, size: int) -> np.ndarray:
    """The sorted indices of the `size` variables with the largest |flip delta|.

    Ties break toward the lower variable index, so the selection is
    deterministic.
    """
    deltas = np.abs(_all_deltas(qubo, np.asarray(x)))
    # stable sort on (-|delta|, index)
    order = np.lexsort((np.arange(qubo.dim), -deltas))
    return np.sort(order[:size])


def decompose_loop(
    qubo: Qubo, x0: np.ndarray, config: DecomposeConfig
) -> SolveResult:
    """Iterated clamp-solve-merge descent from x0.

    Each step solves the clamped subproblem (exhaustively up to 16 free
    variables, by 2000 tabu flips above) and merges the sub-solution back
    only if the full score does not increase, so best scores are
    non-increasing.  Deterministic for a fixed config.  The "score"
    strategy stops after a step that leaves x unchanged: its selection and
    sub-solve depend on x alone, so every later step would repeat it.

    Steps select, solve and merge on grid = round_to_grid(qubo), where every
    score a step forms is exact: the trace logs true improvements only (its
    last row is the gridded score of best, bit for bit), and a tabu
    sub-walk back in a state repeats it, so its periods are skipped.  An
    exhaustive step clamps grid; a tabu step walks the free bits straight
    from grid's coupling lists (solvers._tabu_on_free_bits), by the list
    kernel at every size, to the bits tabu_search gives on the clamp.  The
    returned score is qubo's own evaluate of best.
    """
    x = _bit_vector(x0, qubo.dim, "x0")
    grid = round_to_grid(qubo)
    adjacency = grid.adjacency()
    rng = np.random.default_rng(config.seed)
    started = time.monotonic()
    deadline = started + config.time_limit
    score = grid.evaluate(x)
    trace = [(0, score)]
    steps = 0
    while steps < config.max_steps and time.monotonic() <= deadline:
        steps += 1
        if config.strategy == "random":
            free = random_subproblem(rng, qubo.dim, config.subproblem_size)
        else:
            free = score_subproblem(grid, x, config.subproblem_size)
        seed = int(rng.integers(2**31))  # drawn every step: later picks read rng
        budget = Budget(max_iterations=2000)
        if free.size <= 16:
            sub, _ = grid.clamp(x, free)
            result = brute_force(SolveRequest(qubo=sub, initial=x[free],
                                              seed=seed, budget=budget))
        else:
            result = _tabu_on_free_bits(adjacency, x, free, score, budget)
        # sub scores are full scores, exact on the grid; the tolerance lets
        # a zero-gain move merge even from a sub-solver whose score rounds a
        # few ulps high
        merge = result.score <= score + 1e-12 * (1.0 + abs(score))
        moved = merge and bool(np.any(x[free] != result.best))
        if merge:
            x[free] = result.best
            if result.score < score:
                score = result.score
                trace.append((steps, score))
        if config.strategy == "score" and not moved:
            break
    wall = time.monotonic() - started
    return SolveResult(best=x, score=qubo.evaluate(x), iterations=steps,
                       wall_seconds=wall, trace=trace)
