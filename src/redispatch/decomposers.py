"""Clamp-and-solve decomposition baselines.

Both strategies pick a subset of variables, clamp the rest at their current
values, solve the reduced QUBO with a small sampler and merge the sub-result
back when that does not worsen the full score.  None of this preserves the
one-hot structure; infeasible intermediate vectors are allowed and simply pay
the hard-constraint penalties of the composed objective.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .qubo import Qubo
from .solvers import (
    Budget,
    SolveRequest,
    SolveResult,
    brute_force,
    tabu_search,
    _all_deltas,
    _bit_vector,
)

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
    """

    subproblem_size: int = 50
    strategy: str = "random"
    max_steps: int = 100
    time_limit: float = math.inf
    seed: int = 0

    def __post_init__(self):
        if self.subproblem_size < 1:
            raise ValueError("subproblem_size must be at least 1")
        if self.strategy not in ("random", "score"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if not self.time_limit > 0:  # also rejects NaN
            raise ValueError("time_limit must be positive")


def random_subproblem(
    rng: np.random.Generator, qubo: Qubo, x: np.ndarray, size: int
) -> tuple[Qubo, np.ndarray]:
    """Clamp all but `size` uniformly chosen variables at their current bits."""
    size = min(size, qubo.dim)
    free = rng.choice(qubo.dim, size=size, replace=False)
    free_set = set(free.tolist())
    fixed = {i: int(x[i]) for i in range(qubo.dim) if i not in free_set}
    return qubo.clamp(fixed)


def score_subproblem(qubo: Qubo, x: np.ndarray, size: int) -> tuple[Qubo, np.ndarray]:
    """Clamp all but the `size` variables with the largest |flip delta|.

    Ties break toward the lower variable index, so the selection is
    deterministic.
    """
    size = min(size, qubo.dim)
    deltas = np.abs(_all_deltas(qubo, np.asarray(x)))
    # stable sort on (-|delta|, index)
    order = np.lexsort((np.arange(qubo.dim), -deltas))
    free_set = set(order[:size].tolist())
    fixed = {i: int(x[i]) for i in range(qubo.dim) if i not in free_set}
    return qubo.clamp(fixed)


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
    """
    x = _bit_vector(x0, qubo.dim, "x0")
    rng = np.random.default_rng(config.seed)
    started = time.monotonic()
    deadline = started + config.time_limit
    score = qubo.evaluate(x)
    trace = [(0, score)]
    steps = 0
    while steps < config.max_steps and time.monotonic() <= deadline:
        steps += 1
        if config.strategy == "random":
            sub, remap = random_subproblem(rng, qubo, x, config.subproblem_size)
        else:
            sub, remap = score_subproblem(qubo, x, config.subproblem_size)
        sub_req = SolveRequest(
            qubo=sub,
            initial=x[remap],
            seed=int(rng.integers(2**31)),
            budget=Budget(max_iterations=2000),
        )
        result = brute_force(sub_req) if sub.dim <= 16 else tabu_search(sub_req)
        # sub scores already include the clamp offset, i.e. the full score;
        # the tolerance scales with it, so a zero-gain move merges whichever
        # way its last bit rounds
        merge = result.score <= score + 1e-12 * (1.0 + abs(score))
        moved = merge and bool(np.any(x[remap] != result.best))
        if merge:
            x[remap] = result.best
            if result.score < score:
                score = result.score
                trace.append((steps, score))
        if config.strategy == "score" and not moved:
            break
    wall = time.monotonic() - started
    return SolveResult(best=x, score=qubo.evaluate(x), iterations=steps,
                       wall_seconds=wall, trace=trace)
