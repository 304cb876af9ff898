"""Classical QUBO samplers: exhaustive search, tabu search, simulated annealing.

All samplers are deterministic for a fixed seed and iteration budget and
track the best score ever visited.  Tabu search and annealing walk by single
flips over one shared state (_Walk) that keeps every flip delta current in
O(degree) per flip; each sampler only adds its move rule.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .qubo import Qubo

__all__ = [
    "TooLargeError",
    "Budget",
    "SolveRequest",
    "SolveResult",
    "brute_force",
    "tabu_search",
    "simulated_annealing",
    "write_trace_csv",
]

BRUTE_FORCE_LIMIT = 24

# Up to this many variables tabu search runs its move rule over Python lists:
# numpy's per-call overhead (about 20 us a flip) outweighs the O(dim) scan.
# On clamped sub-QUBOs of the desk objective (2 cores, Python 3.11) lists
# take 4 us a flip at dim 40 and 22 us at 320, arrays 24-26 us at both; the
# lists fall behind from about 360.
_SMALL_DIM = 320


class TooLargeError(ValueError):
    """Exhaustive enumeration was requested beyond the hard dimension cap."""


@dataclass(frozen=True)
class Budget:
    """Stopping rule shared by the iterative samplers.

    max_iterations bounds attempted flips (sweeps * dim for annealing);
    time_limit is wall-clock seconds checked between iterations.  Runs capped
    by time alone are not reproducible; use max_iterations when byte-stable
    outputs matter.
    """

    max_iterations: int = 100_000
    time_limit: float = math.inf

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if not self.time_limit > 0:  # also rejects NaN
            raise ValueError("time_limit must be positive")


@dataclass
class SolveRequest:
    """One sampler invocation: problem, start point, seed and budget."""

    qubo: Qubo
    initial: np.ndarray | None = None
    seed: int = 0
    budget: Budget = field(default_factory=Budget)


@dataclass
class SolveResult:
    """Best vector found plus bookkeeping.

    trace holds (iteration, best_score) rows recorded whenever the incumbent
    improved, starting with the initial point; scores are non-increasing.
    wall_seconds is informational and excluded from determinism guarantees.
    """

    best: np.ndarray
    score: float
    iterations: int
    wall_seconds: float
    trace: list[tuple[int, float]]


def _all_deltas(qubo: Qubo, x: np.ndarray) -> np.ndarray:
    """Score change from flipping each variable alone, for every variable."""
    diag, neighbors, weights = qubo.adjacency()
    xf = np.asarray(x, dtype=float)
    inner = diag.copy()
    for i in range(qubo.dim):
        if neighbors[i].size:
            inner[i] += weights[i] @ xf[neighbors[i]]
    return (1.0 - 2.0 * xf) * inner


def _bit_vector(x, dim: int, name: str) -> np.ndarray:
    """An int8 copy of x, checked before the cast to be 0/1 of shape (dim,)."""
    x = np.asarray(x)
    if x.shape != (dim,) or not ((x == 0) | (x == 1)).all():
        raise ValueError(f"{name} must be a 0/1 vector of shape ({dim},)")
    return x.astype(np.int8)


class _Walk:
    """Single-flip state shared by tabu search and annealing.

    Holds the seeded generator, the current vector x with its signs
    1 - 2 x (exactly +-1.0), the score change of flipping each bit, the
    running score, the incumbent with its improvement trace, and the
    wall-clock deadline.  flip keeps all of them current.
    """

    def __init__(self, req: SolveRequest):
        self.qubo = req.qubo
        self.rng = np.random.default_rng(req.seed)
        self.x = (self.rng.integers(0, 2, size=req.qubo.dim).astype(np.int8)
                  if req.initial is None else
                  _bit_vector(req.initial, req.qubo.dim, "initial vector"))
        self.sign = 1.0 - 2.0 * self.x
        self.started = time.monotonic()
        self.deadline = self.started + req.budget.time_limit
        _, self.neighbors, self.weights = req.qubo.adjacency()
        self.deltas = _all_deltas(req.qubo, self.x)
        self.score = req.qubo.evaluate(self.x)
        self.best = self.x.copy()
        self.best_score = self.score
        self.trace = [(0, self.score)]

    def flip(self, i: int, it: int) -> None:
        """Flip bit i at iteration it, updating deltas, score and incumbent."""
        x, deltas, sign = self.x, self.deltas, self.sign
        d = float(deltas[i])
        nb = self.neighbors[i]
        deltas[nb] += sign[nb] * self.weights[i] * sign[i]
        deltas[i] = -d
        sign[i] = -sign[i]
        x[i] = 1 - x[i]
        self.score += d
        if self.score < self.best_score - 1e-12:
            self.best_score = self.score
            self.best = x.copy()
            self.trace.append((it, self.score))

    def result(self, iterations: int) -> SolveResult:
        # re-anchor: report the exact score of the returned vector, not summed deltas
        return SolveResult(best=self.best, score=self.qubo.evaluate(self.best),
                           iterations=iterations,
                           wall_seconds=time.monotonic() - self.started,
                           trace=self.trace)


@functools.cache
def _bit_table() -> np.ndarray:
    """table[i, v] is bit i of v, for the 2^16 values v of 16 bits (1 MB)."""
    return ((np.arange(1 << 16) >> np.arange(16)[:, None]) & 1).astype(bool)


def brute_force(req: SolveRequest) -> SolveResult:
    """Enumerate all bit vectors; ties break toward the smallest encoding.

    Bit i of the enumeration counter is variable i, so among equal scorers
    the vector whose integer value sum(x_i * 2^i) is smallest wins.  Capped
    at dim <= 24.  The seed and start vector are ignored.
    """
    q = req.qubo
    if q.dim > BRUTE_FORCE_LIMIT:
        raise TooLargeError(f"dim {q.dim} exceeds brute-force cap {BRUTE_FORCE_LIMIT}")
    started = time.monotonic()
    total = 1 << q.dim
    # X[i, v] is bit i of vector v of a chunk; the high bits are per chunk
    low = min(q.dim, 16)
    X = np.empty((q.dim, 1 << low), dtype=bool)
    X[:low] = _bit_table()[:low, : 1 << low]
    best_score = math.inf
    best_v = 0
    for high in range(total >> low):
        X[low:] = ((high >> np.arange(q.dim - low)) & 1)[:, None]
        # evaluate_many's products, summed term by term in the same order
        scores = q.offset + ((X[q.rows] & X[q.cols]) * q.vals[:, None]).sum(axis=0)
        idx = int(np.argmin(scores))
        if scores[idx] < best_score:
            best_score = float(scores[idx])
            best_v = (high << low) | idx
    best = ((best_v >> np.arange(q.dim)) & 1).astype(np.int8)
    return SolveResult(best=best, score=best_score, iterations=total,
                       wall_seconds=time.monotonic() - started,
                       trace=[(0, best_score)])


def tabu_search(req: SolveRequest) -> SolveResult:
    """Single-flip tabu search with aspiration.

    Each iteration flips the allowed bit with the lowest score change (the
    lowest index among equals).  A flipped variable stays tabu for
    max(10, dim // 50) iterations unless flipping it would beat the
    incumbent; when every bit is tabu, the ones released soonest are
    allowed.  The incumbent starts at the initial point, so the result is
    never worse.  Up to _SMALL_DIM variables the move rule runs over Python
    lists, above it over numpy arrays; both give bit-identical results.
    """
    walk = _Walk(req)
    tenure = max(10, req.qubo.dim // 50)
    limit = req.budget.max_iterations if req.qubo.dim else 0  # nothing to flip
    if req.qubo.dim <= _SMALL_DIM:
        it = _tabu_on_lists(walk, limit, tenure)
    else:
        it = _tabu_on_arrays(walk, limit, tenure)
    return walk.result(it)


def _tabu_on_arrays(walk: _Walk, limit: int, tenure: int) -> int:
    """The move rule over numpy arrays; _Walk.flip makes each move."""
    deltas = walk.deltas
    tabu_until = np.zeros(walk.qubo.dim, dtype=np.int64)
    barred = np.full(walk.qubo.dim, -math.inf)  # +inf exactly while tabu
    masked = np.empty(walk.qubo.dim)
    flips: list[int] = []
    it = 0
    while it < limit and time.monotonic() <= walk.deadline:
        it += 1
        if it > tenure + 1 and tabu_until[flips[-tenure - 1]] < it:
            barred[flips[-tenure - 1]] = -math.inf  # released this iteration
        # some bit aspires iff the lowest delta does: score + d rises with d
        flip = int(deltas.argmin())
        if not (tabu_until[flip] < it
                or walk.score + deltas[flip] < walk.best_score - 1e-12):
            np.maximum(deltas, barred, out=masked)
            flip = int(masked.argmin())
            if masked[flip] == math.inf:  # all tabu: the one released soonest
                flip = int(tabu_until.argmin())
        walk.flip(flip, it)
        tabu_until[flip] = it + tenure
        barred[flip] = math.inf
        flips.append(flip)
    return it


def _tabu_on_lists(walk: _Walk, limit: int, tenure: int) -> int:
    """_tabu_on_arrays over Python lists, writing its final state back to walk.

    Every float operation and comparison happens in the same order as in
    the array path and _Walk.flip (the scan keeps the first index of the
    lowest candidate delta, as np.argmin does), so vector, score and trace
    are the same bits.
    """
    x = walk.x.tolist()
    deltas = walk.deltas.tolist()
    couplings = [list(zip(nb.tolist(), w.tolist()))
                 for nb, w in zip(walk.neighbors, walk.weights)]
    tabu_until = [0] * len(x)
    score, best_score, best = walk.score, walk.best_score, None
    trace, deadline = walk.trace, walk.deadline
    it = 0
    while it < limit and time.monotonic() <= deadline:
        it += 1
        bar = best_score - 1e-12
        flip, low = -1, math.inf
        for j, d in enumerate(deltas):
            if d < low and (tabu_until[j] < it or score + d < bar):
                flip, low = j, d
        if flip < 0:  # every bit tabu: allow those released soonest
            oldest = min(tabu_until)
            for j, d in enumerate(deltas):
                if d < low and tabu_until[j] == oldest:
                    flip, low = j, d
        d = deltas[flip]
        sign = 1.0 - 2.0 * x[flip]
        for j, w in couplings[flip]:
            deltas[j] += (1.0 - 2.0 * x[j]) * w * sign
        deltas[flip] = -d
        x[flip] = 1 - x[flip]
        score += d
        if score < bar:
            best_score, best = score, x.copy()
            trace.append((it, score))
        tabu_until[flip] = it + tenure
    walk.x = np.array(x, dtype=np.int8)
    walk.sign = 1.0 - 2.0 * walk.x
    walk.deltas = np.array(deltas)
    walk.score, walk.best_score = score, best_score
    if best is not None:
        walk.best = np.array(best, dtype=np.int8)
    return it


def _start_temperature(deltas: np.ndarray, rng: np.random.Generator) -> float:
    """Temperature at which about 80 percent of probed uphill flips are accepted."""
    probe = deltas[rng.integers(0, deltas.size, size=min(100, 4 * deltas.size))]
    ups = probe[probe > 0]
    if not ups.size:
        return 1.0
    return float(np.mean(ups) / math.log(1.0 / 0.8))


def simulated_annealing(req: SolveRequest) -> SolveResult:
    """Metropolis single-flip annealing on a geometric temperature ladder.

    Runs max(2, min(1000, max_iterations // dim)) sweeps, each visiting the
    variables in a fresh random order.  The start temperature accepts about
    80 percent of the uphill flips probed at the initial point (1.0 when the
    probe finds none); the ladder ends at 1e-3 times the start.  Iterations
    count attempted flips.
    """
    walk = _Walk(req)
    q, rng, deltas = req.qubo, walk.rng, walk.deltas
    limit = req.budget.max_iterations
    sweeps = max(2, min(1000, limit // max(1, q.dim)))
    t_start = max(_start_temperature(deltas, rng), 1e-12)
    t_end = max(1e-3 * t_start, 1e-15)
    it = 0
    for sweep in range(sweeps):
        temp = t_start * (t_end / t_start) ** (sweep / (sweeps - 1))
        order = rng.permutation(q.dim)
        accept_draws = rng.random(q.dim)
        for pos, flip in enumerate(order.tolist()):
            if it >= limit:
                break
            it += 1
            d = deltas[flip]
            if d <= 0 or accept_draws[pos] < math.exp(-d / temp):
                walk.flip(flip, it)
        if it >= limit or time.monotonic() > walk.deadline:
            break
    return walk.result(it)


def write_trace_csv(path, trace: list[tuple[int, float]]) -> None:
    """Persist an improvement trace as `iteration,best_score` rows."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iteration,best_score\n")
        for it, s in trace:
            fh.write(f"{it},{s:.12g}\n")
