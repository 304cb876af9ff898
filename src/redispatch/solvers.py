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
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .qubo import Qubo, _bit_vector, _integer, round_to_grid

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
# numpy's per-call overhead (7-8 us a flip) outweighs the O(dim) scan.  On
# sub-QUBOs of the desk objective at L (random free bits clamped at a one-hot
# schedule, 2,000 flips from the clamped bits; 2 cores, Python 3.11), lists
# take 2 us an attempted flip at dim 40, 7 us at 160 and 14 us at 320, while
# arrays take 7-8 us at each; on the same sub-QUBO lists need 0.9-1.0 times
# the arrays' time at dim 160-170, 1.1-1.2 times at 180-200, 2 times at 320.
_SMALL_DIM = 160


class TooLargeError(ValueError):
    """Exhaustive enumeration was requested beyond the hard dimension cap."""


@dataclass(frozen=True)
class Budget:
    """Stopping rule shared by the iterative samplers.

    max_iterations, an integer, bounds attempted flips (sweeps * dim for
    annealing); time_limit is wall-clock seconds checked between
    iterations.  Runs capped by time alone are not reproducible; use
    max_iterations when byte-stable outputs matter.
    """

    max_iterations: int = 100_000
    time_limit: float = math.inf

    def __post_init__(self):
        if _integer(self.max_iterations, "max_iterations") < 0:
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

    def __post_init__(self):
        if _integer(self.seed, "seed") < 0:
            raise ValueError("seed must be non-negative")


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


class _Walk:
    """Single-flip state shared by tabu search and annealing.

    Holds the seeded generator, the current vector x with its signs
    1 - 2 x (exactly +-1.0), the score change of flipping each bit, the
    running score, the incumbent with its improvement trace, and the
    wall-clock deadline.  flip keeps all of them current.  A walk made by
    on_free_bits has no QUBO and no generator: only the list kernel runs it.
    """

    def __init__(self, req: SolveRequest):
        self.started = time.monotonic()
        self.qubo = req.qubo
        self.rng = np.random.default_rng(req.seed)
        x = (self.rng.integers(0, 2, size=req.qubo.dim).astype(np.int8)
             if req.initial is None else
             _bit_vector(req.initial, req.qubo.dim, "initial vector"))
        _, neighbors, weights = req.qubo.adjacency()
        self._start(x, neighbors, weights, _all_deltas(req.qubo, x),
                    req.qubo.evaluate(x), req.budget)

    @classmethod
    def on_free_bits(cls, adjacency, x: np.ndarray, free: np.ndarray,
                     score: float, budget: Budget) -> "_Walk":
        """The walk over the free bits of grid.clamp(x, free), from x[free],
        built from adjacency = grid.adjacency() without the clamp.

        grid is a QUBO on its grid (round_to_grid), where every sum is
        exact, and score is grid.evaluate(x), so the clamp's numbers are
        known: its deltas are grid's deltas at x restricted to the sorted
        (non-empty) index array free, its couplings those of grid among the
        free bits, and its score at x[free] is score.  The bits are those of
        a _Walk on the clamp (up to the sign of a zero delta).
        """
        walk = cls.__new__(cls)
        walk.started = time.monotonic()
        diag, neighbors, weights = adjacency
        k, bits = free.size, free.tolist()
        nbs = [neighbors[f] for f in bits]
        # entry e of nb and w lists a neighbour of free bit owner[e]
        owner = np.repeat(np.arange(k), [nb.size for nb in nbs])
        nb = np.concatenate(nbs)
        w = np.concatenate([weights[f] for f in bits])
        inner = diag[free] + np.bincount(owner, weights=w * x[nb], minlength=k)
        local = np.full(x.size, -1)  # index among the free bits, -1: clamped
        local[free] = np.arange(k)
        local = local[nb]
        keep = local >= 0
        ends = np.cumsum(np.bincount(owner[keep], minlength=k)).tolist()
        cuts = list(zip([0, *ends], ends))
        local, w = local[keep], w[keep]
        sub = x[free]
        walk._start(sub, [local[a:b] for a, b in cuts], [w[a:b] for a, b in cuts],
                    (1.0 - 2.0 * sub) * inner, score, budget)
        return walk

    def _start(self, x, neighbors, weights, deltas, score, budget) -> None:
        self.x = x
        self.sign = 1.0 - 2.0 * x
        self.deadline = self.started + budget.time_limit
        self.neighbors, self.weights = neighbors, weights
        self.deltas = deltas
        self.score = score
        self.best = x.copy()
        self.best_score = score
        self.trace = [(0, score)]

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

    def result(self, iterations: int, qubo: Qubo | None = None) -> SolveResult:
        """The incumbent scored by qubo's evaluate, not by summed deltas;
        without a qubo, the walk's own best score (exact on a grid)."""
        return SolveResult(
            best=self.best,
            score=self.best_score if qubo is None else qubo.evaluate(self.best),
            iterations=iterations,
            wall_seconds=time.monotonic() - self.started, trace=self.trace)


@functools.cache
def _bit_rows(b: int) -> np.ndarray:
    """(2^b, b) table of 0.0/1.0: row v holds the bits of v, bit i in column i."""
    table = ((np.arange(1 << b)[:, None] >> np.arange(b)) & 1).astype(float)
    table.flags.writeable = False
    return table


def brute_force(req: SolveRequest) -> SolveResult:
    """Enumerate all bit vectors; ties break toward the smallest encoding.

    Bit i of the encoding v = sum(x_i * 2^i) is variable i.  The result is
    the first minimum, in encoding order, of the scores evaluate_many gives:
    the same vector, and a score with the same bits.  Capped at dim <= 24.
    The seed and start vector are ignored.

    Enumeration by halves: the bits below lo = ceil(dim / 2) form the low
    half, the rest the high half, and every vector scores offset + A[low] +
    B[high] + C[high, low], where A and B sum the terms inside each half and
    C the terms across (einsums over 0/1 tables, no BLAS product).  That
    adds the same exact products coefficient * 0/1 as evaluate_many, in
    another order, so each of the two sums lies within gamma_n * total of
    the exact value, with n = terms + 1 numbers and total = |offset| +
    sum |vals| (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    sec. 4.2).  Every vector that evaluate_many scores lowest thus lies
    within 4 gamma_n * total of the lowest halves score, and only the vectors
    within twice that margin are rescored by evaluate_many.  From total =
    2^1000 on a sum may overflow, and every vector is rescored.  Memory stays
    bounded: halves scores in blocks of 2^16 vectors, rescoring in slices of
    4096.
    """
    q = req.qubo
    m = q.dim
    if m > BRUTE_FORCE_LIMIT:
        raise TooLargeError(f"dim {m} exceeds brute-force cap {BRUTE_FORCE_LIMIT}")
    started = time.monotonic()
    lo = (m + 1) // 2
    per = (1 << 16) >> lo  # high-half settings in one block
    starts = range(0, 1 << (m - lo), per)
    with np.errstate(over="ignore"):  # an infinite total is handled below
        total = abs(q.offset) + float(np.abs(q.vals).sum())
    limit = None  # rescore every vector
    if total < 2.0 ** 1000:
        XL, XH = _bit_rows(lo), _bit_rows(m - lo)
        W = np.zeros((m, m))
        W[q.rows, q.cols] = q.vals
        # F[low, j]: the terms from the set low bits to bit j
        F = np.einsum("li,ij->lj", XL, W[:lo])
        A = np.einsum("li,li->l", XL, F[:, :lo])
        B = np.einsum("hj,hj->h", XH, np.einsum("hi,ij->hj", XH, W[lo:, lo:]))
        B += q.offset
        G = F[:, lo:]

        def halves(h: int) -> np.ndarray:
            """Halves scores of the block from high setting h, (per, 2^lo)."""
            S = np.einsum("hj,lj->hl", XH[h:h + per], G)
            S += A
            S += B[h:h + per, None]
            return S

        first = halves(0)
        lows = [first.min()] + [halves(h).min() for h in starts[1:]]
        limit = min(lows) + 8 * (q.num_terms + 1) * 2.0 ** -53 * total
    best, best_score = np.zeros(m, dtype=np.int8), math.inf
    bits = np.arange(m)
    for b, h in enumerate(starts):
        if limit is None:
            v = np.arange(h << lo, min(h + per, 1 << (m - lo)) << lo)
        elif lows[b] > limit:
            continue
        else:
            v = (h << lo) + np.flatnonzero((first if h == 0 else halves(h)) <= limit)
        for at in range(0, v.size, 4096):
            X = (v[at:at + 4096, None] >> bits) & 1
            scores = q.evaluate_many(X)
            i = int(np.argmin(scores))
            if scores[i] < best_score:  # sums of finite terms are never NaN
                best, best_score = X[i].astype(np.int8), float(scores[i])
    return SolveResult(best=best, score=best_score, iterations=1 << m,
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
    lists, above it over numpy arrays; both give bit-identical results.  A
    walk back in a state it was in before repeats itself, so the list kernel
    skips whole periods of it; iterations counts attempted flips, skipped
    ones included, and is max_iterations unless the time limit struck.

    A state repeats only bit for bit: where sums of coefficients round
    (d + w - w != d), the deltas drift and the walk is never back where it
    was.  So up to _SMALL_DIM the walk runs on qubo.round_to_grid(qubo),
    where every sum it forms is exact: its trace holds gridded scores (the
    last row is the gridded score of best, bit for bit), and the returned
    score is qubo's own evaluate of best.  The array path walks on qubo
    itself: it has no skip for the grid to serve, and a gridded copy of a
    large QUBO would double its memory.
    """
    q = req.qubo
    tenure = max(10, q.dim // 50)
    limit = req.budget.max_iterations if q.dim else 0  # nothing to flip
    if q.dim <= _SMALL_DIM:
        walk = _Walk(replace(req, qubo=round_to_grid(q)))
        it = _tabu_on_lists(walk, limit, tenure)
    else:
        walk = _Walk(req)
        it = _tabu_on_arrays(walk, limit, tenure)
    return walk.result(it, req.qubo)


def _tabu_on_free_bits(adjacency, x: np.ndarray, free: np.ndarray,
                       score: float, budget: Budget) -> SolveResult:
    """tabu_search on grid.clamp(x, free)[0] from x[free], without the clamp:
    the list kernel on _Walk.on_free_bits(adjacency, x, free, score, budget).

    Gives the best, iterations and trace of that tabu_search at every size
    (above _SMALL_DIM its array path walks the clamp, already on the grid,
    to the same bits), and as score the walk's exact best: the gridded
    score of best, which the clamp's evaluate gives too.
    """
    walk = _Walk.on_free_bits(adjacency, x, free, score, budget)
    it = _tabu_on_lists(walk, budget.max_iterations, max(10, free.size // 50))
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


def _walk_state(x: list[int], deltas: list[float], score: float,
                best_score: float, tabu_until: list[int], it: int) -> tuple:
    """What the rest of a list-kernel walk after iteration it depends on:
    the bits, the floats as bytes (0.0 and -0.0 differ, a NaN equals itself)
    and each tabu window relative to it (all values <= 0 mean free)."""
    floats = array("d", deltas)
    floats.append(score)
    floats.append(best_score)
    return bytes(x), floats.tobytes(), [max(u - it, 0) for u in tabu_until]


def _tabu_on_lists(walk: _Walk, limit: int, tenure: int) -> int:
    """_tabu_on_arrays over Python lists, writing its final state back to walk.

    Every float operation and comparison happens in the same order as in
    the array path and _Walk.flip (the scan keeps the first index of the
    lowest candidate delta, as np.argmin does), so vector, score and trace
    are the same bits.

    The walk is a function of its state (_walk_state), so once that state
    repeats it cycles and, the incumbent being part of it, never improves
    again.  The state is kept at iterations 16, 32, 64, ... (Brent 1980) and
    compared whenever the score equals the kept one; on a repeat after p
    iterations the walk skips the most whole periods of p that fit before
    limit, moving the tabu windows with it, and walks the rest.
    """
    x = walk.x.tolist()
    deltas = walk.deltas.tolist()
    couplings = [list(zip(nb.tolist(), w.tolist()))
                 for nb, w in zip(walk.neighbors, walk.weights)]
    tabu_until = [0] * len(x)
    score, best_score, best = walk.score, walk.best_score, None
    trace, deadline = walk.trace, walk.deadline
    untimed = deadline == math.inf
    snap_it, snap_score, snap, next_snap = 0, None, None, 16
    it = 0
    while it < limit and (untimed or time.monotonic() <= deadline):
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
        bit = x[flip]
        for j, w in couplings[flip]:  # += (1 - 2 x_j) w (1 - 2 x_flip), exactly
            if x[j] == bit:
                deltas[j] += w
            else:
                deltas[j] -= w
        deltas[flip] = -d
        x[flip] = 1 - bit
        score += d
        if score < bar:
            best_score, best = score, x.copy()
            trace.append((it, score))
        tabu_until[flip] = it + tenure
        if score == snap_score and _walk_state(
                x, deltas, score, best_score, tabu_until, it) == snap:
            period = it - snap_it
            skip = (limit - it) // period * period
            it += skip
            tabu_until = [u + skip for u in tabu_until]
        elif it == next_snap:
            snap_it, snap_score, next_snap = it, score, 2 * it
            snap = _walk_state(x, deltas, score, best_score, tabu_until, it)
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
    return walk.result(it, q)


def write_trace_csv(path, trace: list[tuple[int, float]]) -> None:
    """Persist an improvement trace as `iteration,best_score` rows."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iteration,best_score\n")
        for it, s in trace:
            fh.write(f"{it},{s:.12g}\n")
