"""Constraint-preserving large-neighborhood search over one-hot schedules.

A move is a cycle set: a list of bit swaps inside distinct (timepoint,
resource) blocks that turns one one-hot schedule into another.  Rectification
extends a single desired state change into such a move that also respects
the one-step adjacency rule, by walking outward from the changed timepoint
and dragging each out-of-range neighbor to distance exactly one from its
inner neighbor, on the side nearest its original state.

Each outer iteration samples a batch of mutually disjoint rectified moves,
builds the reduced QUBO over "apply move i or not" indicator bits and lets a
small sampler pick the best combination; the reduced score of the chosen
combination equals the true score delta exactly, so accepted moves never
increase the objective and never leave the feasible set.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .encodings import FactoredObjective
from .model import (
    ProblemInstance,
    count_switches,
    decode_one_hot,
    first_adjacency_violation,
    flat_index,
)
from .qubo import Qubo
from .solvers import Budget, SolveRequest, SolveResult, brute_force, tabu_search

__all__ = [
    "NonDisjointCyclesError",
    "InfeasibleStartError",
    "StateChange",
    "CycleSet",
    "rectify",
    "sample_disjoint_changes",
    "build_alpha_qubo",
    "alpha_expansion",
]


class NonDisjointCyclesError(ValueError):
    """Two cycle sets in one batch touch the same (timepoint, resource) block."""


class InfeasibleStartError(ValueError):
    """alpha_expansion was started from an infeasible bit vector."""


@dataclass(frozen=True)
class StateChange:
    """Desired reassignment: schedule row t, resource j moves to state i_new.

    t and j are 0-based array positions; i_new is a 1-based state value,
    matching how schedules store states.
    """

    t: int
    j: int
    i_new: int


@dataclass(frozen=True)
class CycleSet:
    """A feasibility-preserving move given as bit swaps in distinct blocks.

    swaps holds (bit_on, bit_off) pairs: applying the move clears bit_on and
    sets bit_off.  touched lists the (t, j) blocks the swaps live in.
    """

    swaps: tuple[tuple[int, int], ...]
    touched: frozenset[tuple[int, int]]

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = np.array(x, copy=True)
        for on, off in self.swaps:
            out[on], out[off] = x[off], x[on]
        return out

    def disjoint_from(self, other: "CycleSet") -> bool:
        return not (self.touched & other.touched)


def rectify(Z: np.ndarray, change: StateChange, k: int) -> CycleSet:
    """Extend a state change into an adjacency-preserving cycle set.

    Starting from the changed timepoint the walk moves outward in both
    directions; any neighbor left more than one state away from its inner
    neighbor's new value is pulled to distance exactly one, on the side
    nearest its original state.  Applying the result to an adjacency-feasible
    schedule yields an adjacency-feasible schedule with Z[t, j] = i_new.
    """
    Z = np.asarray(Z)
    T, n = Z.shape
    j = change.j
    moves: list[tuple[int, int, int]] = []
    if Z[change.t, j] != change.i_new:
        moves.append((change.t, int(Z[change.t, j]), change.i_new))
    for step in (-1, 1):
        inner = change.i_new
        t = change.t + step
        while 0 <= t < T:
            orig = int(Z[t, j])
            if abs(orig - inner) <= 1:
                break
            pulled = inner - 1 if orig < inner else inner + 1
            moves.append((t, orig, pulled))
            inner = pulled
            t += step
    swaps = tuple(
        (flat_index(t, j, old, n, k), flat_index(t, j, new, n, k))
        for t, old, new in moves
    )
    return CycleSet(swaps=swaps, touched=frozenset((t, j) for t, _, _ in moves))


def sample_disjoint_changes(
    pool: list[StateChange], count: int, k: int
) -> tuple[list[StateChange], list[StateChange]]:
    """Greedily take up to `count` changes keeping same-resource changes far apart.

    Accepted changes on the same resource sit at least k timepoints apart.
    Returns (accepted, skipped); skipped changes stay eligible for later
    batches so a full pass over the pool still proposes every member.
    """
    accepted: list[StateChange] = []
    skipped: list[StateChange] = []
    taken: dict[int, list[int]] = {}  # resource -> timepoints accepted on it
    for pos, change in enumerate(pool):
        if len(accepted) >= count:
            return accepted, skipped + pool[pos:]
        times = taken.setdefault(change.j, [])
        if any(abs(t - change.t) < k for t in times):
            skipped.append(change)
        else:
            times.append(change.t)
            accepted.append(change)
    return accepted, skipped


def _swaps(x: np.ndarray, cycles: list[CycleSet]):
    """(on, off, owner) of the swaps whose two bits differ.

    Swap i of cycle owner[i] exchanges bits on[i] and off[i].  Raises
    NonDisjointCyclesError if two cycles share a block or a bit.
    """
    touched_sets = [c.touched for c in cycles]
    if sum(map(len, touched_sets)) != len(frozenset().union(*touched_sets)):
        for a, b in itertools.combinations(range(len(cycles)), 2):
            if not cycles[a].disjoint_from(cycles[b]):
                raise NonDisjointCyclesError(
                    f"cycles {a} and {b} share blocks "
                    f"{sorted(cycles[a].touched & cycles[b].touched)}"
                )
    swaps = [v for a, cycle in enumerate(cycles)
             for on, off in cycle.swaps for v in (a, on, off)]
    owner, on, off = np.array(swaps, dtype=np.int64).reshape(-1, 3).T
    x = np.asarray(x)
    moved = x[on] != x[off]
    on, off, owner = on[moved], off[moved], owner[moved]
    bits = np.sort(np.concatenate([on, off]))
    if (bits[1:] == bits[:-1]).any():
        raise NonDisjointCyclesError("the cycles move one bit twice")
    return on, off, owner


def build_alpha_qubo(objective: Qubo | FactoredObjective, x: np.ndarray,
                     cycles: list[CycleSet],
                     fields: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> Qubo:
    """Reduced QUBO over move-selection bits.

    Bit i of the reduced problem means "apply cycles[i]".  For any selection
    alpha, reduced.evaluate(alpha) equals
    qubo.evaluate(x with the selected cycles applied) - qubo.evaluate(x),
    provided the cycles touch pairwise disjoint blocks and no bit is moved
    twice (else NonDisjointCyclesError).

    The objective is that qubo, read entry by entry, or qubo.factored, the
    FactoredObjective a build_objective result carries (equal up to
    rounding).  That needs a one-hot x and cycles whose swaps stay inside
    their blocks, as rectify makes them; fields are its fields at x's
    schedule, computed here unless the caller keeps them.
    """
    if isinstance(objective, FactoredObjective):
        return _factored_alpha_qubo(objective, x, cycles, fields)
    qubo = objective
    on, off, owner = _swaps(x, cycles)
    xf = np.asarray(x, dtype=float)
    m = len(cycles)
    # sparse differences d_a with x + d_a = cycles[a].apply(x): entries
    # (on, off) with values (x[off] - x[on], x[on] - x[off]) per swap, owned
    # by the swap's cycle
    bits = np.stack([on, off], axis=1).ravel()
    step = xf[off] - xf[on]
    vals = np.stack([step, -step], axis=1).ravel()
    owner = np.repeat(owner, 2)
    diag = qubo.adjacency()[0]
    indptr, indices, data = qubo.csr()

    # one gather of the moved bits' CSR rows, shortest first, gives the
    # symmetric block over the entries (block[i, i] is Q[u, u] and
    # block[i, j] is Q[u, v] / 2) and row[i] = (Q_sym x)[u]
    starts = indptr[bits]
    counts = indptr[bits + 1] - starts
    by_len = np.argsort(counts, kind="stable")
    lens = counts[by_len]
    stops = np.cumsum(lens)  # where each row ends in the gather
    gather = (np.repeat(starts[by_len] + lens - stops, lens)
              + np.arange(lens.sum()))
    nbr, w_rows = indices[gather], data[gather]
    at = np.full(qubo.dim, -1)
    at[bits] = np.arange(bits.size)
    inside = np.flatnonzero(at[nbr] >= 0)
    block = np.diag(diag[bits])
    block[by_len[np.searchsorted(stops, inside, side="right")],
          at[nbr[inside]]] = 0.5 * w_rows[inside]

    # one dot per row (a matmul over equally long rows is one dot per row)
    # sums in the order of the reference loops; a bincount would not
    row = diag[bits] * xf[bits]
    lengths, firsts = np.unique(lens, return_index=True)
    for c, a, b in zip(lengths.tolist(), firsts.tolist(),
                       [*firsts[1:].tolist(), lens.size]):
        if c:
            run = slice(stops[a] - c, stops[b - 1])
            row[by_len[a:b]] += 0.5 * np.matmul(
                w_rows[run].reshape(-1, 1, c), xf[nbr[run]].reshape(-1, c, 1)
            ).ravel()

    # lin[a] = 2 x' Q_sym d_a and pair[a, b] = d_a' Q_sym d_b.  bincount adds
    # each cycle's (pair's) terms one by one from 0.0 in input order, the
    # (pa, pb) order of the reference loops, so the reduced QUBO equals
    # theirs bit for bit.  A D B D' matmul rounds differently, and that
    # moves brute force's tie-break between equal-scoring selections.
    lin = np.bincount(owner, weights=2.0 * vals * row, minlength=m)
    terms = vals[:, None] * vals[None, :] * block
    pair = np.bincount((owner[:, None] * m + owner[None, :]).ravel(),
                       weights=terms.ravel(), minlength=m * m).reshape(m, m)
    rows, cols = np.nonzero(~np.tri(m, k=-1, dtype=bool))  # upper triangle
    upper = pair[rows, cols]
    return Qubo(m, rows, cols,
                np.where(rows == cols, lin[rows] + upper, 2.0 * upper))


def _factored_alpha_qubo(f: FactoredObjective, x: np.ndarray,
                         cycles: list[CycleSet],
                         fields: tuple[np.ndarray, np.ndarray] | None) -> Qubo:
    """build_alpha_qubo on a FactoredObjective, from the moved blocks only.

    A swap moves block (t, j) from state o to u, bit `old` to bit `new`, and
    the penalty forms by d = V[new] - V[old]: alone it scores grad[t] . d +
    quad[t] d . d + h[new] - h[old].  With another swap at t it adds
    2 quad[t] d . d'; with one at t + 1 on j, W[u, u'] - W[u, o'] - W[o, u']
    + W[o, o'].  No sum is a BLAS product, whose rounding, and so the ties
    the scores break, would depend on the BLAS thread count.
    """
    on, off, owner = _swaps(x, cycles)
    x = np.asarray(x)
    m = len(cycles)
    n, k = f.transition.shape[:2]
    if fields is None:
        fields = f.fields(decode_one_hot(x, x.size // (n * k), n, k))
    grad, h = fields
    old = np.where(x[on] > x[off], on, off)  # the set bit of the swap
    new = on + off - old
    quad, V = f.penalty.quad, f.penalty.V
    t = old // (n * k)
    d = V[new % (n * k)] - V[old % (n * k)]  # swaps x R
    e, g = np.nonzero(t[:, None] == t)  # swap pairs at one timepoint
    blocks = old // k  # t * n + j
    lo, hi = np.nonzero(blocks[:, None] + n == blocks)  # at t and t + 1
    # flat index of W[j, i, i'] at the lower and upper swap of each pair
    o, u = old % k, new % k
    j = (blocks[lo] % n) * (k * k)
    o_lo, u_lo, o_hi, u_hi = j + k * o[lo], j + k * u[lo], o[hi], u[hi]
    W = f.transition.ravel()

    # a term of cycles a and b lands on P[min(a, b), max(a, b)]: the
    # reduced QUBO's diagonal for one cycle, a coupling for two
    a = np.concatenate([owner, owner[e], owner[lo]])
    b = np.concatenate([owner, owner[g], owner[hi]])
    P = np.bincount(m * np.minimum(a, b) + np.maximum(a, b), np.concatenate([
        (grad[t] * d).sum(axis=1) + h[new] - h[old],
        np.einsum("er,er->e", (quad[t] * d)[e], d[g]),
        (W[u_lo + u_hi] - W[u_lo + o_hi]) - (W[o_lo + u_hi] - W[o_lo + o_hi])
    ]), minlength=m * m)
    return Qubo.from_upper(P.reshape(m, m))


def _enumerate_members(T: int, n: int, k: int) -> list[StateChange]:
    return [
        StateChange(t, j, i)
        for t in range(T)
        for j in range(n)
        for i in range(1, k + 1)
    ]


def alpha_expansion(
    inst: ProblemInstance,
    qubo: Qubo,
    x0: np.ndarray,
    batch_size: int = 16,
    budget: Budget | None = None,
    seed: int = 0,
) -> SolveResult:
    """Minimize a QUBO over feasible schedules by batched cycle moves.

    Every candidate state change of every resource is proposed at least once
    per epoch, in a seeded random order.  Batches of rectified, pairwise
    disjoint moves (at most batch_size, which must be at least 1) are scored
    through build_alpha_qubo, from qubo.factored when build_objective set it,
    and solved exactly, or by tabu search above 20 moves; a combination is
    applied only if its exact score delta is negative, or zero while
    strictly reducing the switch count during the first epoch.  Stops after
    an epoch without any accepted move, or when the budget (max_iterations
    counts epochs) runs out.  budget.max_iterations = 0 returns the start
    point.
    """
    if budget is None:
        budget = Budget(max_iterations=1000)
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    x = np.asarray(x0).astype(np.int8).copy()
    if qubo.dim != inst.dim or x.shape != (inst.dim,):
        raise ValueError("qubo/x0 dimensions do not match the instance")
    try:
        Z = decode_one_hot(x, inst.T, inst.n, inst.k)
    except ValueError as exc:
        raise InfeasibleStartError(str(exc)) from exc
    violation = first_adjacency_violation(Z)
    if violation is not None:
        raise InfeasibleStartError(f"start schedule jumps >1 state at {violation}")

    # moves are scored from the factored form when the objective has one
    # for this instance's layout; its fields change only with accepted moves
    objective = qubo.factored
    if objective is None or objective.transition.shape[:2] != (inst.n, inst.k):
        objective = qubo
    fields = None if objective is qubo else objective.fields(Z)
    rng = np.random.default_rng(seed)
    started = time.monotonic()
    deadline = started + budget.time_limit
    score = qubo.evaluate(x)
    members = _enumerate_members(inst.T, inst.n, inst.k)
    trace: list[tuple[int, float]] = [(0, score)]
    steps = 0
    epoch = 0
    tol = 1e-9

    while epoch < budget.max_iterations:
        epoch += 1
        order = rng.permutation(len(members))
        pool = [members[i] for i in order.tolist()]
        accepted_moves = 0
        while pool and time.monotonic() <= deadline:
            batch, pool = sample_disjoint_changes(pool, batch_size, inst.k)
            batch = [ch for ch in batch if Z[ch.t, ch.j] != ch.i_new]
            cycles: list[CycleSet] = []
            requeue: list[StateChange] = []
            used: set[tuple[int, int]] = set()  # blocks the cycles touch
            for ch in batch:
                cand = rectify(Z, ch, inst.k)
                if used.isdisjoint(cand.touched):
                    cycles.append(cand)
                    used |= cand.touched
                else:
                    # rare: rectified walks collided although the sampled
                    # changes were k timepoints apart; retry later this epoch
                    requeue.append(ch)
            pool.extend(requeue)
            if not cycles:
                continue
            reduced = build_alpha_qubo(objective, x, cycles, fields)
            sub_req = SolveRequest(
                qubo=reduced,
                seed=int(rng.integers(2**31)),
                budget=Budget(max_iterations=200 * max(1, reduced.dim)),
            )
            sub = (brute_force(sub_req) if reduced.dim <= 20
                   else tabu_search(sub_req))
            steps += 1
            alpha = sub.best
            delta = reduced.evaluate(alpha)
            if not alpha.any():
                continue
            # the cycles touch disjoint blocks, so they apply one by one
            x_new = x
            for sel, cyc in zip(alpha.tolist(), cycles):
                if sel:
                    x_new = cyc.apply(x_new)
            Z_new = decode_one_hot(x_new, inst.T, inst.n, inst.k)
            take = delta < -tol or (
                epoch == 1 and abs(delta) <= tol
                and count_switches(inst, Z_new) < count_switches(inst, Z)
            )
            if take:
                x, Z = x_new, Z_new
                if fields is not None:
                    fields = objective.fields(Z)
                score += delta
                accepted_moves += int(alpha.sum())
                trace.append((steps, score))
        if pool or accepted_moves == 0:  # out of time, or nothing accepted
            break
    # re-anchor the arithmetic so the reported score is exact, not summed deltas
    score = qubo.evaluate(x)
    wall = time.monotonic() - started
    return SolveResult(best=x, score=float(score), iterations=steps,
                       wall_seconds=wall, trace=trace)
