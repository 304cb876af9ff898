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

import functools
import itertools
import time
from dataclasses import dataclass

import numpy as np

from .encodings import FactoredObjective
from .model import ProblemInstance, decode_one_hot, first_adjacency_violation
from .qubo import Qubo, _bit_vector, _integer
from .solvers import (Budget, SolveRequest, SolveResult, brute_force,
                      tabu_search)

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

    def disjoint_from(self, other: "CycleSet") -> bool:
        return not (self.touched & other.touched)


def rectify(Z, change: StateChange, k: int) -> CycleSet:
    """Extend a state change into an adjacency-preserving cycle set.

    Starting from the changed timepoint the walk moves outward in both
    directions; any neighbor left more than one state away from its inner
    neighbor's new value is pulled to distance exactly one, on the side
    nearest its original state.  Applying the result to an adjacency-feasible
    schedule yields an adjacency-feasible schedule with Z[t, j] = i_new.
    Z is the (T, n) schedule as an array or as its rows of Python ints
    (Z.tolist(), which alpha_expansion keeps: they read faster).
    """
    rows = Z.tolist() if isinstance(Z, np.ndarray) else Z
    t0, j, target = change.t, change.j, change.i_new
    stride = len(rows[0]) * k  # bits per timepoint
    base = j * k - 1  # state i of block (t, j) is bit t * stride + base + i
    swaps: list[tuple[int, int]] = []
    touched: list[tuple[int, int]] = []
    if rows[t0][j] != target:
        at = t0 * stride + base
        swaps.append((at + rows[t0][j], at + target))
        touched.append((t0, j))
    for step in (-1, 1):
        inner = target
        t = t0 + step
        while 0 <= t < len(rows):
            orig = rows[t][j]
            if abs(orig - inner) <= 1:
                break
            pulled = inner - 1 if orig < inner else inner + 1
            at = t * stride + base
            swaps.append((at + orig, at + pulled))
            touched.append((t, j))
            inner = pulled
            t += step
    return CycleSet(swaps=tuple(swaps), touched=frozenset(touched))


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
        if times and any(abs(t - change.t) < k for t in times):
            skipped.append(change)
        else:
            times.append(change.t)
            accepted.append(change)
    return accepted, skipped


def _swaps(x: np.ndarray, cycles: list[CycleSet]) -> list[list[int]]:
    """[owner, old, new] of the swaps whose two bits differ.

    Swap i of cycle owner[i] moves the set bit old[i] of its block to
    new[i].  Raises NonDisjointCyclesError if two cycles share a block or a
    bit.
    """
    touched_sets = [c.touched for c in cycles]
    if sum(map(len, touched_sets)) != len(frozenset().union(*touched_sets)):
        for a, b in itertools.combinations(range(len(cycles)), 2):
            if not cycles[a].disjoint_from(cycles[b]):
                raise NonDisjointCyclesError(
                    f"cycles {a} and {b} share blocks "
                    f"{sorted(cycles[a].touched & cycles[b].touched)}"
                )
    bit = memoryview(np.asarray(x))  # reads Python ints
    owner, old, new = [], [], []
    for a, cycle in enumerate(cycles):
        for on, off in cycle.swaps:
            x_on, x_off = bit[on], bit[off]
            if x_on != x_off:
                owner.append(a)
                old.append(on if x_on > x_off else off)
                new.append(off if x_on > x_off else on)
    if len(set(old + new)) != 2 * len(old):
        raise NonDisjointCyclesError("the cycles move one bit twice")
    return [owner, old, new]


@functools.cache
def _pair_keys(m: int) -> np.ndarray:
    """key[a, b] = m * min(a, b) + max(a, b): the flat index in an m x m
    table of the upper-triangle entry for cycles a and b."""
    a = np.arange(m)
    key = m * np.minimum.outer(a, a) + np.maximum.outer(a, a)
    key.flags.writeable = False
    return key


def build_alpha_qubo(objective: Qubo | FactoredObjective, x: np.ndarray,
                     cycles: list[CycleSet],
                     fields: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> Qubo:
    """Reduced QUBO over move-selection bits, from the moved blocks only.

    Bit i of the reduced problem means "apply cycles[i]".  For any selection
    alpha, reduced.evaluate(alpha) equals, up to rounding,
    qubo.evaluate(x with the selected cycles applied) - qubo.evaluate(x) for
    the objective's Qubo.  objective is a FactoredObjective or a Qubo that
    carries one in qubo.factored, as build_objective's results do (else
    ValueError).  x is one-hot; fields are the record's fields at x's
    schedule, computed here unless the caller keeps them.  The cycles must
    touch pairwise disjoint blocks and move no bit twice (else
    NonDisjointCyclesError), and each swap must stay inside its (timepoint,
    resource) block (else ValueError), as rectify makes them.

    A swap moves block (t, j) from state o to u, bit `old` to bit `new`, and
    the penalty forms by d = V[new] - V[old]: alone it scores grad[t] . d +
    quad[t] d . d + h[new] - h[old].  With another swap at t it adds
    2 quad[t] d . d'; with one at t + 1 on j, W[u, u'] - W[u, o'] - W[o, u']
    + W[o, o'].  No sum is a BLAS product, whose rounding, and so the ties
    the scores break, would depend on the BLAS thread count.
    """
    f = getattr(objective, "factored", objective)
    if f is None:
        raise ValueError("the Qubo carries no factored record to score moves "
                         "from (build_objective attaches one)")
    swaps = np.array(_swaps(x, cycles), dtype=np.int64).reshape(3, -1)
    owner, moved = swaps[0], swaps[1:]  # moved: rows old, new
    m = len(cycles)
    n, k = f.transition.shape[:2]
    blocks, new_blocks = moved // k  # t * n + j
    if (new_blocks != blocks).any():
        raise ValueError("a swap moves a bit out of its (timepoint, resource) "
                         "block")
    if fields is None:
        x = np.asarray(x)
        fields = f.fields(decode_one_hot(x, x.size // (n * k), n, k))
    grad, h = fields
    quad, V = f.penalty.quad, f.penalty.V
    t = blocks // n
    slot = moved % (n * k)  # j * k + i: a row of V, and a row of W over j, i
    V_old, V_new = V[slot]
    d = V_new - V_old  # swaps x R
    h_old, h_new = h[moved]
    e, g = (t[:, None] == t).nonzero()  # swap pairs at one timepoint
    lo, hi = (blocks[:, None] + n == blocks).nonzero()  # at t and t + 1
    # flat index of W[j, i, i'] = (j * k + i) * k + i' at each pair of
    # states: u u', u o', o u', o o'
    corner = (k * slot[::-1, lo])[:, None] + (moved % k)[::-1, hi]
    W = f.transition.ravel()[corner]
    # a term of swaps i and i' lands on P[key[i, i']], the reduced QUBO's
    # diagonal for one cycle, a coupling for two
    key = _pair_keys(m)[owner][:, owner]
    P = np.bincount(np.concatenate([key.diagonal(), key[e, g], key[lo, hi]]),
                    np.concatenate([
        (grad[t] * d).sum(axis=1) + h_new - h_old,
        np.einsum("er,er->e", (quad[t] * d)[e], d[g]),
        (W[0, 0] - W[0, 1]) - (W[1, 0] - W[1, 1])
    ]), minlength=m * m)
    P = P.reshape(m, m)
    rows, cols = P.nonzero()  # row-major over the upper triangle: canonical
    return Qubo._from_canonical(m, rows, cols, P[rows, cols])


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
    through build_alpha_qubo from qubo.factored, the record build_objective
    attaches and all alpha reads (ValueError if missing or of another layout),
    and solved exactly, or by tabu search above 20 moves; a combination is
    applied only if its exact score delta is below -1e-9.  Stops after
    an epoch without any accepted move, or when the budget (max_iterations
    counts epochs) runs out.  budget.max_iterations = 0 returns the start
    point.
    """
    if budget is None:
        budget = Budget(max_iterations=1000)
    if _integer(batch_size, "batch_size") < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if _integer(seed, "seed") < 0:
        raise ValueError("seed must be non-negative")
    x = _bit_vector(x0, inst.dim, "x0")
    objective = qubo.factored
    if objective is None or objective.linear.size != inst.dim or (
            objective.transition.shape[:2] != (inst.n, inst.k)):
        raise ValueError("qubo carries no factored record of this instance's "
                         "layout (build_objective attaches one)")
    try:
        Z = decode_one_hot(x, inst.T, inst.n, inst.k)
    except ValueError as exc:
        raise InfeasibleStartError(str(exc)) from exc
    violation = first_adjacency_violation(Z)
    if violation is not None:
        raise InfeasibleStartError(f"start schedule jumps >1 state at {violation}")

    fields = objective.fields(Z)  # they change only with accepted moves
    Zl = Z.tolist()  # Z's rows of Python ints, which read faster
    rng = np.random.default_rng(seed)
    started = time.monotonic()
    deadline = started + budget.time_limit
    score = objective.evaluate(x)
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
            # sample the head of the pool, widened until the batch is full or
            # the head is the whole pool: the batch of the whole pool, and
            # the rest of the pool is not copied
            size = 2 * batch_size
            while True:
                head = pool[:size]
                batch, rest = sample_disjoint_changes(head, batch_size, inst.k)
                if len(batch) == batch_size or len(head) == len(pool):
                    break
                size *= 2
            pool[:len(head)] = rest
            batch = [ch for ch in batch if Zl[ch.t][ch.j] != ch.i_new]
            cycles: list[CycleSet] = []
            requeue: list[StateChange] = []
            used: set[tuple[int, int]] = set()  # blocks the cycles touch
            for ch in batch:
                cand = rectify(Zl, ch, inst.k)
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
            if not alpha.any():
                continue
            delta = reduced.evaluate(alpha)
            chosen = [cyc for sel, cyc in zip(alpha.tolist(), cycles) if sel]
            # the cycles touch disjoint blocks, so their swaps apply at once
            on, off = np.array([pair for cyc in chosen for pair in cyc.swaps],
                               dtype=np.int64).reshape(-1, 2).T
            x_new = x.copy()
            x_new[on], x_new[off] = x[off], x[on]
            Z_new = decode_one_hot(x_new, inst.T, inst.n, inst.k)
            if delta < -tol:
                x, Z = x_new, Z_new
                times = [t for cyc in chosen for t, _ in cyc.touched]
                start, stop = min(times), max(times) + 1
                Zl[start:stop] = Z[start:stop].tolist()
                objective.refresh_fields(fields, Z, start, stop)
                score += delta
                accepted_moves += len(chosen)
                trace.append((steps, score))
        if pool or accepted_moves == 0:  # out of time, or nothing accepted
            break
    # re-anchor: report the exact score of x, not summed deltas
    return SolveResult(best=x, score=objective.evaluate(x), iterations=steps,
                       wall_seconds=time.monotonic() - started, trace=trace)
