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

import time
from dataclasses import dataclass

import numpy as np

from .model import (
    ProblemInstance,
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
    for change in pool:
        if len(accepted) >= count:
            skipped.append(change)
            continue
        clash = any(
            other.j == change.j and abs(other.t - change.t) < k
            for other in accepted
        )
        if clash:
            skipped.append(change)
        else:
            accepted.append(change)
    return accepted, skipped


def build_alpha_qubo(qubo: Qubo, x: np.ndarray, cycles: list[CycleSet]) -> Qubo:
    """Reduced QUBO over move-selection bits.

    Bit i of the reduced problem means "apply cycles[i]".  For any selection
    alpha, reduced.evaluate(alpha) equals
    qubo.evaluate(x with the selected cycles applied) - qubo.evaluate(x),
    provided the cycles touch pairwise disjoint blocks (else
    NonDisjointCyclesError).
    """
    for a in range(len(cycles)):
        for b in range(a + 1, len(cycles)):
            if not cycles[a].disjoint_from(cycles[b]):
                raise NonDisjointCyclesError(
                    f"cycles {a} and {b} share blocks "
                    f"{sorted(cycles[a].touched & cycles[b].touched)}"
                )
    x = np.asarray(x)
    m = len(cycles)
    # sparse differences d_a with x + d_a = cycles[a].apply(x): the swaps
    # whose two bits differ, each giving (on, off) with values
    # (x[off] - x[on], x[on] - x[off]); owner[i] is the cycle of entry i
    swaps = np.array([s for c in cycles for s in c.swaps],
                     dtype=np.int64).reshape(-1, 2)
    owner = np.repeat(np.arange(m), [len(c.swaps) for c in cycles])
    ends = x[swaps].astype(float)
    moved = ends[:, 0] != ends[:, 1]
    bits = swaps[moved].ravel()
    vals = (ends[moved][:, ::-1] - ends[moved]).ravel()
    owner = np.repeat(owner[moved], 2)
    touched, pos = np.unique(bits, return_inverse=True)
    diag, neighbors, weights = qubo.adjacency()
    indptr, indices, data = qubo.csr()
    xf = x.astype(float)

    # symmetric block over the touched bits, from one gather of their CSR
    # rows: block[p, p] is Q[u, u] and block[p, q] is Q[u, v] / 2
    at = np.full(qubo.dim, -1)
    at[touched] = np.arange(touched.size)
    starts = indptr[touched]
    counts = indptr[touched + 1] - starts
    offsets = np.cumsum(counts) - counts  # where each row lands in the gather
    gather = np.repeat(starts - offsets, counts) + np.arange(counts.sum())
    p_u = np.repeat(np.arange(touched.size), counts)
    p_v = at[indices[gather]]
    inside = p_v >= 0
    block = np.diag(diag[touched])
    block[p_u[inside], p_v[inside]] = 0.5 * data[gather[inside]]

    # (Q_sym x)[u] for each touched bit: one dot per bit keeps the order in
    # which the reference (the scalar loops in tests/test_alphaexp.py) sums
    row = (diag[touched] * xf[touched]).tolist()
    for p, u in enumerate(touched.tolist()):
        if neighbors[u].size:
            row[p] += 0.5 * float(weights[u] @ xf[neighbors[u]])
    row = np.array(row)

    # lin[a] = 2 x' Q_sym d_a and pair[a, b] = d_a' Q_sym d_b.  bincount adds
    # each cycle's (pair's) terms one by one from 0.0 in input order, the
    # (pa, pb) order of the reference loops, so the reduced QUBO equals
    # theirs bit for bit.  A D B D' matmul rounds differently, and that
    # moves brute force's tie-break between equal-scoring selections.
    lin = np.bincount(owner, weights=2.0 * vals * row[pos], minlength=m)
    terms = vals[:, None] * vals[None, :] * block[pos[:, None], pos[None, :]]
    pair = np.bincount((owner[:, None] * m + owner[None, :]).ravel(),
                       weights=terms.ravel(), minlength=m * m).reshape(m, m)
    rows, cols = np.triu_indices(m)
    upper = pair[rows, cols]
    return Qubo(m, rows, cols,
                np.where(rows == cols, lin[rows] + upper, 2.0 * upper))


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
    on_epoch=None,
) -> SolveResult:
    """Minimize a QUBO over feasible schedules by batched cycle moves.

    Every candidate state change of every resource is proposed at least once
    per epoch, in a seeded random order.  Batches of rectified, pairwise
    disjoint moves (at most batch_size, which must be at least 1) are scored
    through build_alpha_qubo and solved exactly, or by tabu search above 20
    moves; a combination is applied only if its exact score delta is
    negative, or zero while strictly reducing the switch count during the
    first epoch.  Stops after an epoch without any accepted move, or when
    the budget (max_iterations counts epochs) runs out.
    budget.max_iterations = 0 returns the start point.

    on_epoch, when given, is called as on_epoch(epoch_index, accepted_moves,
    score) after every epoch.
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

    rng = np.random.default_rng(seed)
    started = time.monotonic()
    deadline = started + budget.time_limit
    score = qubo.evaluate(x)
    members = _enumerate_members(inst.T, inst.n, inst.k)
    trace: list[tuple[int, float]] = [(0, score)]
    steps = 0
    epoch = 0
    tol = 1e-9

    def switches(Zm: np.ndarray) -> int:
        return int(np.count_nonzero(np.diff(Zm, axis=0)))

    while epoch < budget.max_iterations:
        epoch += 1
        order = rng.permutation(len(members))
        pool = [members[i] for i in order.tolist()]
        accepted_moves = 0
        out_of_time = False
        while pool:
            if time.monotonic() > deadline:
                out_of_time = True
                break
            batch, pool = sample_disjoint_changes(pool, batch_size, inst.k)
            batch = [ch for ch in batch if Z[ch.t, ch.j] != ch.i_new]
            cycles: list[CycleSet] = []
            requeue: list[StateChange] = []
            for ch in batch:
                cand = rectify(Z, ch, inst.k)
                if all(cand.disjoint_from(c) for c in cycles):
                    cycles.append(cand)
                else:
                    # rare: rectified walks collided although the sampled
                    # changes were k timepoints apart; retry later this epoch
                    requeue.append(ch)
            pool.extend(requeue)
            if not cycles:
                continue
            reduced = build_alpha_qubo(qubo, x, cycles)
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
            x_new = x.copy()
            for sel, cyc in zip(alpha.tolist(), cycles):
                if sel:
                    x_new = cyc.apply(x_new)
            Z_new = decode_one_hot(x_new, inst.T, inst.n, inst.k)
            take = delta < -tol or (
                epoch == 1 and abs(delta) <= tol and switches(Z_new) < switches(Z)
            )
            if take:
                x, Z = x_new, Z_new
                score += delta
                accepted_moves += int(alpha.sum())
                trace.append((steps, score))
        if on_epoch is not None:
            on_epoch(epoch, accepted_moves, score)
        if out_of_time or accepted_moves == 0:
            break
    # re-anchor the arithmetic so the reported score is exact, not summed deltas
    score = qubo.evaluate(x)
    wall = time.monotonic() - started
    return SolveResult(best=x, score=float(score), iterations=steps,
                       wall_seconds=wall, trace=trace)
