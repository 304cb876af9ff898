"""QUBO encodings of the re-dispatch constraints and costs.

Six builders map a ProblemInstance onto sparse Qubos over the one-hot bit
layout described in model.py:

* one-hot and state-adjacency hard constraints,
* production cost and switching cost,
* power-target and line-load soft penalties.

The two soft penalties encode an inequality h(x) >= 0 through the quadratic
Taylor expansion of exp(-h), i.e. zeta(h) = 1 - h + h^2/2, optionally with h
rescaled by a per-constraint bound so the argument never exceeds 1 on
feasible schedules.  penalty_scalar / power_penalty / load_penalty are plain
scalar re-computations of those penalties and serve as the reference the
matrix builders are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ProblemInstance, encode_one_hot
from .qubo import Qubo, normalize_range, weighted_sum

__all__ = [
    "InfeasibleBoundError",
    "PenaltyBounds",
    "compute_bounds",
    "penalty_scalar",
    "power_penalty",
    "load_penalty",
    "build_onehot_qubo",
    "build_adjacency_qubo",
    "build_cost_qubo",
    "build_switch_qubo",
    "build_power_qubo",
    "build_load_qubo",
    "extremal_schedules",
    "extremal_scores",
    "add_hard_terms",
    "build_objective",
]


class InfeasibleBoundError(ValueError):
    """A penalty normalization bound came out non-positive."""


@dataclass(frozen=True)
class PenaltyBounds:
    """Reciprocal normalization factors for the two soft penalties.

    power[t] is the largest achievable slack of the power constraint at
    timepoint t; load[t, l] the largest achievable headroom of line l.  The
    penalties divide their arguments by these, keeping them at most 1 on
    every one-hot schedule.
    """

    power: np.ndarray
    load: np.ndarray


def compute_bounds(inst: ProblemInstance) -> PenaltyBounds:
    """Largest slack of each soft constraint over all schedules.

    Raises InfeasibleBoundError naming the first constraint whose bound is
    not strictly positive (the target or limit is unreachable even at the
    extreme schedule).
    """
    power = inst.p[:, -1].sum() - inst.tau
    bad = np.flatnonzero(power <= 0)
    if bad.size:
        t = int(bad[0])
        raise InfeasibleBoundError(
            f"power target tau[{t}]={inst.tau[t]:g} is not below the maximum "
            f"producible {inst.p[:, -1].sum():g}"
        )
    # Smallest achievable flow per (line, resource): state-wise minimum of
    # p * S, which is p[:, 0] * S whenever sensitivities are non-negative.
    per_resource = np.min(inst.p[:, :, None] * inst.S[:, None, :], axis=1)
    min_flow = per_resource.sum(axis=0)
    load = inst.M - min_flow[None, :]
    if np.any(load <= 0):
        t, l = np.unravel_index(int(np.argmax(load <= 0)), load.shape)
        raise InfeasibleBoundError(
            f"line limit M[{t},{l}]={inst.M[t, l]:g} is not above the minimum "
            f"controllable flow {min_flow[l]:g}"
        )
    return PenaltyBounds(power=power, load=load)


def penalty_scalar(h: float) -> float:
    """Quadratic inequality penalty zeta(h) = 1 - h + h^2 / 2."""
    return 1.0 - h + 0.5 * h * h


def power_penalty(
    inst: ProblemInstance,
    x: np.ndarray,
    bounds: PenaltyBounds | None = None,
    normalized: bool = True,
) -> float:
    """Scalar power-target penalty of a bit vector, summed over timepoints.

    Works on any bit vector, feasible or not.  Reference implementation for
    build_power_qubo.
    """
    x = np.asarray(x, dtype=float).reshape(inst.T, inst.n * inst.k)
    w = inst.p.ravel()
    if normalized and bounds is None:
        bounds = compute_bounds(inst)
    total = 0.0
    for t in range(inst.T):
        slack = float(w @ x[t]) - inst.tau[t]
        if normalized:
            slack /= bounds.power[t]
        total += penalty_scalar(slack)
    return total


def load_penalty(
    inst: ProblemInstance,
    x: np.ndarray,
    bounds: PenaltyBounds | None = None,
    normalized: bool = True,
) -> float:
    """Scalar line-load penalty of a bit vector, summed over (t, line) pairs.

    Reference implementation for build_load_qubo.
    """
    x = np.asarray(x, dtype=float).reshape(inst.T, inst.n * inst.k)
    if normalized and bounds is None:
        bounds = compute_bounds(inst)
    total = 0.0
    for t in range(inst.T):
        for l in range(inst.L):
            v = (inst.p * inst.S[:, l : l + 1]).ravel()
            headroom = inst.M[t, l] - float(v @ x[t])
            if normalized:
                headroom /= bounds.load[t, l]
            total += penalty_scalar(headroom)
    return total


def build_onehot_qubo(T: int, n: int, k: int) -> Qubo:
    """Hard constraint scoring -T*n exactly on one-hot vectors.

    Each (t, a) block contributes m^2 - 2m for m set bits, minimized only
    at m = 1, so any violation raises the score above -T*n.
    """
    i, j = np.triu_indices(k)
    base = (np.arange(T * n) * k)[:, None]
    vals = np.where(i == j, -1.0, 2.0)
    return Qubo(T * n * k, base + i, base + j, np.tile(vals, T * n))


def _transition_qubo(T: int, n: int, k: int, weight: np.ndarray) -> Qubo:
    """Couples bit (t, a, i) with (t+1, a, j) by weight[a, i, j] for t < T - 1."""
    lo = (np.arange((T - 1) * n) * k).reshape(T - 1, n, 1, 1)
    i, j = np.indices((k, k))
    rows, cols = np.broadcast_arrays(lo + i, lo + n * k + j)
    return Qubo(T * n * k, rows, cols, np.broadcast_to(weight, rows.shape))


def build_adjacency_qubo(T: int, n: int, k: int) -> Qubo:
    """Hard constraint counting state jumps of more than 1 between timepoints.

    Couples bit (t, a, i) with (t+1, a, i') whenever |i - i'| > 1; on one-hot
    vectors the score is exactly the number of violating transitions.
    """
    i, j = np.indices((k, k))
    return _transition_qubo(T, n, k, (np.abs(i - j) > 1).astype(float))


def build_cost_qubo(inst: ProblemInstance) -> Qubo:
    """Diagonal QUBO scoring the production cost of the set bits."""
    idx = np.arange(inst.dim)
    return Qubo(inst.dim, idx, idx, inst.c.ravel())


def build_switch_qubo(inst: ProblemInstance) -> Qubo:
    """Absolute MW change between consecutive timepoints, per resource.

    On one-hot vectors this scores sum_t sum_a |p(state at t+1) - p(state at t)|
    before the gamma weight.
    """
    diff = np.abs(inst.p[:, :, None] - inst.p[:, None, :])
    return _transition_qubo(inst.T, inst.n, inst.k, diff)


def _rank_one_block(weights: np.ndarray, linear: float, quad: float) -> np.ndarray:
    """Coefficients of linear*(w.x) + quad*(w.x)^2 for binary x.

    Returns one square matrix: the x_j coefficient at [j, j] and the j < j2
    cross coefficients at [j, j2]; the lower triangle is not used.
    """
    block = 2.0 * quad * np.outer(weights, weights)
    np.fill_diagonal(block, linear * weights + quad * weights * weights)
    return block


def _block_diagonal_qubo(dim: int, upper: tuple, vals: np.ndarray,
                         offset: float) -> Qubo:
    """Qubo holding vals[t] at the upper triangle upper = (iu, ju) of the
    nk x nk block over bits t*nk .. (t+1)*nk - 1."""
    iu, ju = upper
    base = (np.arange(vals.shape[0]) * (dim // vals.shape[0]))[:, None]
    return Qubo(dim, base + iu, base + ju, vals, offset)


def build_power_qubo(
    inst: ProblemInstance,
    bounds: PenaltyBounds | None = None,
    normalized: bool = True,
) -> Qubo:
    """Quadratic penalty steering total production above the target.

    Expands sum_t zeta(f_t * (P_t(x) - tau_t)) with f_t the reciprocal power
    bound (1 when unnormalized); constants land in the offset.
    """
    if normalized and bounds is None:
        bounds = compute_bounds(inst)
    w = inst.p.ravel()
    upper = np.triu_indices(w.size)
    vals = np.empty((inst.T, upper[0].size))  # one block at a time, not T
    offset = 0.0
    for t in range(inst.T):
        f = 1.0 / bounds.power[t] if normalized else 1.0
        tau = inst.tau[t]
        # zeta(f*(w.x - tau)) = const + (-f - f^2 tau)(w.x) + (f^2/2)(w.x)^2
        offset += 1.0 + f * tau + 0.5 * (f * tau) ** 2
        vals[t] = _rank_one_block(w, -f - f * f * tau, 0.5 * f * f)[upper]
    return _block_diagonal_qubo(inst.dim, upper, vals, offset)


def build_load_qubo(
    inst: ProblemInstance,
    bounds: PenaltyBounds | None = None,
    normalized: bool = True,
) -> Qubo:
    """Quadratic penalty steering every line load below its limit.

    Expands sum_{t,l} zeta(f_{t,l} * (M_{t,l} - flow_{t,l}(x))) with f the
    reciprocal headroom bound (1 when unnormalized).
    """
    if normalized and bounds is None:
        bounds = compute_bounds(inst)
    nk = inst.n * inst.k
    upper = np.triu_indices(nk)
    vals = np.empty((inst.T, upper[0].size))
    offset = 0.0
    for t in range(inst.T):
        block = np.zeros((nk, nk))
        for l in range(inst.L):
            f = 1.0 / bounds.load[t, l] if normalized else 1.0
            m = inst.M[t, l]
            v = (inst.p * inst.S[:, l : l + 1]).ravel()
            # zeta(f*(m - v.x)) = const + (f - f^2 m)(v.x) + (f^2/2)(v.x)^2
            offset += 1.0 - f * m + 0.5 * (f * m) ** 2
            block += _rank_one_block(v, f - f * f * m, 0.5 * f * f)
        vals[t] = block[upper]
    return _block_diagonal_qubo(inst.dim, upper, vals, offset)


def extremal_schedules(inst: ProblemInstance, which: str) -> tuple[np.ndarray, np.ndarray]:
    """(Z_min, Z_max) schedules pinning a term's score range over one-hot x.

    The cost term is separable, so its exact extremes pick the cheapest and
    dearest state per (timepoint, resource); with state-monotone costs that
    degenerates to all-state-1 / all-state-k.  load bottoms out with every
    resource in state 1 and peaks in state k; power is the reverse.  switch
    bottoms out on any constant schedule and peaks alternating each resource
    between its two most distant levels.
    """
    all_min = np.ones((inst.T, inst.n), dtype=int)
    all_max = np.full((inst.T, inst.n), inst.k, dtype=int)
    if which == "cost":
        return np.argmin(inst.c, axis=2) + 1, np.argmax(inst.c, axis=2) + 1
    if which == "load":
        return all_min, all_max
    if which == "power":
        return all_max, all_min
    if which == "switch":
        alternating = np.where(
            (np.arange(inst.T) % 2 == 0)[:, None], all_min, all_max
        )
        return all_min.copy(), alternating
    raise ValueError(f"unknown term {which!r}")


def extremal_scores(inst: ProblemInstance, which: str,
                    qubo: Qubo) -> tuple[float, float]:
    """Score range (lo, hi) of the term qubo over its extreme schedules."""
    z_lo, z_hi = extremal_schedules(inst, which)
    lo = qubo.evaluate(encode_one_hot(z_lo, inst.T, inst.n, inst.k))
    hi = qubo.evaluate(encode_one_hot(z_hi, inst.T, inst.n, inst.k))
    return lo, hi


def add_hard_terms(
    inst: ProblemInstance, soft_terms: list[tuple[float, Qubo]], weight: float
) -> Qubo:
    """Weighted sum of the soft terms plus the hard constraints times weight.

    The soft terms are summed in the same pass as the one-hot and adjacency
    blocks; summing them into one Qubo first would hold an extra copy of the
    objective and walk it twice.
    """
    return weighted_sum([
        *soft_terms,
        (weight, build_onehot_qubo(inst.T, inst.n, inst.k)),
        (weight, build_adjacency_qubo(inst.T, inst.n, inst.k)),
    ])


def build_objective(
    inst: ProblemInstance,
    score_normalized: bool = False,
    extra_hard_weight: float = 1.0,
) -> Qubo:
    """Compose the full objective from soft terms and hard constraints.

    The soft side is weights[0] * power + weights[1] * load + weights[2] * cost
    + weights[3] * gamma * switch; soft terms with weight 0 are skipped.  The
    one-hot and adjacency constraints always enter, scaled by
    extra_hard_weight (1 reproduces the plain formulation).  With
    score_normalized each soft term is affinely rescaled so its prescribed
    extreme schedules score 0 and 1; a term whose extremes score the same
    is constant on one-hot schedules and is left out.
    """
    w_power, w_load, w_cost, w_switch = inst.weights
    bounds = compute_bounds(inst) if w_power > 0 or w_load > 0 else None
    ones = inst.T * inst.n
    terms: list[tuple[float, Qubo]] = []

    def add(weight: float, which: str, q: Qubo):
        if score_normalized:
            lo, hi = extremal_scores(inst, which, qubo=q)
            if hi == lo:  # constant on every one-hot schedule (switch at T=1)
                return
            q = normalize_range(q, lo, hi, ones)
        terms.append((weight, q))

    if w_power > 0:
        add(w_power, "power", build_power_qubo(inst, bounds))
    if w_load > 0:
        add(w_load, "load", build_load_qubo(inst, bounds))
    if w_cost > 0:
        add(w_cost, "cost", build_cost_qubo(inst))
    if w_switch > 0:
        add(w_switch * inst.gamma, "switch", build_switch_qubo(inst))
    return add_hard_terms(inst, terms, extra_hard_weight)
