"""QUBO encodings of the re-dispatch constraints and costs.

Six builders map a ProblemInstance onto sparse Qubos over the one-hot bit
layout described in model.py:

* one-hot and state-adjacency hard constraints,
* production cost and switching cost,
* power-target and line-load soft penalties.

The two soft penalties encode an inequality h(x) >= 0 through the quadratic
Taylor expansion of exp(-h), i.e. zeta(h) = 1 - h + h^2/2, optionally with h
rescaled by a per-constraint bound so the argument never exceeds 1 on
feasible schedules.  Each h is affine in s_tr = V[:, r] . x_t, a linear form
of timepoint t's bits, so one builder materializes both: rank 1 for power
(V = p), rank L for load (V = p * S).  build_objective assembles its
composite once, as a FactoredObjective, materializes the Qubo from it and
keeps it for alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ProblemInstance, encode_one_hot
from .qubo import Qubo, weighted_sum
from .qubo import normalize_range  # noqa: F401 - perfbench/spans.py wraps it here

__all__ = [
    "InfeasibleBoundError",
    "PenaltyBounds",
    "compute_bounds",
    "build_onehot_qubo",
    "build_adjacency_qubo",
    "build_cost_qubo",
    "build_switch_qubo",
    "build_power_qubo",
    "build_load_qubo",
    "extremal_schedules",
    "extremal_scores",
    "term_range",
    "build_objective",
    "Factors",
    "FactoredObjective",
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
    per_state = _line_factor(inst).reshape(inst.n, inst.k, inst.L)
    min_flow = per_state.min(axis=1).sum(axis=0)
    load = inst.M - min_flow[None, :]
    if np.any(load <= 0):
        t, l = np.unravel_index(int(np.argmax(load <= 0)), load.shape)
        raise InfeasibleBoundError(
            f"line limit M[{t},{l}]={inst.M[t, l]:g} is not above the minimum "
            f"controllable flow {min_flow[l]:g}"
        )
    return PenaltyBounds(power=power, load=load)


def _line_factor(inst: ProblemInstance) -> np.ndarray:
    """nk x L matrix p[a, i] * S[a, l]; x_t . column l is line l's flow."""
    return (inst.p[:, :, None] * inst.S[:, None, :]).reshape(-1, inst.L)


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


def _jumps(k: int) -> np.ndarray:
    """k x k indicator of state pairs more than one state apart."""
    i, j = np.indices((k, k))
    return (np.abs(i - j) > 1).astype(float)


def _switch_table(inst: ProblemInstance) -> np.ndarray:
    """n x k x k MW change |p[a, i] - p[a, j]| between states i and j."""
    return np.abs(inst.p[:, :, None] - inst.p[:, None, :])


def build_adjacency_qubo(T: int, n: int, k: int) -> Qubo:
    """Hard constraint counting state jumps of more than 1 between timepoints.

    Couples bit (t, a, i) with (t+1, a, i') whenever |i - i'| > 1; on one-hot
    vectors the score is exactly the number of violating transitions.
    """
    return _transition_qubo(T, n, k, _jumps(k))


def build_cost_qubo(inst: ProblemInstance) -> Qubo:
    """Diagonal QUBO scoring the production cost of the set bits."""
    idx = np.arange(inst.dim)
    return Qubo(inst.dim, idx, idx, inst.c.ravel())


def build_switch_qubo(inst: ProblemInstance) -> Qubo:
    """Absolute MW change between consecutive timepoints, per resource.

    On one-hot vectors this scores sum_t sum_a |p(state at t+1) - p(state at t)|
    before the gamma weight.
    """
    return _transition_qubo(inst.T, inst.n, inst.k, _switch_table(inst))


@dataclass(frozen=True)
class Factors:
    """sum_{t,r} const[t,r] + lin[t,r] s_tr + quad[t,r] s_tr^2, where
    s_tr = V[:, r] . x_t is the r-th linear form of timepoint t's nk bits."""

    V: np.ndarray
    const: np.ndarray
    lin: np.ndarray
    quad: np.ndarray


def _factored_qubo(f: Factors) -> Qubo:
    """The Qubo of f.

    Timepoint t's nk x nk block holds the x_j coefficients on its diagonal
    and the j < j2 cross terms above it, computed in strips of 64 rows from
    the diagonal rightwards, so no product below it is formed.  Every sum
    over r runs in order (a C-order reduction; np.einsum without optimize)
    and none uses BLAS, so the bits do not depend on the BLAS thread count.
    """
    V, lin, quad = f.V, f.lin, f.quad
    T, nk = lin.shape[0], V.shape[0]
    iu, ju = np.triu_indices(nk)
    Vt = np.ascontiguousarray(V.T)
    with np.errstate(over="ignore", invalid="ignore"):  # Qubo rejects inf, nan
        diag = (lin[:, :, None] * Vt + quad[:, :, None] * Vt * Vt).sum(axis=1)
    # strip from row a: rows a..a+63, columns a.., the kept entries in the
    # row-major order of iu, ju
    strips = [(a, *np.triu_indices(min(64, nk - a), m=nk - a))
              for a in range(0, nk, 64)]
    vals = np.empty((T, iu.size))
    for t in range(T):
        at, q2 = 0, 2.0 * quad[t]
        for a, i, j in strips:
            strip = np.einsum("ir,jr,r->ij", V[a:a + 64], V[a:], q2)
            np.fill_diagonal(strip, diag[t, a:a + 64])
            vals[t, at:at + i.size] = strip[i, j]
            at += i.size
    base = (np.arange(T) * nk)[:, None]
    offset = float(np.cumsum(np.append(0.0, f.const))[-1])  # in (t, r) order
    return Qubo(T * nk, base + iu, base + ju, vals, offset)


def _power_factors(inst: ProblemInstance, *, normalized: bool = True) -> Factors:
    f = 1.0 / compute_bounds(inst).power if normalized else np.ones(inst.T)
    tau = inst.tau
    # zeta(f*(w.x - tau)) = const + (-f - f^2 tau)(w.x) + (f^2/2)(w.x)^2
    return Factors(inst.p.reshape(-1, 1),
                   (1.0 + f * tau + 0.5 * (f * tau) ** 2)[:, None],
                   (-f - f * f * tau)[:, None], (0.5 * f * f)[:, None])


def _load_factors(inst: ProblemInstance, *, normalized: bool = True) -> Factors:
    f = 1.0 / compute_bounds(inst).load if normalized else np.ones((inst.T, inst.L))
    m = inst.M
    # zeta(f*(m - v.x)) = const + (f - f^2 m)(v.x) + (f^2/2)(v.x)^2
    return Factors(_line_factor(inst), 1.0 - f * m + 0.5 * (f * m) ** 2,
                   f - f * f * m, 0.5 * f * f)


def build_power_qubo(inst: ProblemInstance, *, normalized: bool = True) -> Qubo:
    """Quadratic penalty steering total production above the target.

    Expands sum_t zeta(f_t * (P_t(x) - tau_t)) with f_t the reciprocal power
    bound of compute_bounds(inst) (1 when unnormalized); constants land in
    the offset.
    """
    return _factored_qubo(_power_factors(inst, normalized=normalized))


def build_load_qubo(inst: ProblemInstance, *, normalized: bool = True) -> Qubo:
    """Quadratic penalty steering every line load below its limit.

    Expands sum_{t,l} zeta(f_{t,l} * (M_{t,l} - flow_{t,l}(x))) with f the
    reciprocal headroom bound of compute_bounds(inst) (1 when unnormalized).
    """
    return _factored_qubo(_load_factors(inst, normalized=normalized))


@dataclass(frozen=True)
class FactoredObjective:
    """A build_objective composite, weights and 1/spans folded in: the
    penalties as Factors with V = [p | p*S], plus linear[j] + shift per set
    bit j (cost, normalization shifts), plus transition[a, i, i'] per
    resource a in state i at t and i' at t + 1 (switch, adjacency), plus
    hard times build_onehot_qubo.  shift and hard add the same to every bit
    of a block, so they cancel on every move and fields omits them."""

    penalty: Factors
    linear: np.ndarray      # (T*n*k,)
    transition: np.ndarray  # (n, k, k), states 0-based
    hard: float = 0.0
    shift: float = 0.0

    def fields(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(grad, h) at the schedule Z (T x n, states 1..k): grad[t, r] =
        lin + 2 quad s_tr, the penalty's slope in s_tr, and h[j], bit j's
        cost plus its transition weights to its resource's states in Z at
        the neighbouring timepoints."""
        fields = np.empty_like(self.penalty.lin), np.empty(self.linear.size)
        self.refresh_fields(fields, Z, 0, len(Z))
        return fields

    def refresh_fields(self, fields: tuple[np.ndarray, np.ndarray],
                       Z: np.ndarray, start: int, stop: int) -> None:
        """Bring fields, the (grad, h) of a schedule that differs from Z only
        in rows start..stop-1, up to date for Z, in place: grad in those
        rows, h in them and the rows next to them.  fields computes every
        row this way, so the result has the bits of fields(Z)."""
        (grad, h), pen = fields, self.penalty
        T, (n, k) = len(Z), self.transition.shape[:2]
        Z = np.asarray(Z) - 1
        a = np.arange(n)
        # in order over a, no BLAS
        s = np.einsum("tar->tr", pen.V[a * k + Z[start:stop]])
        grad[start:stop] = pen.lin[start:stop] + 2.0 * pen.quad[start:stop] * s
        start, stop = max(start - 1, 0), min(stop + 1, T)
        h = h.reshape(T, n, k)
        h[start:stop] = self.linear.reshape(T, n, k)[start:stop]
        # W[a, Z[t-1, a], i], then W[a, i, Z[t+1, a]]
        first, last = max(start, 1), min(stop, T - 1)
        h[first:stop] += self.transition[a, Z[first - 1:stop - 1]]
        h[start:last] += self.transition[a, :, Z[start + 1:last + 1]]

    def evaluate(self, x: np.ndarray) -> float:
        """Score of the bit vector x, qubo().evaluate(x) up to rounding; no
        sum is a BLAS product.  An overflow scores inf or nan, unwarned."""
        pen, (n, k) = self.penalty, self.transition.shape[:2]
        X = np.asarray(x, dtype=float).reshape(-1, n, k)
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.einsum("tj,jr->tr", X.reshape(len(X), -1), pen.V)
            return float(
                np.sum(pen.const + pen.lin * s + pen.quad * s * s)
                + np.einsum("tai,taj,aij->", X[:-1], X[1:], self.transition)
                + self.hard * np.sum((X.sum(axis=2) - 1.0) ** 2 - 1.0)
                + np.sum((self.linear + self.shift) * X.ravel()))

    def qubo(self) -> Qubo:
        """This polynomial as a Qubo, with this record in its factored slot."""
        (n, k), dim = self.transition.shape[:2], self.linear.size
        return weighted_sum([
            (1.0, _factored_qubo(self.penalty)),
            (1.0, Qubo(dim, *np.diag_indices(dim), self.linear + self.shift)),
            (1.0, _transition_qubo(dim // (n * k), n, k, self.transition)),
            (self.hard, build_onehot_qubo(dim // (n * k), n, k)),
        ]).with_factored(self)


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
                    term: Qubo | FactoredObjective) -> tuple[float, float]:
    """Score range (lo, hi) of a term over its extreme schedules."""
    return tuple(term.evaluate(encode_one_hot(z, inst.T, inst.n, inst.k))
                 for z in extremal_schedules(inst, which))


def term_range(inst: ProblemInstance, which: str,
               term: Qubo | FactoredObjective) -> tuple[float, float] | None:
    """extremal_scores of a term, or None if they are equal: the term is
    constant on one-hot schedules (switch at T=1), so it is left out."""
    lo, hi = extremal_scores(inst, which, term)
    return None if hi == lo else (lo, hi)


def build_objective(
    inst: ProblemInstance,
    score_normalized: bool = False,
    extra_hard_weight: float = 1.0,
) -> Qubo:
    """Compose the objective as one FactoredObjective and return its qubo().

    The soft side is weights[0] * power + weights[1] * load + weights[2] * cost
    + weights[3] * gamma * switch; soft terms with weight 0 are skipped.  The
    one-hot and adjacency constraints always enter, scaled by
    extra_hard_weight (1 reproduces the plain formulation).  With
    score_normalized each soft term is shifted and scaled so the extremes of
    its term_range score 0 and 1, or left out.
    """
    w_power, w_load, w_cost, w_switch = inst.weights
    none = Factors(np.empty((inst.n * inst.k, 0)), *np.empty((3, inst.T, 0)))
    zeros, still = np.zeros(inst.dim), np.zeros((inst.n, inst.k, inst.k))
    # (term, weight, maker of the term's penalty, linear and transition)
    parts = (("power", w_power, lambda: (_power_factors(inst), zeros, still)),
             ("load", w_load, lambda: (_load_factors(inst), zeros, still)),
             ("cost", w_cost, lambda: (none, inst.c.ravel(), still)),
             ("switch", w_switch * inst.gamma,
              lambda: (none, zeros, _switch_table(inst))))
    scaled, shift = [], 0.0
    for which, weight, make in parts:
        if weight <= 0:
            continue
        term = FactoredObjective(*make())
        if score_normalized:
            lo_hi = term_range(inst, which, term)
            if lo_hi is None:
                continue
            weight /= lo_hi[1] - lo_hi[0]
            shift -= weight * lo_hi[0] / (inst.T * inst.n)
        scaled.append((weight, term))
    penalty = Factors(np.hstack([none.V] + [f.penalty.V for _, f in scaled]), *(
        np.hstack([getattr(none, name)] + [w * getattr(f.penalty, name)
                                           for w, f in scaled])
        for name in ("const", "lin", "quad")))
    return FactoredObjective(
        penalty, sum((w * f.linear for w, f in scaled), zeros),
        sum((w * f.transition for w, f in scaled),
            still + extra_hard_weight * _jumps(inst.k)),
        extra_hard_weight, shift).qubo()
