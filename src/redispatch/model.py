"""Problem data and configuration-space metrics for network re-dispatch.

Conventions used throughout the package:

* A schedule ``Z`` is a ``(T, n)`` integer array.  Row ``t`` holds the
  operating state of every controllable resource during timepoint ``t``.
  States are 1-based values in ``1..k`` (state 1 is the lowest production
  level); array positions are the usual 0-based numpy indices.
* The binary encoding ``x`` of a schedule is a flat 0/1 vector of length
  ``T*n*k``.  Bit ``(t*n + a)*k + i - 1`` is set iff resource ``a`` runs
  in state ``i`` during timepoint ``t``.  The layout is timepoint-major, then
  resource, then state, and every function in this package assumes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qubo import NonFiniteError, _count

__all__ = [
    "ProblemInstance",
    "SolutionReport",
    "NotOneHotError",
    "encode_one_hot",
    "decode_one_hot",
    "read_schedule",
    "validate_schedule",
    "is_adjacent_feasible",
    "first_adjacency_violation",
    "evaluate_schedule",
]

DEFAULT_WEIGHTS = (30.0, 100.0, 20.0, 1e-4)


class NotOneHotError(ValueError):
    """A bit vector has no single set bit inside some (timepoint, resource) block."""

    def __init__(self, t: int, a: int, set_bits: int):
        self.t = t
        self.a = a
        self.set_bits = set_bits
        super().__init__(
            f"block (t={t}, a={a}) has {set_bits} set bits, expected exactly 1"
        )


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable data of one re-dispatch problem.

    Attributes:
        T: number of timepoints.
        n: number of controllable resources.
        k: number of discrete production states per resource.
        L: number of monitored lines.
        p: (n, k) production levels in MW, non-negative and non-decreasing
            along the state axis.
        c: (T, n, k) production cost of running resource a in state i at
            timepoint t, non-negative.
        S: (n, L) sensitivity of each line load to each resource's output.
        M: (T, L) remaining line capacity in MW after fixed injections.
        tau: (T,) re-dispatch power target in MW per timepoint.
        gamma: weight of the switching cost.
        weights: multipliers (power, load, cost, switch) used when composing
            the soft objective terms.
        s_box: closed interval the sensitivity entries must lie in; its
            lower end must be non-negative.

    A NaN or infinite entry in an array raises qubo.NonFiniteError (a
    ValueError), as a finite input whose derived values overflow does.
    """

    T: int
    n: int
    k: int
    L: int
    p: np.ndarray
    c: np.ndarray
    S: np.ndarray
    M: np.ndarray
    tau: np.ndarray
    gamma: float = 1.0
    weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS
    s_box: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        for name in ("T", "n", "k", "L"):
            object.__setattr__(self, name, _count(getattr(self, name), name, 1))
        shapes = {"p": (self.n, self.k), "c": (self.T, self.n, self.k),
                  "S": (self.n, self.L), "M": (self.T, self.L), "tau": (self.T,)}
        for name, shape in shapes.items():
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise NonFiniteError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.p < 0):
            raise ValueError("production levels p must be non-negative")
        if np.any(np.diff(self.p, axis=1) < 0):
            raise ValueError("production levels p must be non-decreasing per resource")
        if np.any(self.c < 0):
            raise ValueError("costs c must be non-negative")
        if np.any(self.tau < 0):
            raise ValueError("targets tau must be non-negative")
        lo, hi = self.s_box
        if not lo <= hi:
            raise ValueError(f"invalid sensitivity box {self.s_box}")
        if lo < 0:
            # extremal_schedules assumes line load rises with every state
            raise ValueError(
                f"sensitivity box {self.s_box} allows negative sensitivities")
        if np.any(self.S < lo) or np.any(self.S > hi):
            raise ValueError(f"sensitivities fall outside the box [{lo}, {hi}]")
        if len(self.weights) != 4:
            raise ValueError("weights must be (power, load, cost, switch)")
        if not all(math.isfinite(v) and v >= 0 for v in (self.gamma, *self.weights)):
            raise ValueError("gamma and weights must be finite and non-negative, "
                             f"got {self.gamma!r} and {self.weights!r}")

    @property
    def dim(self) -> int:
        """Length of the one-hot bit vector encoding a schedule."""
        return self.T * self.n * self.k


def validate_schedule(Z: np.ndarray, T: int, n: int, k: int) -> np.ndarray:
    """Return Z as an int array, raising if shape or state range is off."""
    Z = np.asarray(Z)
    if Z.shape != (T, n):
        raise ValueError(f"schedule has shape {Z.shape}, expected {(T, n)}")
    if not np.issubdtype(Z.dtype, np.integer):
        if not np.all(Z == np.floor(Z)):
            raise ValueError("schedule entries must be integers")
        Z = Z.astype(int)
    if Z.min() < 1 or Z.max() > k:
        raise ValueError(f"schedule states must lie in 1..{k}")
    return Z.astype(int)


def encode_one_hot(Z: np.ndarray, T: int, n: int, k: int) -> np.ndarray:
    """Flatten a (T, n) schedule into its one-hot bit vector of length T*n*k."""
    Z = validate_schedule(Z, T, n, k)
    x = np.zeros(T * n * k, dtype=np.int8)
    base = np.arange(T * n) * k
    x[base + (Z.ravel() - 1)] = 1
    return x


def _read_blocks(x, T: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(set bits, 1-based state of the first set bit) of every (t, a) block
    of a bit vector of length T*n*k; an empty block reads as state 1."""
    x = np.asarray(x)
    if x.shape != (T * n * k,):
        raise ValueError(f"bit vector has shape {x.shape}, expected ({T * n * k},)")
    blocks = x.reshape(T * n, k)
    # an int64 product counts a block's bits in a third of sum(axis=1)'s time
    return blocks @ np.ones(k, dtype=np.int64), np.argmax(blocks, axis=1) + 1


def decode_one_hot(x: np.ndarray, T: int, n: int, k: int) -> np.ndarray:
    """Recover the (T, n) schedule from a one-hot bit vector.

    Raises NotOneHotError naming the first offending (t, a) block.
    """
    counts, states = _read_blocks(x, T, n, k)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        b = int(bad[0])
        raise NotOneHotError(b // n, b % n, int(counts[b]))
    return states.reshape(T, n)


def read_schedule(x: np.ndarray, T: int, n: int, k: int) -> tuple[np.ndarray, bool]:
    """(schedule, one_hot) of any bit vector of length T*n*k.

    A one-hot vector decodes exactly.  Otherwise each block keeps its lowest
    set bit, or state 1 when empty, and one_hot is False; reports use this
    to score solver outputs that wandered off the one-hot manifold.
    """
    counts, states = _read_blocks(x, T, n, k)
    return states.reshape(T, n), bool(np.all(counts == 1))


def first_adjacency_violation(Z: np.ndarray) -> tuple[int, int] | None:
    """First (t, a) where a resource jumps more than one state between t and t+1.

    The returned t indexes the earlier of the two timepoints involved.
    Scans timepoint-major so the result is deterministic.
    """
    Z = np.asarray(Z)
    jumps = np.abs(np.diff(Z.astype(int), axis=0)) > 1
    if not jumps.any():
        return None
    t, a = np.unravel_index(int(np.argmax(jumps)), jumps.shape)
    return int(t), int(a)


def is_adjacent_feasible(Z: np.ndarray) -> bool:
    """True when consecutive states differ by at most one for every resource."""
    return first_adjacency_violation(Z) is None


@dataclass
class SolutionReport:
    """The published metrics of one schedule, in total and per timepoint.

    Fulfillment ratios are produced/target per timepoint; a zero target counts
    as fulfilled and renders as inf when anything is produced at all, and
    mean_fulfillment averages the positive targets' ratios (1.0 without one).
    The *_t arrays hold each timepoint's production cost, MW produced,
    overloaded lines and switches into t (0 at t=0).
    """

    overloaded_lines: int
    mean_overloaded_per_timepoint: float
    production_cost: float
    switching_cost: float
    fulfillment: np.ndarray = field(repr=False)
    mean_fulfillment: float
    fulfilled_timepoints: int
    switches: int
    cost_per_t: np.ndarray = field(repr=False)
    produced_per_t: np.ndarray = field(repr=False)
    overloaded_per_t: np.ndarray = field(repr=False)
    switches_into_t: np.ndarray = field(repr=False)


def evaluate_schedule(inst: ProblemInstance, Z: np.ndarray) -> SolutionReport:
    """Score a schedule on the published metrics (overloads, cost, power,
    switches), validating it once and gathering its MW and costs once."""
    Z = validate_schedule(Z, inst.T, inst.n, inst.k)
    a_idx = np.arange(inst.n)
    prod = inst.p[a_idx, Z - 1]  # (T, n) MW
    cost = inst.c[np.arange(inst.T)[:, None], a_idx, Z - 1]
    overloaded = (prod @ inst.S > inst.M).sum(axis=1)
    produced = prod.sum(axis=1)
    switched = np.count_nonzero(np.diff(Z, axis=0), axis=1)
    positive = inst.tau > 0
    ratios = np.where(positive, produced / np.where(positive, inst.tau, 1.0),
                      np.where(produced > 0, np.inf, 1.0))
    return SolutionReport(
        overloaded_lines=int(overloaded.sum()),
        mean_overloaded_per_timepoint=float(overloaded.mean()),
        production_cost=float(cost.sum()),
        switching_cost=float(inst.gamma * np.abs(np.diff(prod, axis=0)).sum()),
        fulfillment=ratios,
        mean_fulfillment=float(ratios[positive].mean()) if positive.any() else 1.0,
        fulfilled_timepoints=int(np.count_nonzero(ratios >= 1.0)),
        switches=int(switched.sum()),
        cost_per_t=cost.sum(axis=1),
        produced_per_t=produced,
        overloaded_per_t=overloaded,
        switches_into_t=np.concatenate([[0], switched]),
    )
