"""Problem data and configuration-space metrics for network re-dispatch.

Conventions used throughout the package:

* A schedule ``Z`` is a ``(T, n)`` integer array.  Row ``t`` holds the
  operating state of every controllable resource during timepoint ``t``.
  States are 1-based values in ``1..k`` (state 1 is the lowest production
  level); array positions are the usual 0-based numpy indices.
* The binary encoding ``x`` of a schedule is a flat 0/1 vector of length
  ``T*n*k``.  Bit ``flat_index(t, a, i)`` is set iff resource ``a`` runs in
  state ``i`` during timepoint ``t``.  The layout is timepoint-major, then
  resource, then state, and every function in this package assumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

__all__ = [
    "ProblemInstance",
    "SolutionReport",
    "NotOneHotError",
    "flat_index",
    "encode_one_hot",
    "decode_one_hot",
    "read_schedule",
    "validate_schedule",
    "is_adjacent_feasible",
    "first_adjacency_violation",
    "power_production",
    "line_loads",
    "production_cost",
    "switching_cost",
    "count_switches",
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
        for name, val in (("T", self.T), ("n", self.n), ("k", self.k), ("L", self.L)):
            if int(val) != val or val < 1:
                raise ValueError(f"{name} must be a positive integer, got {val!r}")
        conv = {
            "p": np.asarray(self.p, dtype=float),
            "c": np.asarray(self.c, dtype=float),
            "S": np.asarray(self.S, dtype=float),
            "M": np.asarray(self.M, dtype=float),
            "tau": np.asarray(self.tau, dtype=float),
        }
        shapes = {
            "p": (self.n, self.k),
            "c": (self.T, self.n, self.k),
            "S": (self.n, self.L),
            "M": (self.T, self.L),
            "tau": (self.T,),
        }
        for name, arr in conv.items():
            if arr.shape != shapes[name]:
                raise ValueError(
                    f"{name} has shape {arr.shape}, expected {shapes[name]}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
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
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")

    @property
    def dim(self) -> int:
        """Length of the one-hot bit vector encoding a schedule."""
        return self.T * self.n * self.k


def flat_index(t: int, a: int, i: int, n: int, k: int) -> int:
    """Bit position of (timepoint t, resource a, 1-based state i)."""
    return (t * n + a) * k + (i - 1)


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


def decode_one_hot(x: np.ndarray, T: int, n: int, k: int) -> np.ndarray:
    """Recover the (T, n) schedule from a one-hot bit vector.

    Raises NotOneHotError naming the first offending (t, a) block.
    """
    x = np.asarray(x)
    if x.shape != (T * n * k,):
        raise ValueError(f"bit vector has shape {x.shape}, expected ({T * n * k},)")
    blocks = x.reshape(T * n, k)
    counts = blocks.sum(axis=1)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        b = int(bad[0])
        raise NotOneHotError(b // n, b % n, int(counts[b]))
    return (np.argmax(blocks, axis=1) + 1).reshape(T, n)


def read_schedule(x: np.ndarray, T: int, n: int, k: int) -> tuple[np.ndarray, bool]:
    """(schedule, one_hot) of any bit vector of length T*n*k.

    A one-hot vector decodes exactly.  Otherwise each block keeps its lowest
    set bit, or state 1 when empty, and one_hot is False; reports use this
    to score solver outputs that wandered off the one-hot manifold.
    """
    blocks = np.asarray(x).reshape(T * n, k)
    counts = blocks.sum(axis=1)
    states = np.where(counts > 0, np.argmax(blocks, axis=1) + 1, 1)
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


def power_production(inst: ProblemInstance, Z: np.ndarray) -> np.ndarray:
    """(T, n) matrix of MW produced by each resource at each timepoint."""
    Z = validate_schedule(Z, inst.T, inst.n, inst.k)
    return inst.p[np.arange(inst.n)[None, :], Z - 1]


def line_loads(inst: ProblemInstance, Z: np.ndarray) -> np.ndarray:
    """(T, L) MW carried on each line due to controllable production."""
    return power_production(inst, Z) @ inst.S


def production_cost(inst: ProblemInstance, Z: np.ndarray) -> float:
    """Total production cost of the schedule."""
    Z = validate_schedule(Z, inst.T, inst.n, inst.k)
    t_idx = np.arange(inst.T)[:, None]
    a_idx = np.arange(inst.n)[None, :]
    return float(inst.c[t_idx, a_idx, Z - 1].sum())


def count_switches(inst: ProblemInstance, Z: np.ndarray) -> int:
    """Number of (t, a) transitions whose state actually changes."""
    Z = validate_schedule(Z, inst.T, inst.n, inst.k)
    return int(np.count_nonzero(np.diff(Z, axis=0)))


def switching_cost(inst: ProblemInstance, Z: np.ndarray) -> float:
    """gamma times the summed |MW delta| over consecutive timepoints."""
    prod = power_production(inst, Z)
    return float(inst.gamma * np.abs(np.diff(prod, axis=0)).sum())


@dataclass
class SolutionReport:
    """Human-readable metrics of one schedule.

    Fulfillment ratios are produced/target per timepoint; a zero target counts
    as fulfilled and renders as inf when anything is produced at all.
    """

    overloaded_lines: int
    mean_overloaded_per_timepoint: float
    production_cost: float
    switching_cost: float
    fulfillment: np.ndarray = field(repr=False)
    mean_fulfillment: float = 0.0
    fulfilled_timepoints: int = 0
    switches: int = 0

    def __post_init__(self):
        self.fulfillment = np.asarray(self.fulfillment, dtype=float)
        if np.isnan(self.fulfillment).any():
            raise ValueError("fulfillment ratios must not contain NaN")


def evaluate_schedule(inst: ProblemInstance, Z: np.ndarray) -> SolutionReport:
    """Score a schedule on the published metrics (overloads, cost, power, switches)."""
    Z = validate_schedule(Z, inst.T, inst.n, inst.k)
    loads = line_loads(inst, Z)
    overloaded = loads > inst.M
    produced = power_production(inst, Z).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(
            inst.tau > 0,
            produced / np.where(inst.tau > 0, inst.tau, 1.0),
            np.where(produced > 0, np.inf, 1.0),
        )
    fulfilled = int(np.count_nonzero(ratios >= 1.0))
    finite = ratios[np.isfinite(ratios)]
    mean_ratio = float(finite.mean()) if finite.size else float("inf")
    return SolutionReport(
        overloaded_lines=int(overloaded.sum()),
        mean_overloaded_per_timepoint=float(overloaded.sum(axis=1).mean()),
        production_cost=production_cost(inst, Z),
        switching_cost=switching_cost(inst, Z),
        fulfillment=ratios,
        mean_fulfillment=mean_ratio,
        fulfilled_timepoints=fulfilled,
        switches=count_switches(inst, Z),
    )
