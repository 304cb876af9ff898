"""Reference code the tests check the package against.

Scalar re-computations of the two soft penalties, and the production and
switching cost of a schedule (the oracles acceptance criterion 1 holds the
matrix builders to), the bit position of the one-hot layout, a cycle set
applied swap by swap, and a tabu sub-solve on a built clamp.  Nothing in the package calls these; they live here so
that the package holds only what runs.
"""

import numpy as np

from redispatch.encodings import compute_bounds
from redispatch.model import ProblemInstance, validate_schedule
from redispatch.solvers import Budget, SolveRequest, SolveResult, tabu_search


def penalty_scalar(h: float) -> float:
    """Quadratic inequality penalty zeta(h) = 1 - h + h^2 / 2."""
    return 1.0 - h + 0.5 * h * h


def power_penalty(inst: ProblemInstance, x: np.ndarray, *,
                  normalized: bool = True) -> float:
    """Scalar power-target penalty of a bit vector, summed over timepoints.

    Works on any bit vector, feasible or not.  Reference implementation for
    build_power_qubo.
    """
    x = np.asarray(x, dtype=float).reshape(inst.T, inst.n * inst.k)
    w = inst.p.ravel()
    bound = compute_bounds(inst).power if normalized else np.ones(inst.T)
    total = 0.0
    for t in range(inst.T):
        total += penalty_scalar((float(w @ x[t]) - inst.tau[t]) / bound[t])
    return total


def load_penalty(inst: ProblemInstance, x: np.ndarray, *,
                 normalized: bool = True) -> float:
    """Scalar line-load penalty of a bit vector, summed over (t, line) pairs.

    Reference implementation for build_load_qubo.
    """
    x = np.asarray(x, dtype=float).reshape(inst.T, inst.n * inst.k)
    bound = compute_bounds(inst).load if normalized else np.ones((inst.T, inst.L))
    total = 0.0
    for t in range(inst.T):
        for l in range(inst.L):
            v = (inst.p * inst.S[:, l : l + 1]).ravel()
            total += penalty_scalar((inst.M[t, l] - float(v @ x[t])) / bound[t, l])
    return total


def production_cost(inst: ProblemInstance, Z: np.ndarray) -> float:
    """Total production cost of the schedule."""
    Z = validate_schedule(Z, inst.T, inst.n, inst.k)
    t_idx = np.arange(inst.T)[:, None]
    a_idx = np.arange(inst.n)[None, :]
    return float(inst.c[t_idx, a_idx, Z - 1].sum())


def switching_cost(inst: ProblemInstance, Z: np.ndarray) -> float:
    """gamma times the summed |MW delta| over consecutive timepoints."""
    Z = validate_schedule(Z, inst.T, inst.n, inst.k)
    prod = inst.p[np.arange(inst.n)[None, :], Z - 1]
    return float(inst.gamma * np.abs(np.diff(prod, axis=0)).sum())


def flat_index(t: int, a: int, i: int, n: int, k: int) -> int:
    """Bit position of (timepoint t, resource a, 1-based state i)."""
    return (t * n + a) * k + (i - 1)


def apply_cycle(cycle, x: np.ndarray) -> np.ndarray:
    """A copy of x with each (bit_on, bit_off) swap of the cycle set made."""
    out = np.array(x, copy=True)
    for on, off in cycle.swaps:
        out[on], out[off] = x[off], x[on]
    return out


def clamped_tabu(grid, x: np.ndarray, free: np.ndarray,
                 budget: Budget) -> SolveResult:
    """tabu_search on grid.clamp(x, free) from x[free]: a decomposer's tabu
    step with the sub-QUBO built.  Reference for solvers._tabu_on_free_bits,
    which walks the same free bits from grid's coupling lists."""
    sub, remap = grid.clamp(x, free)
    return tabu_search(SolveRequest(qubo=sub, initial=x[remap], budget=budget))
