"""QUBO toolkit for energy-network re-dispatch.

Schedules of discrete production states are encoded as one-hot bit vectors;
hard structure (one state per resource, one-step transitions) and soft goals
(power target, line limits, production and switching cost) become sparse
QUBO terms that classical samplers and a feasibility-preserving cycle-move
search minimize.
"""

from .model import (
    ProblemInstance,
    SolutionReport,
    NotOneHotError,
    encode_one_hot,
    decode_one_hot,
    evaluate_schedule,
    is_adjacent_feasible,
)
from .qubo import InputError, Qubo, weighted_sum, normalize_range
from .encodings import (
    build_onehot_qubo,
    build_adjacency_qubo,
    build_cost_qubo,
    build_switch_qubo,
    build_power_qubo,
    build_load_qubo,
    build_objective,
    compute_bounds,
)
from .solvers import (
    Budget,
    SolveRequest,
    SolveResult,
    brute_force,
    tabu_search,
    simulated_annealing,
)
from .alphaexp import alpha_expansion
from .decomposers import DecomposeConfig, decompose_loop
from .data import (
    load_network,
    build_instance,
    synth_instance,
    estimate_sensitivity,
    save_instance,
    load_instance,
)

__version__ = "0.1.0"

__all__ = [
    "ProblemInstance",
    "SolutionReport",
    "NotOneHotError",
    "encode_one_hot",
    "decode_one_hot",
    "evaluate_schedule",
    "is_adjacent_feasible",
    "InputError",
    "Qubo",
    "weighted_sum",
    "normalize_range",
    "build_onehot_qubo",
    "build_adjacency_qubo",
    "build_cost_qubo",
    "build_switch_qubo",
    "build_power_qubo",
    "build_load_qubo",
    "build_objective",
    "compute_bounds",
    "Budget",
    "SolveRequest",
    "SolveResult",
    "brute_force",
    "tabu_search",
    "simulated_annealing",
    "alpha_expansion",
    "DecomposeConfig",
    "decompose_loop",
    "load_network",
    "build_instance",
    "synth_instance",
    "estimate_sensitivity",
    "save_instance",
    "load_instance",
]
