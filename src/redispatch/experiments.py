"""Desk-scale study protocols, and the named-solver path `solve` shares.

Each protocol builds instances from a dataset, runs the relevant solvers over
a seed list and writes deterministic CSV reports (fixed float formatting, no
wall-clock values).  All randomness flows through the recorded seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alphaexp import alpha_expansion
from .data import NetworkDataset, build_instance
from .decomposers import DecomposeConfig, decompose_loop
from .encodings import (
    add_hard_terms,
    build_load_qubo,
    build_objective,
    build_power_qubo,
    build_cost_qubo,
    build_switch_qubo,
    compute_bounds,
    extremal_scores,
    term_range,
)
from .model import (
    ProblemInstance,
    SolutionReport,
    decode_one_hot,
    encode_one_hot,
    evaluate_schedule,
    is_adjacent_feasible,
    line_loads,
    power_production,
    read_schedule,
)
from .qubo import Qubo, normalize_range
from .solvers import (
    Budget,
    SolveRequest,
    SolveResult,
    brute_force,
    simulated_annealing,
    tabu_search,
)

# Not called here: the tracer in perfbench/spans.py wraps them on this module.
from .encodings import build_adjacency_qubo, build_onehot_qubo  # noqa: F401
from .qubo import weighted_sum  # noqa: F401

__all__ = [
    "SOLVERS",
    "ExperimentSettings",
    "run_solver",
    "fmt",
    "run_penalty_norm",
    "run_score_norm",
    "run_decomposers",
    "run_timeseries",
]


SOLVERS = ("alpha", "tabu", "sa", "brute", "random-decomp", "score-decomp")
# alpha's epoch budget in the decomposers and timeseries studies; no flag
# sets it, and alpha stops earlier after an epoch without an accepted move
ALPHA_EPOCHS = 50

# metric columns of report.csv, decomposers.csv and score_norm_solutions.csv
REPORT_COLUMNS = ["overloaded_lines", "production_cost",
                  "fulfilled_timepoints", "switches", "feasible"]


@dataclass(frozen=True)
class ExperimentSettings:
    """Shared experiment knobs; defaults reproduce the desk-scale studies."""

    T: int = 2
    k: int = 3
    seeds: tuple[int, ...] = tuple(range(10))
    tabu_iterations: int = 4000
    time_limit: float = 60.0
    max_steps: int = 60
    subproblem_size: int = 40
    batch_size: int = 12
    promote_statics: bool = False


def fmt(value) -> str:
    """Deterministic CSV cell rendering; non-finite values spelled out."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        raise ValueError("refusing to write NaN into a report")
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.10g}"


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(cell) for cell in row) + "\n")


def write_summary(path, key: str,
                  groups: dict[str, dict[str, list[float]]]) -> dict:
    """Write and return each group's <metric>_mean, <metric>_std in order."""
    summary = {}
    for name, metrics in groups.items():
        summary[name] = {}
        for metric, values in metrics.items():
            arr = np.asarray(values, dtype=float)
            summary[name][f"{metric}_mean"] = float(arr.mean())
            summary[name][f"{metric}_std"] = float(arr.std())
    write_csv(path, [key, *next(iter(summary.values()))],
              [[name, *stats.values()] for name, stats in summary.items()])
    return summary


def run_solver(name: str, inst: ProblemInstance, qubo: Qubo, seed: int,
               max_iterations: int, time_limit: float, batch_size: int,
               subproblem_size: int) -> SolveResult:
    """Minimize qubo with solver `name` (one of SOLVERS) from all-state-1.

    max_iterations counts alpha epochs, decomposer steps or sampler flips.
    """
    x0 = encode_one_hot(np.ones((inst.T, inst.n), dtype=int),
                        inst.T, inst.n, inst.k)
    budget = Budget(max_iterations=max_iterations, time_limit=time_limit)
    if name == "alpha":
        return alpha_expansion(inst, qubo, x0, batch_size=batch_size,
                               budget=budget, seed=seed)
    if name in ("random-decomp", "score-decomp"):
        return decompose_loop(qubo, x0, DecomposeConfig(
            subproblem_size=subproblem_size, strategy=name.split("-")[0],
            max_steps=max_iterations, time_limit=time_limit, seed=seed))
    sampler = {"tabu": tabu_search, "sa": simulated_annealing,
               "brute": brute_force}[name]
    return sampler(SolveRequest(qubo=qubo, initial=x0, seed=seed,
                                budget=budget))


def read_out(inst: ProblemInstance,
             x: np.ndarray) -> tuple[np.ndarray, bool, SolutionReport]:
    """(schedule, feasible, report) of a solver's best bit vector; feasible
    is one-hot with no jump of more than one state between timepoints."""
    Z, one_hot = read_schedule(x, inst.T, inst.n, inst.k)
    return Z, one_hot and is_adjacent_feasible(Z), evaluate_schedule(inst, Z)


def report_cells(report: SolutionReport, feasible: bool) -> list:
    """The REPORT_COLUMNS cells of one evaluated schedule."""
    return [report.overloaded_lines, report.production_cost,
            report.fulfilled_timepoints, report.switches, int(feasible)]


def _hard_weight(soft_span: float) -> float:
    """Hard-constraint weight dominating a soft score range of soft_span."""
    return 10.0 * max(1.0, soft_span)


def _solve_schedule(inst: ProblemInstance, qubo: Qubo, seed: int,
                    iterations: int) -> tuple[np.ndarray, bool, SolutionReport]:
    """Tabu from a seeded random constant schedule; returns read_out of it.

    A constant schedule keeps the start adjacency-feasible while varying it
    across seeds, which is what spreads the per-seed statistics.
    """
    rng = np.random.default_rng(seed)
    start = np.tile(rng.integers(1, inst.k + 1, size=inst.n), (inst.T, 1))
    x0 = encode_one_hot(start, inst.T, inst.n, inst.k)
    result = tabu_search(SolveRequest(
        qubo=qubo, initial=x0, seed=seed,
        budget=Budget(max_iterations=iterations),
    ))
    return read_out(inst, result.best)


def run_penalty_norm(ds: NetworkDataset, settings: ExperimentSettings,
                     out_dir) -> dict:
    """Baseline vs normalized inequality penalties on the power+load objective.

    For each seed one instance is built; both penalty variants are minimized
    by tabu search under identical budgets and scored on overloads per
    timepoint and power fulfillment.
    """
    rows = []
    per_variant = {variant: {"overloads": [], "fulfillment": []}
                   for variant in ("baseline", "normalized")}
    for seed in settings.seeds:
        inst = build_instance(ds, settings.T, settings.k, seed=seed,
                              promote_statics=settings.promote_statics)
        bounds = compute_bounds(inst)
        for variant in ("baseline", "normalized"):
            normalized = variant == "normalized"
            power = build_power_qubo(inst, bounds, normalized=normalized)
            load = build_load_qubo(inst, bounds, normalized=normalized)
            p_lo, p_hi = extremal_scores(inst, "power", power)
            l_lo, l_hi = extremal_scores(inst, "load", load)
            span = abs(p_hi - p_lo) + abs(l_hi - l_lo)
            qubo = add_hard_terms(inst, [(1.0, power), (1.0, load)],
                                  _hard_weight(span))
            _, feasible, report = _solve_schedule(inst, qubo, seed,
                                                  settings.tabu_iterations)
            rows.append([
                variant, seed, report.mean_overloaded_per_timepoint,
                report.mean_fulfillment, report.fulfilled_timepoints,
                int(feasible),
            ])
            per_variant[variant]["overloads"].append(
                report.mean_overloaded_per_timepoint)
            per_variant[variant]["fulfillment"].append(report.mean_fulfillment)
    write_csv(out_dir / "penalty_norm.csv",
              ["variant", "seed", "overloaded_per_timepoint",
               "mean_fulfillment", "fulfilled_timepoints", "feasible"],
              rows)
    return write_summary(out_dir / "penalty_norm_summary.csv", "variant",
                         per_variant)


def run_score_norm(ds: NetworkDataset, settings: ExperimentSettings,
                   out_dir) -> dict:
    """Raw vs range-normalized single-term objectives.

    Reports the observed score spread of each term over random feasible
    schedules, and the published metrics after optimizing each term alone,
    raw and normalized.  A term constant on one-hot schedules (switch at
    T=1) is left out.
    """
    seed0 = settings.seeds[0]
    inst = build_instance(ds, settings.T, settings.k, seed=seed0,
                          promote_statics=settings.promote_statics)
    bounds = compute_bounds(inst)
    terms = {"power": build_power_qubo(inst, bounds),
             "load": build_load_qubo(inst, bounds),
             "cost": build_cost_qubo(inst), "switch": build_switch_qubo(inst)}
    rng = np.random.default_rng(seed0)
    sample = np.stack([
        encode_one_hot(rng.integers(1, inst.k + 1, size=(inst.T, inst.n)),
                       inst.T, inst.n, inst.k)
        for _ in range(1000)
    ])
    spread_rows, solve_rows, kept = [], [], []
    for name, raw in terms.items():
        lo_hi = term_range(inst, name, raw)
        if lo_hi is None:
            continue
        kept.append(name)
        normalized = normalize_range(raw, *lo_hi, inst.T * inst.n)
        # the hard weight dominates the raw span, or 1 once normalized
        for label, q, span in (("raw", raw, lo_hi[1] - lo_hi[0]),
                               ("normalized", normalized, 1.0)):
            scores = q.evaluate_many(sample)
            spread_rows.append([name, label, float(scores.min()),
                                float(np.median(scores)), float(scores.max())])
            for seed in settings.seeds:
                guarded = add_hard_terms(inst, [(1.0, q)], _hard_weight(span))
                _, feasible, report = _solve_schedule(
                    inst, guarded, seed, settings.tabu_iterations)
                solve_rows.append([name, label, seed,
                                   *report_cells(report, feasible)])
    write_csv(out_dir / "score_norm_spread.csv",
              ["term", "variant", "min", "median", "max"], spread_rows)
    write_csv(out_dir / "score_norm_solutions.csv",
              ["term", "variant", "seed", *REPORT_COLUMNS], solve_rows)
    return {"terms": sorted(kept)}


def composed_objective(inst: ProblemInstance) -> Qubo:
    """Score-normalized composite with hard terms boosted above the soft span."""
    return build_objective(inst, score_normalized=True,
                           extra_hard_weight=_hard_weight(sum(inst.weights)))


def run_decomposers(ds: NetworkDataset, settings: ExperimentSettings,
                    out_dir) -> dict:
    """Cycle-move expansion against the clamping baselines on one composite."""
    # (row label, solver, budget): alpha epochs or decomposer steps
    runs = (("alpha", "alpha", ALPHA_EPOCHS),
            ("random", "random-decomp", settings.max_steps),
            ("score", "score-decomp", settings.max_steps))
    rows = []
    scores = {label: {"objective": []} for label, _, _ in runs}
    for seed in settings.seeds:
        inst = build_instance(ds, settings.T, settings.k, seed=seed,
                              promote_statics=settings.promote_statics)
        qubo = composed_objective(inst)
        for label, solver, budget in runs:
            result = run_solver(solver, inst, qubo, seed, budget,
                                settings.time_limit, settings.batch_size,
                                settings.subproblem_size)
            _, feasible, report = read_out(inst, result.best)
            scores[label]["objective"].append(result.score)
            rows.append([label, seed, result.iterations, result.score,
                         *report_cells(report, feasible)])
    write_csv(out_dir / "decomposers.csv",
              ["decomposer", "seed", "steps", "objective", *REPORT_COLUMNS],
              rows)
    return write_summary(out_dir / "decomposers_summary.csv", "decomposer",
                         scores)


def run_timeseries(ds: NetworkDataset, settings: ExperimentSettings,
                   out_dir) -> dict:
    """Per-timepoint profile of one solved schedule (cost, power, overloads)."""
    seed = settings.seeds[0]
    inst = build_instance(ds, settings.T, settings.k, seed=seed,
                          promote_statics=settings.promote_statics)
    result = run_solver("alpha", inst, composed_objective(inst), seed,
                        ALPHA_EPOCHS, settings.time_limit,
                        settings.batch_size, settings.subproblem_size)
    Z = decode_one_hot(result.best, inst.T, inst.n, inst.k)
    prod = power_production(inst, Z)
    loads = line_loads(inst, Z)
    t_idx = np.arange(inst.T)[:, None]
    a_idx = np.arange(inst.n)[None, :]
    cost_t = inst.c[t_idx, a_idx, Z - 1].sum(axis=1)
    switches_t = np.count_nonzero(np.diff(Z, axis=0), axis=1)
    rows = []
    for t in range(inst.T):
        rows.append([
            t, cost_t[t], float(prod[t].sum()), float(inst.tau[t]),
            int((loads[t] > inst.M[t]).sum()),
            int(switches_t[t - 1]) if t > 0 else 0,
        ])
    write_csv(out_dir / "timeseries.csv",
              ["t", "production_cost", "power_produced", "power_target",
               "overloaded_lines", "switches_into_t"], rows)
    return {"objective": result.score, "timepoints": inst.T}
