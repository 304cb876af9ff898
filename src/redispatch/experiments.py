"""Desk-scale experiment protocols behind the `experiment` CLI subcommand.

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
    normalized_term,
)
from .model import (
    ProblemInstance,
    decode_one_hot,
    encode_one_hot,
    evaluate_schedule,
    line_loads,
    power_production,
    read_schedule,
)
from .qubo import Qubo
from .solvers import Budget, SolveRequest, tabu_search

# Not called here: the tracer in perfbench/spans.py wraps them on this module.
from .encodings import build_adjacency_qubo, build_onehot_qubo  # noqa: F401
from .qubo import normalize_range, weighted_sum  # noqa: F401

__all__ = [
    "ExperimentSettings",
    "fmt",
    "run_penalty_norm",
    "run_score_norm",
    "run_decomposers",
    "run_timeseries",
]


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


def _hard_weight(soft_span: float) -> float:
    """Hard-constraint weight dominating a soft score range of soft_span."""
    return 10.0 * max(1.0, soft_span)


def _solve_schedule(inst: ProblemInstance, qubo: Qubo, seed: int,
                    iterations: int) -> tuple[np.ndarray, bool]:
    """Tabu from a seeded random constant schedule; returns (schedule, one-hot).

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
    return read_schedule(result.best, inst.T, inst.n, inst.k)


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())


def run_penalty_norm(ds: NetworkDataset, settings: ExperimentSettings,
                     out_dir) -> dict:
    """Baseline vs normalized inequality penalties on the power+load objective.

    For each seed one instance is built; both penalty variants are minimized
    by tabu search under identical budgets and scored on overloads per
    timepoint and power fulfillment.
    """
    rows = []
    per_variant: dict[str, dict[str, list[float]]] = {
        "baseline": {"overloads": [], "fulfillment": []},
        "normalized": {"overloads": [], "fulfillment": []},
    }
    for seed in settings.seeds:
        inst = build_instance(ds, settings.T, settings.k, seed=seed,
                              promote_statics=settings.promote_statics)
        bounds = compute_bounds(inst)
        for variant in ("baseline", "normalized"):
            normalized = variant == "normalized"
            power = build_power_qubo(inst, bounds, normalized=normalized)
            load = build_load_qubo(inst, bounds, normalized=normalized)
            p_lo, p_hi = extremal_scores(inst, "power", qubo=power)
            l_lo, l_hi = extremal_scores(inst, "load", qubo=load)
            span = abs(p_hi - p_lo) + abs(l_hi - l_lo)
            qubo = add_hard_terms(inst, [(1.0, power), (1.0, load)],
                                  _hard_weight(span))
            Z, feasible = _solve_schedule(inst, qubo, seed,
                                          settings.tabu_iterations)
            report = evaluate_schedule(inst, Z)
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
    summary_rows = []
    summary = {}
    for variant, metrics in per_variant.items():
        mo, so = _mean_std(metrics["overloads"])
        mf, sf = _mean_std(metrics["fulfillment"])
        summary_rows.append([variant, mo, so, mf, sf])
        summary[variant] = {"overloads_mean": mo, "overloads_std": so,
                            "fulfillment_mean": mf, "fulfillment_std": sf}
    write_csv(out_dir / "penalty_norm_summary.csv",
              ["variant", "overloads_mean", "overloads_std",
               "fulfillment_mean", "fulfillment_std"],
              summary_rows)
    return summary


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
        scaled = normalized_term(inst, name, raw)
        if scaled is None:
            continue
        kept.append(name)
        # the hard weight dominates the raw span, or 1 once normalized
        for label, q, span in (("raw", raw, scaled[1]),
                               ("normalized", scaled[0], 1.0)):
            scores = q.evaluate_many(sample)
            spread_rows.append([name, label, float(scores.min()),
                                float(np.median(scores)), float(scores.max())])
            for seed in settings.seeds:
                guarded = add_hard_terms(inst, [(1.0, q)], _hard_weight(span))
                Z, feasible = _solve_schedule(inst, guarded, seed,
                                              settings.tabu_iterations)
                report = evaluate_schedule(inst, Z)
                solve_rows.append([
                    name, label, seed, report.overloaded_lines,
                    report.production_cost, report.fulfilled_timepoints,
                    report.switches, int(feasible),
                ])
    write_csv(out_dir / "score_norm_spread.csv",
              ["term", "variant", "min", "median", "max"], spread_rows)
    write_csv(out_dir / "score_norm_solutions.csv",
              ["term", "variant", "seed", "overloaded_lines",
               "production_cost", "fulfilled_timepoints", "switches",
               "feasible"], solve_rows)
    return {"terms": sorted(kept)}


def composed_objective(inst: ProblemInstance) -> Qubo:
    """Score-normalized composite with hard terms boosted above the soft span."""
    return build_objective(inst, score_normalized=True,
                           extra_hard_weight=_hard_weight(sum(inst.weights)))


def run_decomposers(ds: NetworkDataset, settings: ExperimentSettings,
                    out_dir) -> dict:
    """Cycle-move expansion against the clamping baselines on one composite."""
    rows = []
    scores: dict[str, list[float]] = {"alpha": [], "random": [], "score": []}
    for seed in settings.seeds:
        inst = build_instance(ds, settings.T, settings.k, seed=seed,
                              promote_statics=settings.promote_statics)
        qubo = composed_objective(inst)
        x0 = encode_one_hot(np.ones((inst.T, inst.n), dtype=int),
                            inst.T, inst.n, inst.k)
        runs = {}
        runs["alpha"] = alpha_expansion(
            inst, qubo, x0, batch_size=settings.batch_size,
            budget=Budget(max_iterations=50, time_limit=settings.time_limit),
            seed=seed,
        )
        for strategy in ("random", "score"):
            runs[strategy] = decompose_loop(qubo, x0, DecomposeConfig(
                subproblem_size=settings.subproblem_size,
                strategy=strategy,
                max_steps=settings.max_steps,
                time_limit=settings.time_limit,
                seed=seed,
            ))
        for name, result in runs.items():
            Z, feasible = read_schedule(result.best, inst.T, inst.n, inst.k)
            report = evaluate_schedule(inst, Z)
            scores[name].append(result.score)
            rows.append([
                name, seed, result.iterations, result.score,
                report.overloaded_lines, report.production_cost,
                report.fulfilled_timepoints, report.switches, int(feasible),
            ])
    write_csv(out_dir / "decomposers.csv",
              ["decomposer", "seed", "steps", "objective", "overloaded_lines",
               "production_cost", "fulfilled_timepoints", "switches",
               "feasible"], rows)
    summary_rows = []
    summary = {}
    for name, vals in scores.items():
        mean, std = _mean_std(vals)
        summary_rows.append([name, mean, std])
        summary[name] = {"objective_mean": mean, "objective_std": std}
    write_csv(out_dir / "decomposers_summary.csv",
              ["decomposer", "objective_mean", "objective_std"], summary_rows)
    return summary


def run_timeseries(ds: NetworkDataset, settings: ExperimentSettings,
                   out_dir) -> dict:
    """Per-timepoint profile of one solved schedule (cost, power, overloads)."""
    seed = settings.seeds[0]
    inst = build_instance(ds, settings.T, settings.k, seed=seed,
                          promote_statics=settings.promote_statics)
    qubo = composed_objective(inst)
    x0 = encode_one_hot(np.ones((inst.T, inst.n), dtype=int),
                        inst.T, inst.n, inst.k)
    result = alpha_expansion(
        inst, qubo, x0, batch_size=settings.batch_size,
        budget=Budget(max_iterations=50, time_limit=settings.time_limit),
        seed=seed,
    )
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
