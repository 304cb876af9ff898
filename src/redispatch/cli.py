"""Command line interface.

Subcommands:

* build-instance       dataset directory or synthetic shape -> instance JSON
* solve                instance JSON -> solution, report and trace files
* experiment           one of the four desk-scale studies -> report CSVs
* estimate-sensitivity dataset directory -> fitted sensitivity CSV

Every command writes a MANIFEST.json recording the full effective
configuration, seeds included, and its SHA-256 hash; repeating a command
with the same manifest inputs and iteration-bounded budgets reproduces the
CSV outputs byte for byte.  A command rejects every flag it does not read.
Exit codes: 0 success, 2 bad configuration or input (any
redispatch.InputError, or a missing file), 3 runtime failure.  The package
checks its own arguments; this module checks only the flags themselves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from importlib import metadata
from pathlib import Path

import numpy as np

from . import data as data_mod
from .experiments import (
    REPORT_COLUMNS,
    SOLVERS,
    ExperimentSettings,
    composed_objective,
    fmt,
    read_out,
    report_cells,
    run_decomposers,
    run_penalty_norm,
    run_score_norm,
    run_solver,
    run_timeseries,
    write_csv,
)
from .qubo import InputError
from .solvers import write_trace_csv

__all__ = ["main"]

SIZE_PRESETS = {
    # states counted as 1 off state plus production levels
    "S": {"T": 2, "k": 3, "promote_statics": False},
    "L": {"T": 8, "k": 5, "promote_statics": True},
}

# study -> (runner, the budget flags it reads); an omitted budget takes its
# ExperimentSettings default, and --max-iterations sets tabu_iterations
STUDIES = {
    "penalty-norm": (run_penalty_norm, ("max_iterations",)),
    "score-norm": (run_score_norm, ("max_iterations",)),
    "decomposers": (run_decomposers, ("max_steps", "time_limit")),
    "timeseries": (run_timeseries, ("time_limit",)),
}

# solve's size flags and the solvers that read them; an omitted one takes
# its ExperimentSettings default
SOLVER_SIZES = {"batch_size": ("alpha",),
                "subproblem_size": ("random-decomp", "score-decomp")}


class ConfigError(InputError):
    """Bad flags or config file; an InputError, so exit code 2."""


def _package_version() -> str:
    try:
        return metadata.version("redispatch")
    except metadata.PackageNotFoundError:  # running from a checkout
        return "0.0.0"


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(out_dir: Path, command: str, config: dict) -> None:
    _write_json(out_dir / "MANIFEST.json", {
        "command": command, "config": config,
        "config_hash": _config_hash(config), "version": _package_version(),
    })


def _apply_config_file(args, parser: argparse.ArgumentParser) -> None:
    """Values from --config take precedence over command line flags.

    Each value goes through its flag's type and choices, as if it had been
    typed on the command line; null keeps the command line value.
    """
    if not getattr(args, "config", None):
        return
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        overrides = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(overrides, dict):
        raise ConfigError(f"config file {path}: expected a JSON object")
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in commands.choices[args.command]._actions}
    for key, value in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"config file {path}: unknown setting {key!r}")
        if value is None:
            continue
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            value = (action.type or str)(text)
        except ValueError as exc:
            raise ConfigError(f"config file {path}: bad {key!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"config file {path}: {key!r} must be one of "
                              f"{list(action.choices)}, got {text}")
        setattr(args, action.dest, value)


def _shape_flags(args, size: str | None) -> list:
    """T, k and promote_statics: each flag as given, else the size preset's
    value (without a preset: None for T and k, False for promote_statics)."""
    preset = SIZE_PRESETS.get(size, {"promote_statics": False})
    return [preset.get(key) if getattr(args, key) is None else getattr(args, key)
            for key in ("T", "k", "promote_statics")]


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_build_instance(args) -> int:
    if bool(args.data_dir) == bool(args.synthetic):
        raise ConfigError("pass exactly one of --data-dir or --synthetic n,k,T,L")
    T, k, promote = _shape_flags(args, args.size)
    if args.synthetic:
        if args.size is not None or args.promote_statics is not None:
            raise ConfigError("--size and --promote-statics do not apply to --synthetic")
        try:
            n, k_s, t_s, L = (int(v) for v in args.synthetic.split(","))
        except ValueError as exc:
            raise ConfigError(f"--synthetic wants n,k,T,L integers: {exc}") from exc
        for flag, given, value in (("--T", T, t_s), ("--k", k, k_s)):
            if given not in (None, value):
                raise ConfigError(f"{flag} {given} disagrees with --synthetic "
                                  f"{args.synthetic} (n,k,T,L)")
        inst, _ = data_mod.synth_instance(n, k_s, t_s, L, seed=args.seed)
    else:
        if T is None or k is None:
            raise ConfigError("need --size S|L or explicit --T and --k")
        inst = data_mod.build_instance(data_mod.load_network(args.data_dir),
                                       T, k, seed=args.seed,
                                       promote_statics=promote)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data_mod.save_instance(out, inst)
    config = {
        "data_dir": str(args.data_dir) if args.data_dir else None,
        "synthetic": args.synthetic, "size": args.size, "T": inst.T, "k": inst.k,
        "promote_statics": promote, "seed": args.seed, "out": str(out),
    }
    _write_manifest(out.parent, "build-instance", config)
    print(f"wrote instance: T={inst.T} n={inst.n} k={inst.k} L={inst.L} -> {out}")
    return 0


def cmd_solve(args) -> int:
    sizes = {}
    for dest, readers in SOLVER_SIZES.items():
        flag, value = f"--{dest.replace('_', '-')}", getattr(args, dest)
        if value is None:
            value = getattr(ExperimentSettings, dest)
        elif args.solver not in readers:
            raise ConfigError(f"{flag} does not apply to solver {args.solver}")
        sizes[dest] = value
    inst = data_mod.load_instance(args.instance)
    result = run_solver(args.solver, inst, composed_objective(inst), args.seed,
                        args.max_iterations,
                        math.inf if args.time_limit is None else args.time_limit,
                        **sizes)
    out = _out_dir(args)
    Z, feasible, report = read_out(inst, result.best)
    solution = {
        "schedule": Z.tolist(),
        "objective": result.score,
        "iterations": result.iterations,
        "feasible": feasible,
        "overloaded_lines": report.overloaded_lines,
        "production_cost": report.production_cost,
        "switching_cost": report.switching_cost,
        "fulfilled_timepoints": report.fulfilled_timepoints,
        "switches": report.switches,
    }
    _write_json(out / "solution.json", solution)
    _write_json(out / "timing.json", {"wall_seconds": result.wall_seconds})
    write_trace_csv(out / "trace.csv", result.trace)
    write_csv(out / "report.csv",
              ["solver", "seed", "iterations", "objective", *REPORT_COLUMNS],
              [[args.solver, args.seed, result.iterations, result.score,
                *report_cells(report, feasible)]])
    config = {
        "instance": str(args.instance), "solver": args.solver,
        "seed": args.seed, "max_iterations": args.max_iterations,
        "time_limit": args.time_limit, **sizes,
    }
    _write_manifest(out, "solve", config)
    print(f"{args.solver}: objective {fmt(result.score)}, "
          f"feasible={feasible}, -> {out}")
    return 0


def cmd_experiment(args) -> int:
    runner, reads = STUDIES[args.which]
    given = {}
    for dest, field in (("max_iterations", "tabu_iterations"),
                        ("max_steps", "max_steps"), ("time_limit", "time_limit")):
        if getattr(args, dest) is None:
            continue
        if dest not in reads:
            raise ConfigError(f"--{dest.replace('_', '-')} does not apply to "
                              f"experiment {args.which}")
        given[field] = getattr(args, dest)
    ds = data_mod.load_network(args.data_dir)
    out = _out_dir(args)
    if args.seeds:
        try:
            given["seeds"] = tuple(int(s) for s in args.seeds.split(","))
        except ValueError as exc:
            raise ConfigError(f"--seeds wants comma separated integers: {exc}") from exc
    T, k, promote = _shape_flags(args, args.size)
    settings = ExperimentSettings(T=T, k=k, promote_statics=promote, **given)
    summary = runner(ds, settings, out)
    config = {
        "which": args.which, "data_dir": str(args.data_dir),
        "size": args.size, "T": settings.T, "k": settings.k,
        "seeds": list(settings.seeds),
        "max_iterations": settings.tabu_iterations,
        "time_limit": settings.time_limit, "max_steps": settings.max_steps,
        "promote_statics": settings.promote_statics,
    }
    _write_manifest(out, f"experiment {args.which}", config)
    print(json.dumps({"experiment": args.which, "summary": summary},
                     sort_keys=True, default=float))
    return 0


def cmd_estimate_sensitivity(args) -> int:
    ds = data_mod.load_network(args.data_dir)
    phi = np.hstack([ds.controllable_profiles, ds.fixed_profiles])
    fit = data_mod.estimate_sensitivity(phi, ds.flows, args.max_iterations)
    out = _out_dir(args)
    source_ids = [c.id for c in ds.controllables] + list(ds.fixed_ids)
    write_csv(out / "sensitivity.csv", ["source_id", "line_id", "sensitivity"],
              [[ident, line.id, fit.S[i, l]]
               for i, ident in enumerate(source_ids)
               for l, line in enumerate(ds.lines)])
    write_csv(out / "fit_loss.csv", ["iteration", "loss"],
              [[i, v] for i, v in enumerate(fit.loss_trace)])
    _write_json(out / "fit.json", {
        "iterations": fit.iterations, "final_loss": fit.loss_trace[-1],
        "kkt_residual": fit.kkt_residual, "converged": fit.converged})
    config = {
        "data_dir": str(args.data_dir), "max_iterations": args.max_iterations,
    }
    _write_manifest(out, "estimate-sensitivity", config)
    print(f"fit loss {fmt(fit.loss_trace[-1])} after {fit.iterations} "
          f"iterations, KKT residual {fit.kkt_residual:.3g} "
          f"(converged={fit.converged}) -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redispatch",
        description="QUBO re-dispatch toolkit: build instances, solve, reproduce studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        # no abbreviations: `experiment --seed` must not mean --seeds
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="JSON file whose values override flags")
        return p

    p = command("build-instance", "derive an instance file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data-dir", help="dataset directory of CSV files")
    p.add_argument("--synthetic", help="n,k,T,L for a planted synthetic instance")
    p.add_argument("--size", choices=list(SIZE_PRESETS), default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--promote-statics", type=int, choices=(0, 1), default=None)
    p.add_argument("--out", default="instance.json")
    p.set_defaults(func=cmd_build_instance)

    p = command("solve", "minimize the composite objective")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instance", required=True)
    p.add_argument("--solver", default="alpha", choices=SOLVERS)
    p.add_argument("--max-iterations", type=int, default=10000)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--subproblem-size", type=int, default=None)
    p.add_argument("--out-dir", default="solve-out")
    p.set_defaults(func=cmd_solve)

    p = command("experiment", "run one desk-scale study")
    p.add_argument("which", choices=list(STUDIES))
    p.add_argument("--data-dir", required=True)
    p.add_argument("--size", choices=list(SIZE_PRESETS), default="S")
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seeds", help="comma separated seed list, default 0..9")
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--promote-statics", type=int, choices=(0, 1), default=None)
    p.add_argument("--out-dir", default="experiment-out")
    p.set_defaults(func=cmd_experiment)

    p = command("estimate-sensitivity", "fit line sensitivities")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument("--out-dir", default="sensitivity-out")
    p.set_defaults(func=cmd_estimate_sensitivity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, parser)
        return args.func(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
