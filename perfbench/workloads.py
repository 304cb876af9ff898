"""The three pinned benchmark workloads.

Each workload turns the benchmark seed into its inputs (a synthetic network
written as CSV files, plus a study seed list), runs one pass of fixed,
iteration-bounded work through the public API of the package, and checks the
outputs of that pass.  Every ``time_limit`` is ``math.inf``, so the work per
pass is fixed and its outputs are deterministic.

The package modules are looked up as attributes at call time
(``data.build_instance(...)``), so the wrappers the traced run installs on
those attributes see every call.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from redispatch import alphaexp, data, experiments, model, solvers

# Network shapes.  The L preset promotes every never-negative fixed element to
# a controllable, and the generator draws the sign of each fixed element at
# random, so the controllable count after promotion varies with the network
# seed.  The benchmark pins it (desk: 12 + 2 = 14, dim 560 at T=8, k=5;
# ladder: 102 + 3 = 105, dim 4200) by taking the first network seed derived
# from the benchmark seed that gives that count.  Otherwise wall time would
# follow the drawn problem size from seed to seed.
DESK = {"n_controllables": 12, "n_lines": 20, "raw_timepoints": 16,
        "n_fixed": 6, "promoted": 2}
LADDER = {"n_controllables": 102, "n_lines": 20, "raw_timepoints": 16,
          "n_fixed": 6, "promoted": 3}

PRESET_L = {"T": 8, "k": 5, "promote_statics": True}
PRESET_S = {"T": 2, "k": 3, "promote_statics": False}

DECOMP_SEEDS = 2          # study seeds per desk-decomp-L pass
PNORM_SEEDS = 10          # study seeds per desk-pnorm-S pass
PNORM_TABU_ITERATIONS = 4000
LADDER_ALPHA_EPOCHS = 3
LADDER_BATCH = 12
LADDER_TABU_FLIPS = 20_000
SCORE_TOL = 1e-9


@dataclass
class Inputs:
    """Everything a pass needs; the program sees only `net_dir` and the seeds."""

    net_dir: Path
    network_seed: int
    study_seeds: tuple[int, ...]


@dataclass
class PassResult:
    """What one pass produced: quality figures and the operation tally."""

    quality: dict[str, float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def _promoted_count(net_dir: Path) -> int:
    """Fixed elements the L preset turns into controllables (never negative)."""
    series: dict[str, list[float]] = {}
    with open(net_dir / "fixed_profiles.csv", newline="", encoding="ascii") as fh:
        for row in csv.DictReader(fh):
            series.setdefault(row["id"], []).append(float(row["mw"]))
    return sum(1 for v in series.values() if min(v) >= 0 and max(v) > 0)


def make_network(seed: int, spec: dict, root: Path) -> tuple[Path, int]:
    """Write the network for `seed`; returns (directory, network seed used)."""
    shape = {key: spec[key] for key in
             ("n_controllables", "n_lines", "raw_timepoints", "n_fixed")}
    for attempt in range(1000):
        net_seed = seed * 1000 + attempt
        net_dir = data.write_synthetic_network(root / f"net-{net_seed}",
                                               seed=net_seed, **shape)
        if _promoted_count(net_dir) == spec["promoted"]:
            return net_dir, net_seed
    raise RuntimeError(f"no network seed for {seed} gives the pinned size")


def study_seeds(seed: int, count: int) -> tuple[int, ...]:
    rng = np.random.default_rng([seed, 7])
    return tuple(int(s) for s in rng.integers(0, 2**31, size=count))


def hard_floor(T: int, n: int) -> float:
    """Hard-constraint floor of composed_objective: -10 max(1, sum w) T n."""
    return -10.0 * max(1.0, sum(model.DEFAULT_WEIGHTS)) * T * n


class Checker:
    """Tallies operations and the output checks that fail them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def result(self, quality: dict[str, float]) -> PassResult:
        bad = [k for k, v in quality.items() if not math.isfinite(v)]
        if bad:
            self.failed += 1
            self.problems.append(f"non-finite quality {bad}")
        return PassResult(quality, self.attempted, self.failed, self.problems)


def _schedule_problems(x: np.ndarray, T: int, n: int, k: int) -> list[str]:
    try:
        Z = model.decode_one_hot(x, T, n, k)
    except ValueError as exc:
        return [f"not one-hot ({exc})"]
    if not model.is_adjacent_feasible(Z):
        return ["not adjacency-feasible"]
    return []


def _score_problems(qubo, result) -> list[str]:
    score = result.score
    if not math.isfinite(score):
        return [f"non-finite score {score}"]
    exact = qubo.evaluate(result.best)
    if abs(score - exact) > SCORE_TOL * (1.0 + abs(score)):
        return [f"reported score {score!r} != evaluate(best) {exact!r}"]
    return []


def _trace_problems(result) -> list[str]:
    scores = [s for _, s in result.trace or []]
    for a, b in zip(scores, scores[1:]):
        if b > a + SCORE_TOL * (1.0 + abs(a)):
            return [f"trace rises from {a!r} to {b!r}"]
    return []


@contextlib.contextmanager
def capture_calls(module, names: tuple[str, ...]):
    """Record (name, args, result) of calls to `module.<name>` in the block.

    Only return values are kept, for the output checks after the pass; this
    adds a few microseconds per solver call and is active in untraced passes
    too, so both kinds of pass run the same code.
    """
    calls: list[tuple[str, tuple, object]] = []
    saved = {name: getattr(module, name) for name in names}

    def recorder(name, fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((name, args, result))
            return result
        return call

    for name, fn in saved.items():
        setattr(module, name, recorder(name, fn))
    try:
        yield calls
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def _settings(preset: dict, seeds: tuple[int, ...], **extra):
    return experiments.ExperimentSettings(
        T=preset["T"], k=preset["k"], seeds=seeds,
        promote_statics=preset["promote_statics"], time_limit=math.inf,
        **extra)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _soft(qubo_score: float, T: int, n: int) -> float:
    return qubo_score - hard_floor(T, n)


# -- desk-decomp-L ---------------------------------------------------------
# run_decomposers at the L preset: alpha, random-decomp and score-decomp per
# study seed, on the composite objective of each seed's instance.

def prepare_decomp(seed: int, root: Path) -> Inputs:
    net_dir, net_seed = make_network(seed, DESK, root)
    return Inputs(net_dir, net_seed, study_seeds(seed, DECOMP_SEEDS))


def run_decomp(inp: Inputs, out_dir: Path, tracer) -> dict:
    ds = data.load_network(inp.net_dir)
    settings = _settings(PRESET_L, inp.study_seeds, max_steps=60,
                         subproblem_size=40, batch_size=12)
    with capture_calls(experiments, ("alpha_expansion", "decompose_loop")) as calls:
        summary = experiments.run_decomposers(ds, settings, out_dir)
    return {"summary": summary, "calls": calls}


def check_decomp(inp: Inputs, out_dir: Path, out: dict) -> PassResult:
    check = Checker()
    T, k = PRESET_L["T"], PRESET_L["k"]
    n = DESK["n_controllables"] + DESK["promoted"]
    for _ in inp.study_seeds:
        check.op("build_instance", [])
    feasible = []
    for name, args, result in out["calls"]:
        qubo = args[1] if name == "alpha_expansion" else args[0]
        sched = _schedule_problems(result.best, T, n, k)
        feasible.append(not sched)
        problems = _score_problems(qubo, result)
        if name == "alpha_expansion":
            problems += sched + _trace_problems(result)
        check.op(name, problems)

    study = []
    rows = [r for r in _read_rows(out_dir / "decomposers.csv")
            if r["decomposer"] in ("alpha", "random", "score")]
    if len(rows) != 3 * len(inp.study_seeds):
        study.append(f"{len(rows)} solver rows in decomposers.csv")
    for r in rows:
        if not math.isfinite(float(r["objective"])):
            study.append(f"non-finite objective: {r}")
        if r["decomposer"] == "alpha" and r["feasible"] != "1":
            study.append(f"infeasible alpha row: {r}")
    check.op("run_decomposers", study)

    summary = out["summary"]
    soft = {name: _soft(summary[name]["objective_mean"], T, n)
            for name in ("alpha", "random", "score")}
    return check.result({
        "soft_obj": float(np.mean(list(soft.values()))),
        "feasible_frac": float(np.mean(feasible)),
        **{f"soft_obj_{name}": v for name, v in soft.items()},
    })


# -- ladder-4200 -----------------------------------------------------------
# The library version of `build-instance` then `solve` on one large network.

def prepare_ladder(seed: int, root: Path) -> Inputs:
    net_dir, net_seed = make_network(seed, LADDER, root)
    return Inputs(net_dir, net_seed, study_seeds(seed, 1))


def run_ladder(inp: Inputs, out_dir: Path, tracer) -> dict:
    seed = inp.study_seeds[0]
    ds = data.load_network(inp.net_dir)
    built = data.build_instance(ds, PRESET_L["T"], PRESET_L["k"], seed=seed,
                                promote_statics=PRESET_L["promote_statics"])
    path = out_dir / "instance.json"
    data.save_instance(path, built)
    inst = data.load_instance(path)
    qubo = experiments.composed_objective(inst)
    with tracer.span("qubo.adjacency", "qubo"):
        qubo.adjacency()
    x0 = model.encode_one_hot(np.ones((inst.T, inst.n), dtype=int),
                              inst.T, inst.n, inst.k)
    alpha = alphaexp.alpha_expansion(
        inst, qubo, x0, batch_size=LADDER_BATCH,
        budget=solvers.Budget(max_iterations=LADDER_ALPHA_EPOCHS,
                              time_limit=math.inf),
        seed=seed)
    tabu = solvers.tabu_search(solvers.SolveRequest(
        qubo=qubo, initial=x0, seed=seed,
        budget=solvers.Budget(max_iterations=LADDER_TABU_FLIPS,
                              time_limit=math.inf)))
    return {"built": built, "inst": inst, "qubo": qubo, "alpha": alpha,
            "tabu": tabu}


def check_ladder(inp: Inputs, out_dir: Path, out: dict) -> PassResult:
    check = Checker()
    inst, qubo, alpha, tabu = out["inst"], out["qubo"], out["alpha"], out["tabu"]
    same = data.instance_to_dict(inst) == data.instance_to_dict(out["built"])
    check.op("build_instance",
             [] if same else ["instance changed in a save/load round trip"])
    shape = (inst.T, inst.n, inst.k)
    alpha_sched = _schedule_problems(alpha.best, *shape)
    tabu_sched = _schedule_problems(tabu.best, *shape)
    check.op("alpha_expansion", _score_problems(qubo, alpha) + alpha_sched
             + _trace_problems(alpha))
    check.op("tabu_search", _score_problems(qubo, tabu))
    soft = {"alpha": _soft(alpha.score, inst.T, inst.n),
            "tabu": _soft(tabu.score, inst.T, inst.n)}
    return check.result({
        "soft_obj": float(np.mean(list(soft.values()))),
        "feasible_frac": ((not alpha_sched) + (not tabu_sched)) / 2.0,
        **{f"soft_obj_{name}": v for name, v in soft.items()},
    })


# -- desk-pnorm-S ----------------------------------------------------------
# run_penalty_norm at the S preset: baseline and normalized penalties, one
# tabu run each per study seed.

def prepare_pnorm(seed: int, root: Path) -> Inputs:
    net_dir, net_seed = make_network(seed, DESK, root)
    return Inputs(net_dir, net_seed, study_seeds(seed, PNORM_SEEDS))


def run_pnorm(inp: Inputs, out_dir: Path, tracer) -> dict:
    ds = data.load_network(inp.net_dir)
    settings = _settings(PRESET_S, inp.study_seeds,
                         tabu_iterations=PNORM_TABU_ITERATIONS)
    with capture_calls(experiments, ("build_instance", "tabu_search")) as calls:
        summary = experiments.run_penalty_norm(ds, settings, out_dir)
    return {"summary": summary, "calls": calls}


def check_pnorm(inp: Inputs, out_dir: Path, out: dict) -> PassResult:
    """Besides the study's checks, scores each final schedule on the composite.

    The study minimizes power + load only; soft_obj scores its schedules on
    composed_objective, the objective the other workloads minimize.
    """
    check = Checker()
    soft, feasible = [], []
    for name, args, result in out["calls"]:
        if name == "build_instance":
            inst = result
            composite = experiments.composed_objective(inst)
            check.op(name, [])
            continue
        (req,) = args
        shape = (inst.T, inst.n, inst.k)
        sched = _schedule_problems(result.best, *shape)
        feasible.append(not sched)
        soft.append(_soft(composite.evaluate(result.best), inst.T, inst.n))
        check.op(name, _score_problems(req.qubo, result))
    base, norm = out["summary"]["baseline"], out["summary"]["normalized"]
    margin_holds = (norm["overloads_mean"] + norm["overloads_std"]
                    < base["overloads_mean"] - base["overloads_std"])
    check.op("run_penalty_norm", [] if margin_holds else [
        f"criterion-5 margin fails: normalized {norm}, baseline {base}"])
    return check.result({
        "soft_obj": float(np.mean(soft)),
        "feasible_frac": float(np.mean(feasible)),
        "overloads_normalized": norm["overloads_mean"],
        "overloads_baseline": base["overloads_mean"],
    })


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int, Path], Inputs]
    run: Callable[[Inputs, Path, object], dict]
    check: Callable[[Inputs, Path, dict], PassResult]


WORKLOADS = {
    "desk-decomp-L": Workload(prepare_decomp, run_decomp, check_decomp),
    "ladder-4200": Workload(prepare_ladder, run_ladder, check_ladder),
    "desk-pnorm-S": Workload(prepare_pnorm, run_pnorm, check_pnorm),
}
