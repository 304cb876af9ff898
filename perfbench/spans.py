"""Traced passes: spans recorded from outside the package.

The tracer swaps module-level names of the package for timing wrappers (the
way ``test_criterion_4`` swaps ``alphaexp.decode_one_hot``) and restores them
afterwards.  A name bound in several modules is wrapped in each module that
calls it, so every call site is seen; the span name says which layer the call
is charged to.  Hot per-flip methods (``Qubo.adjacency``, ``evaluate``,
``coefficient``) are never wrapped.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from redispatch import (
    alphaexp,
    data,
    decomposers,
    encodings,
    experiments,
    qubo as qubo_mod,
    solvers,
)

LAYERS = ("data", "encodings", "qubo", "solvers", "alphaexp", "decomposers",
          "experiments")


def _fit_info(args, kwargs, result):
    return {"iterations": result.iterations, "converged": result.converged}


def _solver_qubo(args, kwargs):
    if "qubo" in kwargs:
        return kwargs["qubo"]
    first = args[0]
    return first.qubo if isinstance(first, solvers.SolveRequest) else first


def _top_solve_info(args, kwargs, result):
    return {"iterations": result.iterations,
            "improvements": len(result.trace) - 1 if result.trace else 0,
            "terms": _solver_qubo(args, kwargs).num_terms}


def _alpha_info(args, kwargs, result):
    return _top_solve_info(args[1:], kwargs, result)


def _decompose_info(args, kwargs, result):
    info = _top_solve_info(args, kwargs, result)
    info["strategy"] = args[2].strategy
    return info


def _iterations(args, kwargs, result):
    return {"iterations": result.iterations}


E, X = encodings, experiments
# (modules holding the name, attribute, span name, layer, result extractor)
TARGETS = [
    ((data,), "load_network", "data.load_network", "data", None),
    ((data, X), "build_instance", "data.build_instance", "data", None),
    ((data,), "estimate_sensitivity", "data.estimate_sensitivity", "data",
     _fit_info),
    ((data,), "save_instance", "data.instance_io", "data", None),
    ((data,), "load_instance", "data.instance_io", "data", None),
    ((E, X), "build_objective", "encodings.build_objective", "encodings", None),
    ((E, X), "build_power_qubo", "encodings.build_power", "encodings", None),
    ((E, X), "build_load_qubo", "encodings.build_load", "encodings", None),
    ((E, X), "build_onehot_qubo", "encodings.build_onehot", "encodings", None),
    ((E, X), "build_adjacency_qubo", "encodings.build_adjacency", "encodings",
     None),
    ((E, X), "build_cost_qubo", "encodings.build_cost", "encodings", None),
    ((E, X), "build_switch_qubo", "encodings.build_switch", "encodings", None),
    ((E, X), "extremal_scores", "encodings.extremal_scores", "encodings", None),
    ((E, X), "weighted_sum", "qubo.weighted_sum", "qubo", None),
    ((E, X), "normalize_range", "qubo.normalize_range", "qubo", None),
    ((qubo_mod.Qubo,), "clamp", "qubo.clamp", "qubo", None),
    ((X,), "composed_objective", "experiments.composed_objective",
     "experiments", None),
    ((X,), "run_decomposers", "experiments.run_decomposers", "experiments",
     None),
    ((X,), "run_penalty_norm", "experiments.run_penalty_norm", "experiments",
     None),
    ((solvers, X), "tabu_search", "solvers.tabu", "solvers", _top_solve_info),
    ((solvers,), "brute_force", "solvers.brute", "solvers", _top_solve_info),
    ((alphaexp, X), "alpha_expansion", "alphaexp.alpha_expansion", "alphaexp",
     _alpha_info),
    ((alphaexp,), "build_alpha_qubo", "alphaexp.move_qubo", "alphaexp", None),
    ((alphaexp,), "rectify", "alphaexp.propose", "alphaexp", None),
    ((alphaexp,), "sample_disjoint_changes", "alphaexp.propose", "alphaexp",
     None),
    ((alphaexp,), "brute_force", "alphaexp.subsolve", "alphaexp", None),
    ((alphaexp,), "tabu_search", "alphaexp.subsolve", "alphaexp", None),
    ((decomposers, X), "decompose_loop", "decomposers.decompose_loop",
     "decomposers", _decompose_info),
    ((decomposers,), "random_subproblem", "decomposers.select", "decomposers",
     None),
    ((decomposers,), "score_subproblem", "decomposers.select", "decomposers",
     None),
    ((decomposers,), "brute_force", "decomposers.subsolve", "decomposers",
     _iterations),
    ((decomposers,), "tabu_search", "decomposers.subsolve", "decomposers",
     _iterations),
]


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "child_time", "info")

    def __init__(self, name, layer, start, parent):
        self.name, self.layer, self.start, self.parent = name, layer, start, parent
        self.end = start
        self.child_time = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Collects spans (name, start, end, parent) for one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, layer, time.perf_counter(), parent)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(sp)
            if parent is not None:
                parent.child_time += sp.duration

    def _wrapper(self, fn, name, layer, extract):
        def traced(*args, **kwargs):
            with self.span(name, layer) as sp:
                result = fn(*args, **kwargs)
            if extract is not None:
                sp.info = extract(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target name for the duration of the block."""
        saved = []
        try:
            for owners, attr, name, layer, extract in TARGETS:
                for owner in owners:
                    fn = getattr(owner, attr)
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self._wrapper(fn, name, layer, extract))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- metrics ----------------------------------------------------------

    def _named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def _total(self, name: str) -> float:
        return sum(s.duration for s in self._named(name))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded in one pass."""
        m: dict[str, float] = {}
        fits = [s.info for s in self._named("data.estimate_sensitivity")]
        m["data.load_network_s"] = self._total("data.load_network")
        m["data.build_instance_s"] = self._total("data.build_instance")
        m["data.build_instance_calls"] = len(self._named("data.build_instance"))
        m["data.estimate_sensitivity_s"] = self._total("data.estimate_sensitivity")
        m["data.fit_iterations"] = _mean([f["iterations"] for f in fits])
        m["data.fit_converged_frac"] = _mean([float(f["converged"]) for f in fits])
        m["data.instance_io_s"] = self._total("data.instance_io")

        for part in ("objective", "power", "load", "onehot", "adjacency",
                     "cost", "switch"):
            m[f"encodings.build_{part}_s"] = self._total(f"encodings.build_{part}")
        m["encodings.extremal_scores_s"] = self._total("encodings.extremal_scores")

        top = [s.info for s in self.spans
               if s.name in ("solvers.tabu", "solvers.brute",
                             "alphaexp.alpha_expansion",
                             "decomposers.decompose_loop")]
        m["qubo.weighted_sum_s"] = self._total("qubo.weighted_sum")
        m["qubo.normalize_range_s"] = self._total("qubo.normalize_range")
        m["qubo.adjacency_s"] = self._total("qubo.adjacency")
        m["qubo.clamp_s"] = self._total("qubo.clamp")
        m["qubo.clamp_calls"] = len(self._named("qubo.clamp"))
        m["qubo.objective_terms"] = _mean([t["terms"] for t in top])

        tabu = self._named("solvers.tabu")
        flips = sum(s.info["iterations"] for s in tabu)
        m["solvers.tabu_calls"] = len(tabu)
        m["solvers.tabu_flips"] = flips
        m["solvers.tabu_s"] = self._total("solvers.tabu")
        m["solvers.tabu_us_per_flip"] = (
            1e6 * m["solvers.tabu_s"] / flips if flips else 0.0)
        m["solvers.brute_calls"] = len(self._named("solvers.brute"))
        m["solvers.brute_s"] = self._total("solvers.brute")

        alpha = self._named("alphaexp.alpha_expansion")
        steps = sum(s.info["iterations"] for s in alpha)
        accepted = sum(s.info["improvements"] for s in alpha)
        moves = [1e6 * s.duration for s in self._named("alphaexp.move_qubo")]
        m["alphaexp.total_s"] = self._total("alphaexp.alpha_expansion")
        m["alphaexp.steps"] = steps
        m["alphaexp.accepted_steps"] = accepted
        m["alphaexp.accept_ratio"] = accepted / steps if steps else 0.0
        m["alphaexp.propose_s"] = self._total("alphaexp.propose")
        m["alphaexp.move_qubo_s"] = self._total("alphaexp.move_qubo")
        m["alphaexp.move_qubo_calls"] = len(moves)
        _quantiles(m, "alphaexp.move_qubo_us", moves)
        m["alphaexp.subsolve_s"] = self._total("alphaexp.subsolve")
        m["alphaexp.apply_s"] = sum(s.self_time for s in alpha)

        loops = self._named("decomposers.decompose_loop")
        dsteps = sum(s.info["iterations"] for s in loops)
        improved = sum(s.info["improvements"] for s in loops)
        subs = self._named("decomposers.subsolve")
        m["decomposers.total_s"] = self._total("decomposers.decompose_loop")
        m["decomposers.steps"] = dsteps
        m["decomposers.improve_ratio"] = improved / dsteps if dsteps else 0.0
        for strategy in ("random", "score"):
            runs = [s.info for s in loops if s.info["strategy"] == strategy]
            tried = sum(r["iterations"] for r in runs)
            m[f"decomposers.{strategy}_improve_ratio"] = (
                sum(r["improvements"] for r in runs) / tried if tried else 0.0)
        m["decomposers.select_clamp_s"] = self._total("decomposers.select")
        m["decomposers.subsolve_s"] = self._total("decomposers.subsolve")
        m["decomposers.subsolve_flips"] = sum(s.info["iterations"] for s in subs)
        _quantiles(m, "decomposers.subsolve_ms",
                   [1e3 * s.duration for s in subs])

        for layer in LAYERS + ("bench",):
            m[f"{layer}.self_s"] = sum(s.self_time for s in self.spans
                                       if s.layer == layer)
        m["trace.spans"] = len(self.spans)
        return m


class NullTracer:
    """Stand-in for the tracer in untraced passes: nothing is wrapped."""

    def span(self, name: str, layer: str):
        return contextlib.nullcontext()

    def installed(self):
        return contextlib.nullcontext(self)


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(count: int) -> float:
    """Highest percentile with at least ten samples beyond it (else the median)."""
    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return 50.0


def _quantiles(m: dict, prefix: str, samples: list[float]) -> None:
    """p50 and tail of `samples`, with the tail's percentile and sample count."""
    pct = tail_percentile(len(samples)) if samples else 0.0
    m[f"{prefix}_p50"] = float(np.percentile(samples, 50)) if samples else 0.0
    m[f"{prefix}_tail"] = float(np.percentile(samples, pct)) if samples else 0.0
    m[f"{prefix}_tail_pct"] = pct
    m[f"{prefix}_samples"] = len(samples)


def self_time_by_layer(m: dict) -> list[tuple[str, float]]:
    """Layers ordered by self time, largest first."""
    rows = [(layer, m[f"{layer}.self_s"]) for layer in LAYERS]
    return sorted(rows, key=lambda r: -r[1])
