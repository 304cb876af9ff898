"""The benchmark's tracer and workloads reach into the package by name.

perfbench/spans.py swaps module attributes for timing wrappers, and
perfbench/workloads.py captures calls made through `experiments`.  A name
removed from a module would silently drop its spans or captured calls, so
every name they use must resolve, and every keyword the workloads pass must
still be a parameter of the callable that receives it.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from redispatch import alphaexp, experiments
from redispatch.data import synth_instance
from redispatch.encodings import FactoredObjective, build_objective
from redispatch.model import encode_one_hot
from redispatch.solvers import Budget

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "redispatch"

# (module, name) imported only so that the tracer can wrap the name there
TRACER_ONLY_IMPORTS = {
    ("redispatch.encodings", "normalize_range"),
    ("redispatch.experiments", "build_adjacency_qubo"),
    ("redispatch.experiments", "build_onehot_qubo"),
    ("redispatch.experiments", "weighted_sum"),
}


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def captured_experiment_names() -> set[str]:
    """Names passed to capture_calls(experiments, (...)) in workloads.py."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "capture_calls"
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "experiments"):
            names |= {elt.value for elt in node.args[1].elts}
    return names


def test_every_traced_name_resolves():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owners, attr, *_ in load_spans().TARGETS
        for owner in owners
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing


def test_tracer_only_imports_are_wrapped_there():
    # an import the module never calls (noqa: F401) is dead unless the
    # tracer wraps that name on that module
    found = set()
    for path in PACKAGE.glob("*.py"):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom) and any(
                    "# noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                found |= {(f"redispatch.{path.stem}", alias.asname or alias.name)
                          for alias in node.names}
    wrapped = {(owner.__name__, attr) for owners, attr, *_ in load_spans().TARGETS
               for owner in owners}
    assert found == TRACER_ONLY_IMPORTS
    assert found <= wrapped


def test_alpha_expansion_calls_each_traced_alphaexp_name(monkeypatch):
    # the split of an alpha step into propose, move QUBO, sub-solve and apply
    # comes from wrapping these names; one inlined would read 0 s
    names = {attr for owners, attr, *_ in load_spans().TARGETS
             if alphaexp in owners} - {"alpha_expansion"}
    assert {"rectify", "sample_disjoint_changes", "build_alpha_qubo",
            "brute_force"} <= names
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(alphaexp, name, counting(name, getattr(alphaexp, name)))
    inst, _ = synth_instance(3, 3, 4, 2, seed=0)
    x0 = encode_one_hot(np.ones((inst.T, inst.n), dtype=int),
                        inst.T, inst.n, inst.k)
    alphaexp.alpha_expansion(inst, build_objective(inst), x0, batch_size=4,
                             budget=Budget(max_iterations=2))
    # tabu search only takes over above 20 moves in one batch
    assert [name for name, n in calls.items()
            if n == 0 and name != "tabu_search"] == []


def test_alpha_scores_every_move_of_the_composite_from_its_factors(monkeypatch):
    # the ladder workload's alphaexp.move_qubo span times build_alpha_qubo;
    # on composed_objective each call must take the factored record, so the
    # span measures that path and not a materialized-QUBO fallback
    objectives = []

    def recording(objective, *args, **kwargs):
        objectives.append(objective)
        return real(objective, *args, **kwargs)

    real = alphaexp.build_alpha_qubo
    monkeypatch.setattr(alphaexp, "build_alpha_qubo", recording)
    inst, _ = synth_instance(4, 4, 5, 2, seed=1)
    qubo = experiments.composed_objective(inst)
    x0 = encode_one_hot(np.ones((inst.T, inst.n), dtype=int),
                        inst.T, inst.n, inst.k)
    alphaexp.alpha_expansion(inst, qubo, x0, batch_size=12,
                             budget=Budget(max_iterations=3))
    assert objectives
    assert all(obj is qubo.factored for obj in objectives)
    assert isinstance(qubo.factored, FactoredObjective)


def test_workload_captured_names_resolve_on_experiments():
    names = captured_experiment_names()
    assert names == {"alpha_expansion", "decompose_loop", "build_instance",
                     "tabu_search"}
    for name in names:
        assert callable(getattr(experiments, name, None)), name


def keyword_calls() -> list[tuple[str, object, list[str]]]:
    """(call text, package callable, keyword names) for each call in workloads.py.

    Covers calls of `<package module>.<name>(...)`, `_settings(...)`, whose
    keywords land in ExperimentSettings through `**extra`, and the `**shape`
    expansion into write_synthetic_network, whose keys are the tuple that
    make_network picks from DESK or LADDER.
    """
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {alias.name: importlib.import_module(f"redispatch.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "redispatch"
               for alias in node.names}
    shape_keys = [
        [elt.value for elt in node.value.generators[0].iter.elts]
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.DictComp)
        and getattr(node.targets[0], "id", None) == "shape"
    ]
    assert len(shape_keys) == 1
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if getattr(func, "id", None) == "_settings":
            target = experiments.ExperimentSettings
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in modules):
            target = getattr(modules[func.value.id], func.attr)
        else:
            continue
        names = []
        for kw in node.keywords:
            if kw.arg is not None:
                names.append(kw.arg)
            elif getattr(kw.value, "id", None) == "shape":
                names += shape_keys[0]
            else:  # **extra inside _settings: checked at the _settings calls
                assert getattr(kw.value, "id", None) == "extra", ast.unparse(node)
        calls.append((ast.unparse(node), target, names))
    return calls


def test_workload_keywords_bind_to_signatures():
    calls = keyword_calls()
    assert any(target is experiments.ExperimentSettings and "max_steps" in names
               for _, target, names in calls)
    assert any("n_controllables" in names for _, _, names in calls)
    unbound = []
    for text, target, names in calls:
        try:
            inspect.signature(target).bind_partial(**dict.fromkeys(names))
        except TypeError as exc:
            unbound.append(f"{text}: {exc}")
    assert not unbound

