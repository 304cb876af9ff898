"""The benchmark's tracer and workloads reach into the package by name.

perfbench/spans.py swaps module attributes for timing wrappers, and
perfbench/workloads.py captures calls made through `experiments`.  A name
removed from a module would silently drop its spans or captured calls, so
every name they use must resolve.
"""

import ast
import importlib.util
from pathlib import Path

from redispatch import experiments

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_workload_captured_names_resolve_on_experiments():
    names = captured_experiment_names()
    assert names == {"alpha_expansion", "decompose_loop", "build_instance",
                     "tabu_search"}
    for name in names:
        assert callable(getattr(experiments, name, None)), name
