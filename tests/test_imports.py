"""Every name a package module imports is used there or re-exported, every
parameter of a package function is read, every definition of the package
runs outside the tests, and loading a network pulls in nothing but numpy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import redispatch
from redispatch.data import write_synthetic_network

SRC = Path(redispatch.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if (getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]):
                continue  # kept on purpose, e.g. for an outside tracer
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used | exported]


def test_no_unused_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = [hit for path in modules for hit in _unused_imports(path)]
    assert unused == []


def _unread_parameters(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    unread = []
    for fn in ast.walk(tree):
        if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                or _is_dunder(fn.name)):
            continue  # dunders keep the signature the protocol fixes
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *filter(None, [a.vararg, a.kwarg])]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{path.name}:{fn.lineno}: {fn.name}({p.arg})"
                   for p in params if p.arg not in read]
    return unread


def test_every_parameter_is_read():
    # a parameter no body reads is a setting no caller can change the
    # behaviour with: delete it, or use it
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unread = [hit for path in modules for hit in _unread_parameters(path)]
    assert unread == []


def _uncalled_definitions(modules: list[Path], callers: list[Path]) -> list[str]:
    named = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [f"{path.name}:{node.lineno}: {node.name}"
            for path in modules for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not _is_dunder(node.name) and node.name not in named]


def test_every_definition_runs_outside_the_tests():
    """Each function, method and class defined in the package is named by
    package code outside __init__.py or by the benchmark (perfbench/*.py).

    Code only the tests call (a reference oracle, a convenience wrapper)
    belongs in the tests.  The match is by name only: a definition counts as
    called when any ast.Name or ast.Attribute anywhere in that code carries
    its name, whatever object the name stands for there.  Dunders are
    exempt: the language calls them.
    """
    modules = sorted(SRC.glob("*.py"))
    callers = [p for p in modules if p.name != "__init__.py"]
    benchmark = sorted(PERFBENCH.glob("*.py"))
    assert callers and benchmark
    assert _uncalled_definitions(modules, callers + benchmark) == []


# run in a fresh interpreter: the top-level modules outside the standard
# library that importing redispatch from argv[1] and loading argv[2] adds
LOAD_PROBE = """
import json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import redispatch
redispatch.load_network(sys.argv[2])
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added - set(sys.stdlib_module_names))))
"""


def test_loading_a_network_imports_only_numpy(tmp_path):
    # the benchmark's setup_s times exactly this work in a fresh interpreter;
    # a module-level import of anything heavier shows there first
    net = write_synthetic_network(tmp_path / "net", 3, 2, 6, n_fixed=2)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE, str(SRC.parent), str(net)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert json.loads(done.stdout) == ["numpy", "redispatch"]
