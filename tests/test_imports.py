"""Every name a package module imports is used there or re-exported, and
every parameter of a package function is read."""

import ast
from pathlib import Path

import redispatch

SRC = Path(redispatch.__file__).parent


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
                or (fn.name.startswith("__") and fn.name.endswith("__"))):
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
