"""The package's modules import in one direction, each at its top.

Read from the source with ``ast``: no import statement sits inside a function
or method, and the graph of ``pgroups`` modules importing one another has no
cycle.  The shape layers (``groups``, ``indicators``, ``symbolic``, ``lattice``
and ``matrix``) reach nothing of ``endos``, which builds on them.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pgroups

SOURCE = Path(pgroups.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text("utf-8")) for path in sorted(SOURCE.glob("*.py"))}


def _imported(node: ast.AST) -> set[str]:
    """The ``pgroups`` modules named by one import statement."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names if a.name.startswith("pgroups.")]
        return {name.split(".")[1] for name in names}
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.level == 0:
        module = node.module or ""
        if not module.startswith("pgroups"):
            return set()
        relative = module.split(".")[1:]
    else:
        relative = (node.module or "").split(".") if node.module else []
    if relative:
        return {relative[0]}
    # ``from . import x``: x is a module, or a name of the package itself
    return {a.name if a.name in MODULES else "__init__" for a in node.names}


def _graph() -> dict[str, set[str]]:
    return {
        name: set().union(*map(_imported, ast.walk(tree))) - {name}
        for name, tree in MODULES.items()
    }


def _reach(graph: dict[str, set[str]], start: str) -> set[str]:
    seen, todo = set(), [start]
    while todo:
        for nxt in graph[todo.pop()] - seen:
            seen.add(nxt)
            todo.append(nxt)
    return seen


def test_no_import_inside_a_function():
    local = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [
                    f"{name}.py:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert local == []


def test_module_imports_are_acyclic():
    graph = _graph()
    assert set().union(*graph.values()) <= set(MODULES)
    assert [name for name in graph if name in _reach(graph, name)] == []


def test_shape_layers_reach_nothing_of_endos():
    graph = _graph()
    for name in ("groups", "indicators", "symbolic", "lattice", "matrix"):
        assert "endos" not in _reach(graph, name), name
