"""The package's modules import each other only at module level, and
those imports form no cycle, so the layers in the package docstring are a
real order.  Standard-library imports inside functions (such as `pickle`
in `verify --jobs`) are not the package's and are allowed; start-up
loads neither `pickle` nor `multiprocessing`.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spcthecke"
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _package_modules(node) -> set[str]:
    """The package modules an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1 and node.module is None:  # from . import a, b
            return {alias.name for alias in node.names if alias.name in TREES}
        if node.level == 1:  # from .a import x
            return {node.module.split(".")[0]}
        if node.level == 0 and (node.module or "").split(".")[0] == "spcthecke":
            parts = node.module.split(".")
            return {parts[1]} if len(parts) > 1 else {a.name for a in node.names if a.name in TREES}
        return set()
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("spcthecke.")}
    return set()


def _top_level_graph() -> dict[str, set[str]]:
    return {name: set().union(*map(_package_modules, tree.body)) - {name} for name, tree in TREES.items()}


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle of the graph, or None."""
    state: dict[str, str] = {}  # "open" while on the path, "done" after

    def visit(name, path):
        state[name] = "open"
        for dep in sorted(graph[name]):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state and (found := visit(dep, path + [dep])):
                return found
        state[name] = "done"
        return None

    for name in sorted(graph):
        if name not in state and (found := visit(name, [name])):
            return found
    return None


def test_top_level_imports_are_acyclic():
    graph = _top_level_graph()
    assert graph["verify"] >= {"tableaux", "modules", "hecke"}  # the graph is read at all
    assert _cycle(graph) is None, _cycle(graph)


def test_cycle_search_finds_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) is None


def test_no_function_imports_a_package_module():
    local = []
    for name, tree in TREES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if _package_modules(node):
                        local.append(f"{name}.{fn.name}: {ast.unparse(node)}")
    assert not local, local


def test_startup_loads_no_worker_machinery():
    # `verify --jobs` imports pickle only when it forks; nothing imports multiprocessing
    code = (
        "import contextlib, io, json, sys\n"
        "import spcthecke.cli\n"
        "seen = [sorted({'pickle', 'multiprocessing'} & set(sys.modules))]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    spcthecke.cli.main(['verify', '--list'])\n"
        "seen.append(sorted({'pickle', 'multiprocessing'} & set(sys.modules)))\n"
        "print(json.dumps(seen))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [[], []]
