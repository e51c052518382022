"""The package's import layers, read from the source with ``ast``.

Only module-level ``from .x import`` statements count; imports under
``if TYPE_CHECKING:`` are for annotations and never run.
"""

from __future__ import annotations

import argparse
import ast
import graphlib
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "mvdcolor"


def _relative_imports(body: list[ast.stmt]) -> set[str]:
    found: set[str] = set()
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # ``from . import verify`` names the module in its aliases
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                found |= _relative_imports(node.body) | _relative_imports(node.orelse)
    return found


def _import_graph() -> dict[str, set[str]]:
    return {
        path.stem: _relative_imports(ast.parse(path.read_text(encoding="utf-8")).body)
        for path in sorted(SRC.glob("*.py"))
    }


def test_relative_imports_count_both_forms():
    tree = ast.parse("from . import verify\nfrom .blocks import decompose\n")
    assert _relative_imports(tree.body) == {"verify", "blocks"}


def test_import_graph_is_acyclic():
    graph = _import_graph()
    assert {"blocks", "catalog", "solve"} <= graph.keys()
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_solver_does_not_import_the_catalog_at_run_time():
    graph = _import_graph()
    assert "blocks" in graph["solve"]
    assert "catalog" not in graph["solve"]


def test_cli_solves_through_the_block_pipeline_only():
    # ``solve`` has one path: no whole-graph solver is imported or reached by attribute
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "solve_auto" in names
    assert not names & {"mvd_exact", "mvd_closed_form"}


def test_block_search_is_private_to_blocks():
    users = sorted(p.name for p in SRC.glob("*.py") if "_dfs_engine" in p.read_text(encoding="utf-8"))
    assert users == ["blocks.py"]


def test_connectivity_has_one_search():
    # connectivity is the block search's to decide; no second test may grow back beside it
    defined = {
        (path.name, node.name)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert {name for _, name in defined} >= {"_dfs_engine", "decompose"}
    assert not {pair for pair in defined if pair[1] in {"is_connected", "_reach_mask", "is_two_connected"}}


def _public_names(path: Path) -> set[str]:
    """Names a module defines at top level (functions, classes, assignments) without a leading underscore."""
    names: set[str] = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def test_iso_offers_only_the_canonical_search():
    # the paper looks each block up in a type set; the catalog's lookup is the only isomorphism step
    import mvdcolor
    from mvdcolor.cli import build_parser

    assert _public_names(SRC / "iso.py") == {"canonical_labelling", "Labelling", "MAX_SEARCH_NODES"}
    exported_from_iso = {name for name in mvdcolor.__all__ if getattr(mvdcolor, name).__module__ == "mvdcolor.iso"}
    assert exported_from_iso == set()
    assert not set(mvdcolor.__all__) & {"find_isomorphism", "canonical_form", "transfer_coloring"}
    (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert "iso" not in commands and "solve" in commands


def _is_super_call(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "super"


def _self_calls(tree: ast.AST) -> set[str]:
    """Functions that call themselves by name, as ``f(...)`` or ``obj.f(...)``;
    ``super().f(...)`` reaches a base class's method, not f itself."""
    found: set[str] = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(fn):
                if isinstance(call, ast.Call):
                    callee = call.func
                    if isinstance(callee, ast.Attribute) and _is_super_call(callee.value):
                        continue
                    name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                    if name == fn.name:
                        found.add(fn.name)
    return found


def test_self_calls_are_found():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1)\nclass P:\n    def g(self):\n        self.g()\n    def h(self):\n        self.g()\n"
        "class Q(P):\n    def h(self):\n        super().h()\n"
    )
    assert _self_calls(tree) == {"f", "g"}


def test_no_function_in_src_recurses():
    # a recursive search would raise RecursionError on long paths or large blocks
    recursive = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if (calls := _self_calls(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert recursive == {}
