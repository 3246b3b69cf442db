"""Every module of the package uses each name it imports; the package's
``__init__`` is exempt, since its imports are the public re-exports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kernelforge"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other line of the module reads.

    A quoted annotation counts as a read of the names in it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in (n for a in annotations if a is not None for n in ast.walk(a)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            read |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\nimport os, sys\nfrom math import pi as PI, tau\n"
        "'tau'\nx: 'PI' = sys.argv\n"
    )
    assert unused_imports(source) == ["os (line 2)", "tau (line 3)"]


def imported_modules(source: str) -> set[str]:
    """Every module an import statement of the source names, relative ones with their dots."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names |= {base} if node.module else {base + alias.name for alias in node.names}
    return names


def test_cli_reaches_the_search_only_through_harness():
    # `evolve` is harness.run_repeat at repeat 0, so the CLI needs nothing from gp itself
    modules = imported_modules((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert ".harness" in modules and not modules & {".gp", "kernelforge.gp"}


def test_an_import_from_gp_is_found():
    source = "from . import gp\nfrom .gp import evolve\nimport kernelforge.gp\nfrom .harness import run_repeat\n"
    assert imported_modules(source) == {".gp", "kernelforge.gp", ".harness"}
