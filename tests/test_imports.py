"""Every module of the package, and every test module, uses each name it
imports, so an import of a deleted name cannot linger; the package's
``__init__`` is exempt, since its imports are the public re-exports.  Every
public function of the package has a caller outside the tests, so a function
only the tests read lives with them, in ``tests/oracles.py``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kernelforge"
TESTS = Path(__file__).resolve().parent
# a package module by its name, a test module as tests/<name>
MODULES = {p.name: p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
MODULES |= {f"tests/{p.name}": p for p in sorted(TESTS.glob("*.py"))}


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
    assert unused_imports(MODULES[module].read_text(encoding="utf-8")) == []


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


# public functions kept without a caller outside the tests, each with the reason
UNCALLED = (
    ("synthetic.or_bank", "the OR control whose comparison the README reports"),
    ("harness.report_from_json", "the report reader that ROADMAP item 7 migrates"),
)


def uncalled_functions(package: dict[str, str], callers: list[str], traced: set[str]) -> list[str]:
    """The public module-level functions ("module.name") of package (module name -> source) that
    no other package code reads, by a name imported from their module or as ``module.name``, that
    no caller source calls by name, and that traced ("module.name") does not list.  A read inside
    a function's own body (recursion) does not count."""
    read = set()
    for module, source in package.items():
        tree = ast.parse(source)
        names, modules = {}, {}  # a bound name's "module.function", and a module's name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                    else:
                        modules[alias.asname or alias.name] = alias.name
        names |= {n.name: f"{module}.{n.name}" for n in tree.body if isinstance(n, ast.FunctionDef)}
        for stmt in tree.body:
            here = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    here.add(names.get(node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                    here.add(f"{modules[node.value.id]}.{node.attr}")
            read |= here - {f"{module}.{stmt.name}" if isinstance(stmt, ast.FunctionDef) else None}
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for source in callers
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    public = [
        f"{module}.{node.name}"
        for module, source in package.items()
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    return sorted(f for f in public if f not in read | traced and f.split(".")[1] not in called)


def tracer_names() -> set[str]:
    """Every "module.function" that perfbench/tracer.py's TRACED or PROBED table names."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    tables = [ast.literal_eval(n.value) for n in tree.body
              if isinstance(n, ast.Assign) and any(getattr(t, "id", "") in ("TRACED", "PROBED") for t in n.targets)]
    assert len(tables) == 2
    return {f"{layer}.{name}" for table in tables for layer, names in table.items() for name in names}


def test_every_public_function_has_a_caller_outside_the_tests():
    package = {p.stem: p.read_text(encoding="utf-8") for p in MODULES.values() if p.parent == PACKAGE}
    callers = [p.read_text(encoding="utf-8") for d in ("scripts", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    assert uncalled_functions(package, callers, tracer_names()) == sorted(name for name, _ in UNCALLED)


def test_an_uncalled_function_is_found():
    # planted reads only itself; caller is read by nothing; b's four are read, called or traced
    package = {
        "a": "from . import b\nfrom .b import used\ndef planted():\n    return planted()\n"
             "def caller():\n    return used() + b.other()\n",
        "b": "def used():\n    pass\ndef other():\n    pass\ndef scripted():\n    pass\ndef traced():\n    pass\n",
    }
    callers = ["from kernelforge import b\nb.scripted()\n"]
    assert uncalled_functions(package, callers, {"b.traced"}) == ["a.caller", "a.planted"]
