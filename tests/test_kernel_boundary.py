"""The kernel rule (square, finite, symmetric to ``SYMMETRY_TOL``) runs only where
a kernel enters the package: ``GramMatrix._adopt`` may be referenced only by
``GramMatrix.__post_init__`` and ``kernel_io.read_kernel``.  A kernel derived
inside the package is wrapped with ``GramMatrix._checked`` instead."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kernelforge"
BOUNDARY = {"gram.GramMatrix.__post_init__", "kernel_io.read_kernel"}


def adopt_references(source: str) -> list[str]:
    """Dotted name of the function or class enclosing each reference to ``_adopt``
    (``<module>`` at the top level); a definition of ``_adopt`` is not a reference."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if getattr(child, "attr", None) == "_adopt" or getattr(child, "id", None) == "_adopt":
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_adopt_is_referenced_only_at_the_boundary():
    found = {
        f"{path.stem}.{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in adopt_references(path.read_text(encoding="utf-8"))
    }
    assert found == BOUNDARY


def test_a_reference_is_found_wherever_it_is():
    source = (
        "class G:\n    def _adopt(cls): pass\n    def f(self):\n        return G._adopt(1)\n"
        "def g():\n    adopt = G._adopt\n    return [adopt, _adopt]\nx = G._adopt\n"
    )
    assert adopt_references(source) == ["G.f", "g", "g", "<module>"]
