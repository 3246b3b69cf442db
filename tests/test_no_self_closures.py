"""No function in the package defines a nested function that refers to its own name.

Such a function holds itself through its closure cell, so every call of the
enclosing function leaves a reference cycle, and with it everything the
closure captured (``expr.evaluate``'s fold captured the whole kernel bank)
stays alive until Python's cyclic collector happens to run.  A recursion is a
module-level function that takes what it reads as arguments."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kernelforge"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_referencing_closures(source: str) -> list[str]:
    """Dotted name of each function defined in another function's body whose own body names it."""
    found: list[str] = []
    _visit(ast.parse(source), (), False, found)
    return found


def _visit(node: ast.AST, scope: tuple[str, ...], in_function: bool, found: list[str]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCTIONS):
            name = (*scope, child.name)
            if in_function and any(
                isinstance(n, ast.Name) and n.id == child.name for n in ast.walk(child) if n is not child
            ):
                found.append(".".join(name))
            _visit(child, name, True, found)
        elif isinstance(child, ast.ClassDef):  # a method's name is not in its own scope
            _visit(child, (*scope, child.name), False, found)
        else:
            _visit(child, scope, in_function, found)


def test_no_package_function_holds_itself_in_a_closure():
    found = [
        f"{path.stem}.{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in self_referencing_closures(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_the_finder_flags_a_nested_recursion_and_passes_a_module_level_one():
    source = (
        "def walk(node):\n    return [node, *(walk(c) for c in node.children)]\n"
        "class T:\n    def size(self):\n        return T.size(self)\n"
        "def outer(bank):\n"
        "    def fold(node):\n        return bank[node] if node < 0 else fold(node - 1)\n"
        "    def plain(node):\n        return bank[node]\n"
        "    class Local:\n        def again(self):\n            def inner(n):\n                return inner(n)\n"
        "            return again\n"
        "    return fold(3) + plain(0)\n"
    )
    assert self_referencing_closures(source) == ["outer.fold", "outer.Local.again.inner"]
