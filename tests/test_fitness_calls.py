"""``gp.fitness`` is called in one place: by its bare name in ``SplitFitness.score_all``.

So every split is scored through its ``SplitFitness``, which cuts the split's
blocks once, and a bare name is looked up in gp's globals at each call, so a
wrapper bound to ``gp.fitness`` (perfbench's probe, the tests' ``fitness_calls``)
sees every evaluation."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kernelforge"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def fitness_references(source: str) -> list[str]:
    """``<scope>: <reference>`` for each name or attribute ``fitness`` in source, the
    reference followed by ``()`` where it is called; ``<module>`` at the top level."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found: list[str] = []
    _visit(tree, (), called, found)
    return found


def _visit(node: ast.AST, scope: tuple[str, ...], called: set[int], found: list[str]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, SCOPES):
            _visit(child, (*scope, child.name), called, found)
            continue
        if getattr(child, "id", None) == "fitness" or getattr(child, "attr", None) == "fitness":
            call = "()" if id(child) in called else ""
            found.append(f"{'.'.join(scope) or '<module>'}: {ast.unparse(child)}{call}")
        _visit(child, scope, called, found)


def test_fitness_is_called_only_by_split_fitness_by_its_bare_name():
    found = [
        f"{path.stem}.{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in fitness_references(path.read_text(encoding="utf-8"))
    ]
    assert found == ["gp.SplitFitness.score_all: fitness()"]


def test_the_finder_flags_every_reference():
    source = (
        "class S:\n    def __call__(self, e):\n        return fitness(e, self)\n"
        "def f(e, gp):\n    g = fitness\n    return gp.fitness(e) + g(e) + e.best_fitness\n"
        "x = fitness\n"
    )
    assert fitness_references(source) == ["S.__call__: fitness()", "f: fitness", "f: gp.fitness()", "<module>: fitness"]
