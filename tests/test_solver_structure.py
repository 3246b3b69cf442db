"""The shape of the SMO path in ``svm``: the Platt loop calls no builtin per pair
step, and ``train_multiclass`` hands each class-pair block, cut once from its
checked fit block, to ``train_binary`` by its bare name.  A bare name is looked up
in svm's globals at each call, so a wrapper bound to ``svm.train_binary``
(perfbench's probe, the tests' training probes) sees every binary problem."""

import ast
from pathlib import Path

SVM = Path(__file__).resolve().parents[1] / "src" / "kernelforge" / "svm.py"
CLIPPING_BUILTINS = {"min", "max", "abs"}


def function(source: str, name: str) -> ast.FunctionDef:
    return next(n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef) and n.name == name)


def called_names(node: ast.AST) -> list[str]:
    """Each call's target under node, as written: ``f`` for a bare name, ``.f`` for an attribute."""
    out = []
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            out.append(func.id if isinstance(func, ast.Name) else f".{func.attr}" if isinstance(func, ast.Attribute) else "?")
    return out


def builtins_called_in_loops(source: str, name: str) -> set[str]:
    fn = function(source, name)
    return {c for n in ast.walk(fn) if isinstance(n, ast.While) for c in called_names(n)} & CLIPPING_BUILTINS


def pair_loop_cuts(source: str) -> set[str]:
    """The cutting calls (``restrict``, ``submatrix``) made inside train_multiclass's for loops."""
    fn = function(source, "train_multiclass")
    cuts = {"restrict", ".restrict", "submatrix", ".submatrix"}
    return {c for n in ast.walk(fn) if isinstance(n, ast.For) for c in called_names(n)} & cuts


def test_platt_loop_calls_no_clipping_builtin():
    assert builtins_called_in_loops(SVM.read_text(encoding="utf-8"), "train_binary") == set()


def test_train_multiclass_calls_train_binary_by_its_bare_name():
    calls = called_names(function(SVM.read_text(encoding="utf-8"), "train_multiclass"))
    assert "train_binary" in calls and ".train_binary" not in calls


def test_train_multiclass_cuts_no_block_in_its_pair_loop():
    assert pair_loop_cuts(SVM.read_text(encoding="utf-8")) == set()


def test_the_finders_flag_what_they_guard():
    source = (
        "def train_binary(k):\n    while k:\n        k = min(1, max(0, abs(k)))\n    return max(k, 0)\n"
        "def train_multiclass(fit, pos):\n    for p in pos:\n        svm.train_binary(fit.restrict(p), submatrix(fit, p, p))\n"
    )
    assert builtins_called_in_loops(source, "train_binary") == {"min", "max", "abs"}
    assert pair_loop_cuts(source) == {".restrict", "submatrix"}
    assert called_names(function(source, "train_multiclass")) == [".train_binary", ".restrict", "submatrix"]
