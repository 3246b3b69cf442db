"""The shape of the SMO path in ``svm`` and of the fitness path in ``gp``.

The Platt loop calls no builtin per pair step and no numpy function at all (its
convergence test runs on its lists of Python floats).  ``train_multiclass`` and
``gp.fitness`` train through one pair core, ``svm._fit_pairs``, which hands each
class-pair block to ``train_binary`` by its bare name.  A bare name is looked up
in svm's globals at each call, so a wrapper bound to ``svm.train_binary``
(perfbench's probe, the tests' training probes) sees every binary problem.
``train_multiclass`` checks its ids once, before its pair loop, which only
gathers each pair's block with ``np.ix_``.
``gp.fitness`` folds the chromosome over its split's plan and cuts nothing, and
``evolve`` scores each generation with one ``score_all`` call.  ``harness`` never
calls ``evaluate``: the final fits fold over the split's row blocks, so no
comparison builds a combined m x m kernel.  The functions ``gram.build_bank``'s
pool workers run hold no comprehension or generator expression, so no worker runs
Python code per row while it holds the GIL."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kernelforge"
SVM, HARNESS, GP, GRAM = SRC / "svm.py", SRC / "harness.py", SRC / "gp.py", SRC / "gram.py"
CLIPPING_BUILTINS = {"min", "max", "abs"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
FITNESS_CUTS = {"evaluate", "submatrix", "ix_", "train_multiclass", "fit_predict_rows"}
COMPREHENSIONS = LOOPS[2:]
POOLED = ("_gaussian_view", "_pairwise_sq_dists", "_median_gamma", "_gaussian_from_sq", "_exact_median")


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


def numpy_calls_in_loops(source: str, name: str) -> set[str]:
    """The calls under name's while loops whose target is an attribute of ``np``, as ``np.f``."""
    out = set()
    for loop in (n for n in ast.walk(function(source, name)) if isinstance(n, ast.While)):
        for call in (n for n in ast.walk(loop) if isinstance(n, ast.Call)):
            target, path = call.func, []
            while isinstance(target, ast.Attribute):
                path.insert(0, target.attr)
                target = target.value
            if isinstance(target, ast.Name) and target.id == "np" and path:
                out.add(".".join(["np", *path]))
    return out


def pair_loop_cuts(source: str) -> set[str]:
    """The calls that check or wrap a block (``submatrix``, ``_checked_ids``, ``GramMatrix``, ``restrict``) made
    inside train_multiclass's loops and comprehensions, as ``called_names`` writes them; ``np.ix_`` is not one."""
    fn = function(source, "train_multiclass")
    cuts = {f"{dot}{name}" for dot in ("", ".") for name in ("submatrix", "_checked_ids", "GramMatrix", "restrict")}
    return {c for n in ast.walk(fn) if isinstance(n, LOOPS) for c in called_names(n)} & cuts


def bare_targets(names: list[str]) -> set[str]:
    """The called names with any attribute dot dropped: ``np.ix_`` and ``ix_`` both read ``ix_``."""
    return {name.lstrip(".") for name in names}


def generation_loop_calls(source: str, name: str) -> tuple[list[str], list[str]]:
    """(the calls inside name's for loops, every call in name), as ``called_names`` writes them."""
    fn = function(source, name)
    loops = [n for n in ast.walk(fn) if isinstance(n, ast.For)]
    return [c for loop in loops for c in called_names(loop)], called_names(fn)


def comprehensions(source: str, name: str) -> set[str]:
    """The kinds of comprehension and generator expression in name's body."""
    return {type(n).__name__ for n in ast.walk(function(source, name)) if isinstance(n, COMPREHENSIONS)}


def test_platt_loop_calls_no_clipping_builtin():
    assert builtins_called_in_loops(SVM.read_text(encoding="utf-8"), "train_binary") == set()


def test_platt_loop_calls_no_numpy_function():
    assert numpy_calls_in_loops(SVM.read_text(encoding="utf-8"), "train_binary") == set()


def test_harness_never_calls_evaluate():
    calls = called_names(ast.parse(HARNESS.read_text(encoding="utf-8")))
    assert "evaluate" not in calls and ".evaluate" not in calls


def test_the_pair_core_calls_train_binary_by_its_bare_name():
    source = SVM.read_text(encoding="utf-8")
    calls = called_names(function(source, "_fit_pairs"))
    assert "train_binary" in calls and ".train_binary" not in calls
    assert "_fit_pairs" in called_names(function(source, "train_multiclass"))
    assert "_fit_pairs" in called_names(function(GP.read_text(encoding="utf-8"), "fitness"))


def test_fitness_folds_once_and_cuts_nothing():
    calls = called_names(function(GP.read_text(encoding="utf-8"), "fitness"))
    assert bare_targets(calls) & FITNESS_CUTS == set()
    assert calls.count("_folded") == 1


def test_evolve_scores_each_generation_with_one_score_all_call():
    in_loops, everywhere = generation_loop_calls(GP.read_text(encoding="utf-8"), "evolve")
    assert in_loops.count(".score_all") == 1 and everywhere.count(".score_all") == 1


def test_train_multiclass_checks_its_ids_once_outside_its_pair_loop():
    source = SVM.read_text(encoding="utf-8")
    assert called_names(function(source, "train_multiclass")).count("_checked_ids") == 1
    assert pair_loop_cuts(source) == set()


def test_the_finders_flag_what_they_guard():
    source = (
        "def train_binary(k):\n    while k:\n        k = min(1, max(0, abs(k)))\n    return max(k, 0)\n"
        "def train_multiclass(fit, pos):\n    for p in pos:\n        svm.train_binary(fit.restrict(p), submatrix(fit, p, p))\n"
        "    return [GramMatrix(fit[np.ix_(_checked_ids(p, 9), p)]) for p in pos]\n"
        "def solve(a):\n    np.array(a)\n    while a:\n        a = f(np.mean(a), np.random.default_rng(0), rng.permuted(a))\n"
    )
    assert builtins_called_in_loops(source, "train_binary") == {"min", "max", "abs"}
    assert numpy_calls_in_loops(source, "solve") == {"np.mean", "np.random.default_rng"}
    assert "evaluate" in called_names(ast.parse("k = evaluate(e, bank)"))
    assert pair_loop_cuts(source) == {".restrict", "submatrix", "GramMatrix", "_checked_ids"}
    assert pair_loop_cuts("def train_multiclass(f, ps):\n    ids = _checked_ids(ps, 9)\n    return {p: f[np.ix_(p, p)] for p in ids}\n") == set()
    assert pair_loop_cuts("def train_multiclass(f, ps):\n    return sum(g.submatrix(p) for p in ps)\n") == {".submatrix"}
    assert called_names(function(source, "train_multiclass")).count("_checked_ids") == 1
    fitness = "def fitness(e, s):\n    k = evaluate(e, s.bank)\n    svm.fit_predict_rows(k, s.y, a, k.values[np.ix_(b, a)])\n    return train_multiclass(k)\n"
    assert bare_targets(called_names(function(fitness, "fitness"))) & FITNESS_CUTS == {"evaluate", "fit_predict_rows", "ix_", "train_multiclass"}
    evolve = "def evolve(s, pop):\n    s.score_all(pop)\n    for g in range(3):\n        fits = [s.score_all([e]) for e in pop]\n"
    in_loops, everywhere = generation_loop_calls(evolve, "evolve")
    assert in_loops.count(".score_all") == 1 and everywhere.count(".score_all") == 2


def test_the_pool_workers_run_no_comprehension():
    source = GRAM.read_text(encoding="utf-8")
    assert {name: comprehensions(source, name) for name in POOLED} == {name: set() for name in POOLED}


def test_the_comprehension_finder_flags_a_planted_one():
    planted = (
        "def _median_gamma(sq, pair):\n    np.concatenate([sq[i, i + 1:] for i in range(3)], out=pair)\n"
        "    return 1 / sum(v for v in pair if v)\n"
        "def _gaussian_view(x):\n    return {i: v for i, v in enumerate(x)}, {v for v in x}\n"
    )
    assert comprehensions(planted, "_median_gamma") == {"ListComp", "GeneratorExp"}
    assert comprehensions(planted, "_gaussian_view") == {"DictComp", "SetComp"}
