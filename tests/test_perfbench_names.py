"""The benchmark's tracer names kernelforge functions by layer and wraps them by
module attribute; a function it cannot find reads as "absent" with zero
metrics.  These tests load perfbench/tracer.py (without changing it) and check
that every name still resolves, so a refactor cannot silently blank a metric.
The tracer keeps one span stack and is not thread-safe, so a test also checks
that what ``build_bank``'s thread pool runs reaches no function it wraps."""

import ast
import importlib
import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import kernelforge.gp as gp_mod
import kernelforge.gram as gram_mod
import kernelforge.synthetic as synthetic_mod
from kernelforge import (
    DatasetSplit,
    GpParams,
    GramMatrix,
    KernelBank,
    Leaf,
    ProtocolConfig,
    SplitFitness,
    SvmParams,
    run_comparison,
)
from kernelforge.synthetic import xor_bank

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("table", ["TRACED", "PROBED"])
def test_every_named_function_exists(tracer, table):
    missing = [
        f"{layer}.{name}"
        for layer, names in getattr(tracer, table).items()
        for name in names
        if not callable(getattr(importlib.import_module(f"{tracer.PACKAGE}.{layer}"), name, None))
    ]
    assert missing == []


def test_probes_see_one_fitness_call_and_no_training_under_it(tracer):
    """A fitness evaluation trains its class pairs through svm's pair core, not
    ``train_multiclass``, so the probes record it as one span."""
    x = np.array([0.0, 0.1, 0.2, 6.0, 6.1, 6.2])
    bank = KernelBank((GramMatrix(np.exp(-((x[:, None] - x[None, :]) ** 2))),))
    split = DatasetSplit((0, 1, 3, 4), (2, 5), (), seed=1)
    probe = tracer.Tracer(tracer.PROBED, timed=False)
    probe.install()
    try:
        assert gp_mod.fitness(Leaf(0), SplitFitness(bank, np.repeat([0, 1], 3), split), SvmParams()) == 1.0
    finally:
        probe.uninstall()
    assert probe.absent == []
    assert [s.name for s in probe.spans] == ["gp.fitness"]


def test_every_evaluation_is_a_fitness_span(tracer):
    """perfbench counts attempted operations as gp.fitness spans plus the
    trainings outside them: the three final models of each repeat."""
    bank, labels = xor_bank(n_per_class=10, seed=6)
    protocol = ProtocolConfig(8, 3, repeats=2, seed=7, grid_search_c=True)
    probe = tracer.Tracer(tracer.PROBED, timed=False)
    probe.install()
    try:
        run_comparison(bank, labels, protocol, GpParams(population_size=8, max_generations=2), SvmParams())
    finally:
        probe.uninstall()
    trainings = [s for s in probe.spans if s.name == "svm.train_multiclass"]
    assert len(trainings) == 3 * protocol.repeats
    # fitness trains through svm's pair core, so no training span sits under a fitness span
    assert not any(probe.under(s, "gp.fitness") for s in trainings)
    assert any(s.name == "gp.fitness" for s in probe.spans)


def is_ours(obj) -> bool:
    name = obj.__name__ if inspect.ismodule(obj) else getattr(obj, "__module__", None) or ""
    return name == "kernelforge" or name.startswith("kernelforge.")


def reached_functions(func) -> set[str]:
    """``module.qualname`` of every kernelforge function that ``func`` reaches by
    name, itself included: through the globals of the module each one is defined
    in, and through attributes of the kernelforge classes and modules named there.
    A local that shares a global's name counts too, so the walk may only over-reach."""
    seen, todo = set(), [func]
    while todo:
        f = inspect.unwrap(todo.pop())
        key = f"{f.__module__}.{f.__qualname__}"
        if key in seen:
            continue
        seen.add(key)
        module = sys.modules[f.__module__]
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(f)))):
            if isinstance(node, ast.Name):
                target = getattr(module, node.id, None)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                owner = getattr(module, node.value.id, None)
                target = getattr(owner, node.attr, None) if owner is not None and is_ours(owner) else None
            else:
                continue
            target = getattr(target, "__func__", target)  # a classmethod, bound to its class
            if inspect.isfunction(target) and is_ours(target):
                todo.append(target)
    return seen


def pooled_functions() -> list:
    """The gram functions named in build_bank's calls of a pool's ``map`` or ``submit``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(gram_mod.build_bank)))
    return [
        getattr(gram_mod, name.id)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr in ("map", "submit")
        for name in ast.walk(call)
        if isinstance(name, ast.Name) and inspect.isfunction(getattr(gram_mod, name.id, None))
    ]


def test_the_pooled_view_function_reaches_no_traced_function(tracer):
    traced = {f"{tracer.PACKAGE}.{layer}.{name}" for layer, names in tracer.TRACED.items() for name in names}
    (pooled,) = pooled_functions()
    reached = reached_functions(pooled)
    assert {
        "kernelforge.gram._pairwise_sq_dists",
        "kernelforge.gram._median_gamma",
        "kernelforge.gram._gaussian_from_sq",
        "kernelforge.gram.GramMatrix._checked",
    } <= reached
    assert reached & traced == set()
    # the walk finds a traced function reached through another module's import
    assert "kernelforge.gram.build_bank" in reached_functions(synthetic_mod.xor_bank) & traced
