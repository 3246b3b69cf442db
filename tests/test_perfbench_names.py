"""The benchmark's tracer names kernelforge functions by layer and wraps them by
module attribute; a function it cannot find reads as "absent" with zero
metrics.  These tests load perfbench/tracer.py (without changing it) and check
that every name still resolves, so a refactor cannot silently blank a metric."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import kernelforge.gp as gp_mod
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
    bank = KernelBank((GramMatrix(np.exp(-((x[:, None] - x[None, :]) ** 2))),), ("k0",))
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
