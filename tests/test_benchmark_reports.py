"""The benchmark's comparison reports, pinned byte for byte.

perfbench/workloads.py (loaded, never changed) rebuilds the xor-small and
wide-bank inputs at seed 1, and ``run_comparison`` runs at the settings
``perfbench/bench.py`` uses.  A change that moves any float of a report fails
here; a change meant to move one (a new solver) re-pins the hash on purpose.
Each report also pins the symmetry passes: one per evaluated kernel, none for
the bank restrictions and class-pair blocks cut from it.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from kernelforge import GpParams, ProtocolConfig, SvmParams, build_bank, report_to_json, run_comparison

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

PINNED = {
    "xor-small": ("0f28212850a90e1414166c7b3a8440e97d039a417998d55d771ee7d1383348ea", 271),
    "wide-bank": ("8a1861124016f8f1993287e62f9b91317e3e926ae53072ab699f682490e1f22c", 49),
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_bytes_are_pinned(workloads, name, symmetry_passes):
    w = workloads.WORKLOADS[name]
    features, labels = workloads.make_features(w, 1)
    bank, _ = build_bank(features)
    symmetry_passes.clear()
    # the settings of perfbench/bench.py's settings()
    protocol = ProtocolConfig(w.per_class_train, w.per_class_val, w.repeats, workloads.PROTOCOL_SEED)
    gp_params = GpParams(population_size=w.population, max_generations=w.generations, stagnation_limit=w.stagnation)
    report, _ = run_comparison(bank, labels, protocol, gp_params, SvmParams())
    digest, passes = PINNED[name]
    assert hashlib.sha256(report_to_json(report).encode()).hexdigest() == digest
    assert len(symmetry_passes) == passes
