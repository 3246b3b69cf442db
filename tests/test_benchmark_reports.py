"""The benchmark's comparison reports, pinned byte for byte.

perfbench/workloads.py (loaded, never changed) rebuilds the xor-small and
wide-bank inputs at seed 1, and ``run_comparison`` runs at the settings
``perfbench/bench.py`` uses.  A change that moves any float of a report fails
here; a change meant to move one (a new solver) re-pins the hash on purpose.
Each report also pins the symmetry passes: one per evaluated kernel, none for
the bank restrictions and class-pair blocks cut from it.  The set-up the
benchmark times (``build_bank``, then ``build_index`` and ``save_index`` for
``INDEX_EXPR``) is pinned the same way: the bytes of every base kernel and of
the saved index file, and one symmetry pass per kernel made.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from kernelforge import (
    GpParams,
    ProtocolConfig,
    SvmParams,
    build_bank,
    build_index,
    parse_expr,
    report_to_json,
    run_comparison,
    save_index,
)

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

PINNED = {
    "xor-small": ("0f28212850a90e1414166c7b3a8440e97d039a417998d55d771ee7d1383348ea", 271),
    "wide-bank": ("8a1861124016f8f1993287e62f9b91317e3e926ae53072ab699f682490e1f22c", 49),
}

SETUP_PINNED = {
    "xor-small": (
        (
            "5a80ed8c3dcf68f9b70a19e14721ecbd0dae52f871001294bee86b128a48a63a",
            "2641b0cbfc6367721d2008861593debe98a6bd3ea98224e085326eec2034eeb3",
        ),
        "5fd9153dfb51c838ef5beeaa4e5a2af5268fc361dff222cb00fe9650fa4c4ff4",
    ),
    "wide-bank": (
        (
            "bb2e5e79d522c3795aea3f29eda8e7cc09aa0a8daca5d9c969ac4bd2d5427fb2",
            "3a986aaf031287bd7a265e5399f1713360495dda91fa627defbda7ff6424364e",
            "730da7e5a0dcc856b05fbf4000ddf192fd1896ea33536cfaeb2d830f52da6116",
            "9b90ab2fcedc56d2ad83ce7e84fac9ea43e9254f8bfbcf654e7ce81f27c9f8c3",
            "3688777cb1dc4b4ee16cb2cbdeb6591fac89c50ae950c05b0458f6f39ca3a487",
            "344bbd1eb460e540961f3cb840385acd51d0c6a841e5a58c37daddfafb8552b4",
        ),
        "a811a43ca484070db395bd4948e08897de8d7bb774408df87888faf8775f0a34",
    ),
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


@pytest.mark.parametrize("name", sorted(SETUP_PINNED))
def test_setup_bytes_are_pinned(workloads, name, symmetry_passes, tmp_path):
    w = workloads.WORKLOADS[name]
    features, _ = workloads.make_features(w, 1)
    bank, _ = build_bank(features)
    assert len(symmetry_passes) == len(bank)
    symmetry_passes.clear()
    index = build_index(parse_expr(workloads.INDEX_EXPR), bank, [f"item{i}" for i in range(w.m)])
    assert len(symmetry_passes) == 2  # the evaluated kernel and its normalized form
    save_index(tmp_path / "index.kgm", index)
    kernels, index_file = SETUP_PINNED[name]
    assert [hashlib.sha256(k.values.tobytes()).hexdigest() for k in bank.kernels] == list(kernels)
    assert hashlib.sha256((tmp_path / "index.kgm").read_bytes()).hexdigest() == index_file
    for k in (*bank.kernels, index.matrix):
        assert np.array_equal(k.values, k.values.T)
