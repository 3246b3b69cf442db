"""The benchmark's comparison reports, pinned byte for byte.

perfbench/workloads.py (loaded, never changed) rebuilds the xor-small and
wide-bank inputs at seed 1, and ``run_comparison`` runs at the settings
``perfbench/bench.py`` uses.  A change that moves any float of a report fails
here; a change meant to move one (a new solver) re-pins the hash on purpose.
Each report also pins the symmetry passes: none, since a kernel is scanned only
where it enters the package, and every kernel a comparison evaluates or cuts
into class-pair blocks is derived from the bank.  The set-up the
benchmark times (``build_bank``, then ``build_index`` and ``save_index`` for
``INDEX_EXPR``) is pinned the same way: the bytes of every base kernel and of
the saved index file, and no symmetry pass, since the Gaussians, the evaluated
kernel and its normalized form are all derived.

The bits of ``x @ x.T`` at wide-bank's m = 990 depend on how many threads BLAS
splits it over, so the set-up runs in a child process with the BLAS thread
count fixed: 1, as the benchmark runs it, and 2, the count the first pins were
taken at.  Run as a script, this file is that child.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
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

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_PATH = ROOT / "perfbench" / "workloads.py"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PINNED = {
    "xor-small": ("0f28212850a90e1414166c7b3a8440e97d039a417998d55d771ee7d1383348ea", 0),
    "wide-bank": ("8a1861124016f8f1993287e62f9b91317e3e926ae53072ab699f682490e1f22c", 0),
}

# (base kernel hashes, index file hash) by BLAS thread count, then workload;
# at m = 180, 1 and 2 threads give the same bits
XOR_SMALL_SETUP = (
    (
        "5a80ed8c3dcf68f9b70a19e14721ecbd0dae52f871001294bee86b128a48a63a",
        "2641b0cbfc6367721d2008861593debe98a6bd3ea98224e085326eec2034eeb3",
    ),
    "5fd9153dfb51c838ef5beeaa4e5a2af5268fc361dff222cb00fe9650fa4c4ff4",
)
SETUP_PINNED = {
    1: {
        "xor-small": XOR_SMALL_SETUP,
        "wide-bank": (
            (
                "4511828cb7ed36cc0bf678f8db31727f73ec547885d22d9b33ab3e9d81c248de",
                "0fa14d31c124e1e84739d2fba3e3e29824e2d62fed68bb967e5f977eade79748",
                "8314cc385ae54606757ea34eea561a92605b189ef78b8ee977f7c598728a0050",
                "82300b931d0987709b914443433e96ae89d238f82559ce9165c97771da3fef13",
                "b2c3983029e00a8139bb717b66f4f4fba5b763d5ee011f505e59d67c504f1420",
                "d7964098fb5d283d92df9a0b6b2880956b937cd42ebebd38f7cf9528aa3a2ae3",
            ),
            "b573e2f74a10cf07ba4a3720fcacb336105c50c294b9653cf126fc911c6120ad",
        ),
    },
    2: {
        "xor-small": XOR_SMALL_SETUP,
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
    },
}


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    try:
        yield load_workloads()
    finally:
        del sys.modules["perfbench_workloads"]


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


def setup_digests(name: str, directory: Path) -> dict:
    """The benchmark's set-up of workload ``name`` at seed 1, with the index
    saved in ``directory``: the sha256 of each base kernel and of the index
    file, the symmetry passes of each step, and whether every kernel is
    exactly symmetric."""
    import kernelforge.gram as gram_mod

    passes, real = [], gram_mod._max_asymmetry
    gram_mod._max_asymmetry = lambda v: passes.append(v.shape) or real(v)
    workloads = load_workloads()
    w = workloads.WORKLOADS[name]
    features, _ = workloads.make_features(w, 1)
    bank, _ = build_bank(features)
    bank_passes = len(passes)
    index = build_index(parse_expr(workloads.INDEX_EXPR), bank, [f"item{i}" for i in range(w.m)])
    save_index(directory / "index.kgm", index)
    return {
        "kernels": [hashlib.sha256(k.values.tobytes()).hexdigest() for k in bank.kernels],
        "index_file": hashlib.sha256((directory / "index.kgm").read_bytes()).hexdigest(),
        "bank_passes": bank_passes,
        "index_passes": len(passes) - bank_passes,
        "symmetric": all(np.array_equal(k.values, k.values.T) for k in (*bank.kernels, index.matrix)),
    }


@pytest.mark.parametrize(
    "name,blas_threads",
    [pytest.param(name, 1, id=name) for name in sorted(SETUP_PINNED[1])]
    + [pytest.param(name, 2, id=f"{name}-2-blas-threads") for name in sorted(SETUP_PINNED[2])],
)
def test_setup_bytes_are_pinned(name, blas_threads, tmp_path):
    env = {**os.environ, **{var: str(blas_threads) for var in BLAS_THREAD_VARS}}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, __file__, name, str(tmp_path)], env=env, capture_output=True, text=True, timeout=600
    )
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    kernels, index_file = SETUP_PINNED[blas_threads][name]
    assert got["bank_passes"] == 0  # the Gaussians are symmetric by construction
    assert got["index_passes"] == 0  # so are the evaluated kernel and its normalized form
    assert got["kernels"] == list(kernels)
    assert got["index_file"] == index_file
    assert got["symmetric"]


if __name__ == "__main__":
    print(json.dumps(setup_digests(sys.argv[1], Path(sys.argv[2]))))
