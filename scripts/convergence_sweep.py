#!/usr/bin/env python3
"""Convergence sweep: default-setting comparisons on wide-bank-shaped banks.

Each case builds the bank of ``synthetic.xor_views`` (3 classes, the case's
seed) plus four standard-normal noise views drawn from ``default_rng(7)``, and
runs ``run_comparison`` with ``ProtocolConfig(15, 5, 3, 1)``,
``GpParams(population_size=20, max_generations=2)`` and ``SvmParams()``: the
path ``compare`` takes at its defaults.  Per case it prints ok or the class of
the error that aborted the run, the fitness evaluations that failed (scored 0
with a warning) and the wall time, then how many cases aborted:

    python3 scripts/convergence_sweep.py                    # the 12 cases, m in {180, 990, 3000}, seeds 1-4
    python3 scripts/convergence_sweep.py --m 180 --seeds 1  # one case
"""

import argparse
import time
import warnings

import numpy as np

from kernelforge.errors import KernelForgeError
from kernelforge.gp import GpParams
from kernelforge.gram import build_bank
from kernelforge.harness import ProtocolConfig, run_comparison
from kernelforge.svm import SvmParams
from kernelforge.synthetic import xor_views

N_CLASSES = 3
NOISE_VIEWS = 4


def run_case(m: int, seed: int) -> tuple[str, int, float]:
    """(ok or the error class, fitness failures, wall seconds) of one case."""
    views, labels = xor_views(m // N_CLASSES, n_classes=N_CLASSES, seed=seed)
    rng = np.random.default_rng(7)
    views += [rng.standard_normal((m, 2)) for _ in range(NOISE_VIEWS)]
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the default filter drops a repeated warning
        try:
            bank, _ = build_bank(views)
            run_comparison(bank, labels, ProtocolConfig(15, 5, 3, 1),
                           GpParams(population_size=20, max_generations=2), SvmParams())
            outcome = "ok"
        except KernelForgeError as exc:
            outcome = type(exc).__name__
    failures = sum(str(w.message).startswith("fitness of ") for w in caught)
    return outcome, failures, time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--m", type=int, nargs="+", default=[180, 990, 3000], help="items per bank (multiples of 3)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4], help="xor_views seeds")
    args = parser.parse_args()
    if any(m % N_CLASSES for m in args.m):
        parser.error(f"each --m must be a multiple of {N_CLASSES}")

    print("m,seed,outcome,fitness_failures,wall_s")
    aborted = 0
    for m in args.m:
        for seed in args.seeds:
            outcome, failures, wall = run_case(m, seed)
            aborted += outcome != "ok"
            print(f"{m},{seed},{outcome},{failures},{wall:.2f}", flush=True)
    print(f"aborted {aborted} of {len(args.m) * len(args.seeds)}")


if __name__ == "__main__":
    main()
