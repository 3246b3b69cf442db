#!/usr/bin/env python3
"""Three-way comparison on the multiplicative-XOR benchmark, in memory.

Only the entrywise product of the two view kernels separates the classes, so
the evolved column should beat both baselines by a wide margin:

    python3 scripts/run_xor_comparison.py --repeats 10 --seed 7 --out runs/xor
"""

import argparse
from pathlib import Path

from kernelforge.gp import GpParams
from kernelforge.harness import ProtocolConfig, run_comparison, summarize, write_comparison_outputs
from kernelforge.svm import SvmParams
from kernelforge.synthetic import xor_bank


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--per-class", type=int, default=60)
    parser.add_argument("--per-class-train", type=int, default=15, help="training pool per class (includes validation)")
    parser.add_argument("--per-class-val", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", help="also write report.json / CSV emissions here")
    args = parser.parse_args()
    if args.per_class <= args.per_class_train:
        parser.error("--per-class must exceed --per-class-train (the remainder is the test set)")

    bank, labels = xor_bank(n_per_class=args.per_class, seed=args.seed)
    protocol = ProtocolConfig(
        per_class_train=args.per_class_train,
        per_class_val=args.per_class_val,
        repeats=args.repeats,
        seed=args.seed,
    )
    gp_params = GpParams(population_size=40, max_generations=12, stagnation_limit=4)
    report, results = run_comparison(bank, labels, protocol, gp_params, SvmParams())

    if args.out:
        print(write_comparison_outputs(report, results, Path(args.out)))
        print(f"outputs in {args.out}")
    else:
        print(summarize(report))
    print("per-repeat best expressions:", ", ".join(report.best_exprs))


if __name__ == "__main__":
    main()
