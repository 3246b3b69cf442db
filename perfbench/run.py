#!/usr/bin/env python3
"""kernelforge benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload xor-small --seed 1 --seconds 15 --trace 0

Builds the workload's inputs from --seed, sets up, warms up on a tiny
instance, then repeats the workload's iteration (and more set-ups) for
--seconds, timing each against a reference computation run in between, and
checks its outputs outside the timed region.  It prints a
readable report and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics from a traced run with --trace 1.
Workloads, metrics and their predicted links are described in README.md.

BLAS is pinned to one thread and the package is imported from ./src, so the
run measures the source tree it sits in.  Scratch files go to .perfbench_out/.
"""

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "kernelforge" / "__init__.py").is_file():
        print(f"perfbench: no kernelforge package under {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # must be set before numpy loads
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import bench

    return bench.main(sys.argv[1:], root / ".perfbench_out")


if __name__ == "__main__":
    sys.exit(main())
