"""The benchmark's workloads: fixed settings plus inputs drawn from a seed.

Every workload runs the same pipeline at a different shape: build a kernel
bank from feature views, build and save a similarity index over it (set-up),
then per iteration run one three-way comparison, load the index back and
answer closed-loop top-k queries from one caller.  The shapes are chosen so
that a different layer dominates each workload; see README.md.

The seed draws the XOR views (their cluster noise) and the query items.  The
split and GP seed and the noise views are part of the workload, so every seed
asks for the same search and the figures of different seeds are comparable
(the GP reads the noise kernels; README.md gives what seed-drawn noise views
did to the search).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kernelforge.synthetic import xor_views

N_CLASSES = 3
PROTOCOL_SEED = 7
INDEX_EXPR = "(+ (* K1 K2) K1)"
TOP_K = 10
QUERY_BATCH = 1000  # queries per batch; `loads` index loads precede each batch


@dataclass(frozen=True)
class Workload:
    name: str
    per_class: int  # items per class in the bank
    noise_views: int  # pure-noise views appended to the two XOR views
    per_class_train: int  # training pool per class, validation included
    per_class_val: int
    repeats: int
    population: int
    generations: int
    stagnation: int
    queries: int  # closed-loop top-k queries per iteration, a multiple of QUERY_BATCH
    setups: int  # set-ups before the warm-up (the traced ones with --trace 1)
    setups_between: int  # set-ups after each measured iteration; setup_s is their median
    loads: int  # load_index calls before each batch of queries
    margin_check: bool  # evolved must beat both baselines by >= 10 points
    reference_s: float  # a yardstick sample's time on a quiet host; times are scaled to it

    @property
    def m(self) -> int:
        return N_CLASSES * self.per_class


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's synthetic comparison (scripts/run_xor_comparison.py):
        # 840 tiny SMO problems, so train_binary and per-call overhead rule.
        Workload("xor-small", per_class=60, noise_views=0, per_class_train=15, per_class_val=5,
                 repeats=3, population=40, generations=12, stagnation=4, queries=5000, setups=10,
                 setups_between=10, loads=4, margin_check=True, reference_s=0.001),
        # Six kernels at m = 990 with small SMO problems: expression evaluation
        # and the Gram algebra on m x m matrices rule.
        Workload("wide-bank", per_class=330, noise_views=4, per_class_train=15, per_class_val=5,
                 repeats=1, population=20, generations=2, stagnation=5, queries=2000, setups=2,
                 setups_between=2, loads=3, margin_check=False, reference_s=0.0044),
    )
}


def make_features(w: Workload, seed: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The two views of ``synthetic.xor_views`` plus standard-normal noise views.

    Only the entrywise product of the two view kernels separates the classes;
    the noise views carry no class signal and do not depend on the seed.
    """
    views, labels = xor_views(w.per_class, n_classes=N_CLASSES, seed=seed)
    rng = np.random.default_rng([PROTOCOL_SEED, 0])
    views += [rng.standard_normal((w.m, 2)) for _ in range(w.noise_views)]
    return views, labels


def query_items(w: Workload, seed: int) -> np.ndarray:
    """The items asked about in one iteration, in the order they are asked."""
    return np.random.default_rng([seed, 1]).integers(0, w.m, size=w.queries)
