"""A dropped kernel bank is freed at once.

The package's paths leave no reference cycles, so what a caller drops is freed
by reference counting alone, not whenever Python's cyclic collector happens to
run.  A nested function that calls itself was the cause: its closure cell holds
it, and ``expr.evaluate``'s fold captured the whole bank.  Each check runs with
the collector off and ``gc.DEBUG_SAVEALL``, so ``gc.collect()`` counts what only
the collector could have freed.
"""

import gc
import weakref
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from kernelforge import (
    DataError,
    GpParams,
    ProtocolConfig,
    SvmParams,
    build_bank,
    build_index,
    crossover,
    load_index,
    mutate,
    parse_expr,
    query,
    run_comparison,
    save_index,
)
from kernelforge.gram import _POOL_MIN_ITEMS
from kernelforge.synthetic import xor_bank, xor_views

INDEX_EXPR = "(+ (* K1 K2) K1)"


@contextmanager
def collector_off():
    """The cyclic collector off, and what it finds kept in ``gc.garbage``, inside the block."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()


def cyclic_garbage(job) -> Counter:
    """Type names of the objects job() leaves that only the cyclic collector can free."""
    with collector_off():
        job()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)


def index_round_trip(bank, path):
    index = build_index(parse_expr(INDEX_EXPR), bank, [f"item{i}" for i in range(bank.size)])
    save_index(path, index)
    return query(load_index(path), 0, 5)


def variation():
    rng, params = np.random.default_rng(4), GpParams(max_depth=5)
    a, b = parse_expr("(+ (* K1 K2) K3)"), parse_expr("(* (+ K2 K2) (* K1 K3))")
    for _ in range(20):
        a, b = crossover(a, b, rng, params.max_depth), crossover(b, a, rng, params.max_depth)
        a = mutate(a, rng, params, 3)
    return a, b


def pooled_views(*, failing: bool):
    """Three views large enough for build_bank's thread pool; with ``failing``,
    the first has no usable bandwidth and the last overflows."""
    rng = np.random.default_rng(5)
    views = [rng.standard_normal((_POOL_MIN_ITEMS, d)) for d in (2, 3, 4)]
    if failing:
        views[0][:] = 1.0
        views[2][0] = 1e200
    return views


def failing_build(views):
    try:
        build_bank(views)
    except DataError:
        return
    raise AssertionError("build_bank did not raise")


def small_comparison(bank, labels):
    protocol = ProtocolConfig(per_class_train=8, per_class_val=3, repeats=1, seed=21, grid_search_c=True)
    return run_comparison(bank, labels, protocol, GpParams(population_size=8, max_generations=2), SvmParams())


@pytest.fixture(scope="module")
def bank_and_labels():
    return xor_bank(n_per_class=12, seed=2)


def test_a_dropped_bank_is_freed_at_once():
    views, _ = xor_views(n_per_class=12, seed=2)
    with collector_off():
        bank, _ = build_bank(views)
        index = build_index(parse_expr(INDEX_EXPR), bank, range(bank.size))
        kernel = weakref.ref(bank.kernels[0].values)
        del bank, index
        assert kernel() is None


@pytest.mark.parametrize(
    "job",
    [
        "build_bank",
        "build_bank_pooled",
        "build_bank_pooled_raising",
        "index_round_trip",
        "parse_expr",
        "variation",
        "run_comparison",
    ],
)
def test_a_path_leaves_no_cycles(job, bank_and_labels, tmp_path, two_workers):
    bank, labels = bank_and_labels
    views, _ = xor_views(n_per_class=12, seed=2)
    run = {
        "build_bank": lambda: build_bank(views),
        "build_bank_pooled": lambda: build_bank(pooled_views(failing=False)),
        "build_bank_pooled_raising": lambda: failing_build(pooled_views(failing=True)),
        "index_round_trip": lambda: index_round_trip(bank, tmp_path / "index.kgm"),
        "parse_expr": lambda: parse_expr("(+ (* K1 (+ K2 K3)) K1)"),
        "variation": variation,
        "run_comparison": lambda: small_comparison(bank, labels),
    }[job]
    assert cyclic_garbage(run) == Counter()
