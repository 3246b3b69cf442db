"""One benchmark run: set-up, warm-up, measured iterations, checks, report.

With ``--trace 0`` every iteration is timed from outside with tracing off
(only the two probes of ``tracer.PROBED`` are installed; they record failures
and take the reference samples of ``yardstick`` inside a comparison) and the
end-to-end metrics are reported.  With ``--trace 1`` untraced and traced
iterations alternate; the traced ones give the per-layer metrics and the
difference of the two gives ``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from kernelforge import expr, gram, harness, retrieval
from kernelforge.gp import GpParams
from kernelforge.harness import ProtocolConfig
from kernelforge.svm import SvmParams

import layers
from tracer import PROBED, TRACED, Tracer
from yardstick import Yardstick
from workloads import (
    INDEX_EXPR,
    PROTOCOL_SEED,
    QUERY_BATCH,
    TOP_K,
    WORKLOADS,
    Workload,
    make_features,
    query_items,
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "compare_s": "s",
    "candidates_per_s": "1/s",
    "evolved_acc": "ratio",
    "evolved_margin_pts": "pts",
    "index_load_s": "s",
    "query_p50_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}
MARGIN_FLOOR_PTS = 10.0
CHECKED_QUERIES = 50
WARM_SAMPLES = 5  # reference samples taken and kept before the first set-up
clock = time.perf_counter


@dataclass
class Prepared:
    """What set-up hands the iterations: the bank, its labels and the saved index."""

    bank: gram.KernelBank
    labels: np.ndarray
    index: retrieval.SimilarityIndex
    path: Path


@dataclass
class Iteration:
    episode: int  # the tracer's episode the iteration's spans belong to
    compare_start: float
    compare_end: float
    compare_s: float  # wall time less the reference samples taken inside it
    load_at: list[float]  # start of each load_index call
    load_s: list[float]
    query_at: list[float]  # start of each query
    query_s: list[float]
    report: harness.ComparisonReport
    report_json: str
    results: list
    answers: list | None  # top-k per query (None where it raised); kept for the first iteration only
    answers_digest: str
    errors: list[str]

    @property
    def wall_s(self) -> float:
        return self.compare_s + sum(self.load_s) + sum(self.query_s)


def set_up(w: Workload, features, labels, path: Path, between=lambda: None) -> Prepared:
    """Features to a bank, then the index built over it and saved; `between` runs between the steps."""
    bank, _ = gram.build_bank(features)
    between()
    index = retrieval.build_index(expr.parse_expr(INDEX_EXPR), bank, [f"item{i}" for i in range(w.m)])
    between()
    retrieval.save_index(path, index)
    return Prepared(bank, labels, index, path)


def settings(w: Workload) -> tuple[ProtocolConfig, GpParams, SvmParams]:
    protocol = ProtocolConfig(w.per_class_train, w.per_class_val, w.repeats, PROTOCOL_SEED)
    gp_params = GpParams(population_size=w.population, max_generations=w.generations, stagnation_limit=w.stagnation)
    return protocol, gp_params, SvmParams()


def iterate(w: Workload, prep: Prepared, items, tracer: Tracer, yard: Yardstick | None = None) -> Iteration:
    """One comparison, then per batch of queries `w.loads` index loads and the batch.

    With a yardstick, reference samples are taken between loads and queries
    (and inside the comparison by the tracer's hook), outside their timings.
    """
    between = yard.maybe_sample if yard else (lambda: None)
    protocol, gp_params, svm_params = settings(w)
    episode = tracer.begin("iteration")
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")  # the default filter drops repeats
            tracer.warnings = log
            compare_start = clock()
            report, results = harness.run_comparison(prep.bank, prep.labels, protocol, gp_params, svm_params)
            compare_end = clock()
            compare_s = compare_end - compare_start - (yard.spent(compare_start, compare_end) if yard else 0.0)
            load_at, load_s, answers, query_at, query_s, errors = [], [], [], [], [], []
            for b in range(0, len(items), QUERY_BATCH):
                for _ in range(w.loads):
                    index = None  # let the previous copy go before the next load
                    between()
                    t0 = clock()
                    index = retrieval.load_index(prep.path)
                    load_s.append(clock() - t0)
                    load_at.append(t0)
                for i in items[b : b + QUERY_BATCH]:
                    between()
                    t0 = clock()
                    try:
                        answers.append(retrieval.query(index, int(i), TOP_K))
                    except Exception as exc:  # a raising query is a failed operation, not a crash
                        answers.append(None)
                        errors.append(repr(exc))
                    query_s.append(clock() - t0)
                    query_at.append(t0)
    finally:
        tracer.uninstall()
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    return Iteration(episode, compare_start, compare_end, compare_s, load_at, load_s, query_at, query_s, report, harness.report_to_json(report), results, answers, digest, errors)


def warm_up(w: Workload, seed: int, path: Path) -> None:
    """Run every code path once on a tiny instance, untimed."""
    tiny = replace(w, per_class=12, per_class_train=6, per_class_val=2, repeats=1,
                   population=6, generations=1, queries=20, loads=1, noise_views=min(w.noise_views, 1))
    features, labels = make_features(tiny, seed)
    iterate(tiny, set_up(tiny, features, labels, path), query_items(tiny, seed), Tracer(PROBED, timed=False))


def brute_force_top_k(row: np.ndarray, i: int, k: int) -> list[tuple[int, float]]:
    """Descending score, ties to the smaller index, item i left out."""
    order = np.lexsort((np.arange(row.size), -row))
    order = order[order != i][:k]
    return [(int(j), float(row[j])) for j in order]


def margin_pts(report: harness.ComparisonReport) -> float:
    mean = report.mean
    return 100.0 * (mean["evolved"] - max(mean["addition"], mean["best_single"]))


def check(w: Workload, prep: Prepared, its: list[Iteration], items) -> list[str]:
    """Problems with the outputs; an empty list means the run is correct."""
    problems = []
    first = its[0]
    if any(it.report_json != first.report_json for it in its[1:]):
        problems.append("run_comparison gave different reports for the same input")
    if any(it.answers_digest != first.answers_digest for it in its[1:]):
        problems.append("queries gave different answers for the same input")
    if len(first.results) != w.repeats:
        problems.append(f"{len(first.results)} evolution results for {w.repeats} repeats")
    _, _, svm_params = settings(w)
    splits = harness.make_splits(prep.labels, w.per_class_train, w.per_class_val, w.repeats, PROTOCOL_SEED)
    for r, (split, result) in enumerate(zip(splits, first.results)):
        _, single = harness.best_single_kernel(prep.bank, prep.labels, split, svm_params)
        if not result.best_fitness >= single:
            problems.append(f"repeat {r}: evolved fitness {result.best_fitness} below best single {single}")
    if w.margin_check and not margin_pts(first.report) >= MARGIN_FLOOR_PTS:
        problems.append(f"evolved beats the better baseline by {margin_pts(first.report):.2f} < {MARGIN_FLOOR_PTS} points")
    loaded = retrieval.load_index(prep.path)
    if not (
        np.array_equal(loaded.matrix.values, prep.index.matrix.values)
        and expr.canonical_string(loaded.expr) == expr.canonical_string(prep.index.expr)
        and loaded.item_ids == prep.index.item_ids
    ):
        problems.append("the saved index does not load back unchanged")
    values = prep.index.matrix.values
    raised = sum(len(it.errors) for it in its)
    if raised:  # every query asks for a valid item with k < m
        problems.append(f"{raised} queries raised")
    for q in range(0, len(items), max(1, len(items) // CHECKED_QUERIES)):
        if first.answers[q] != brute_force_top_k(values[int(items[q])], int(items[q]), TOP_K):
            problems.append(f"query for item {int(items[q])} differs from the brute-force ranking")
            break
    return problems


def outcomes(tracer: Tracer, its: list[Iteration]) -> tuple[int, int]:
    """(attempted, failed): fitness evaluations, final models and queries.

    A fitness evaluation fails when it is zeroed with a warning, a final model
    (one trained outside any fitness evaluation) when it comes back
    unconverged, a query when it raises.
    """
    attempted = failed = 0
    for s in tracer.spans:
        if tracer.episodes[s.episode] != "iteration":
            continue
        if s.name == "gp.fitness" or (s.name == "svm.train_multiclass" and not tracer.under(s, "gp.fitness")):
            attempted += 1
            failed += s.failed
    for it in its:
        attempted += len(it.query_s)
        failed += len(it.errors)
    return attempted, failed


def candidates(w: Workload, report: harness.ComparisonReport) -> int:
    """Population slots scored over all repeats, cache hits included."""
    return w.population * sum(len(rows) for rows in report.generations)


def end_to_end(w: Workload, setups: list[tuple[float, float, float]], its: list[Iteration], yard: Yardstick) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, the samples it summarises).

    Every time is scaled to the reference speed by the yardstick samples
    taken around it (see yardstick.py), and a metric is the median of the
    scaled times of the run: set-ups, comparisons and loads each, queries
    pooled over the run.  queries_per_s is the median over batches of
    QUERY_BATCH queries of the batch's size over its summed scaled latency.
    """
    report = its[0].report

    def scaled(at, seconds, end=None) -> np.ndarray:
        at, seconds = np.asarray(at, dtype=float), np.asarray(seconds, dtype=float)
        return seconds * yard.scale(at, at + seconds if end is None else np.asarray(end))

    setup = scaled(*zip(*setups))
    compare = scaled([it.compare_start for it in its], [it.compare_s for it in its], [it.compare_end for it in its])
    loads = scaled([t for it in its for t in it.load_at], [s for it in its for s in it.load_s])
    queries = [scaled(it.query_at, it.query_s) for it in its]
    batches = [q[b : b + QUERY_BATCH] for q in queries for b in range(0, q.size, QUERY_BATCH)]
    pooled = np.concatenate(queries)
    compare_s = float(np.median(compare))
    per_compare = f"median of {compare.size} comparisons"
    return {
        "setup_s": (float(np.median(setup)), f"median of {setup.size} set-ups"),
        "compare_s": (compare_s, per_compare),
        "candidates_per_s": (candidates(w, report) / compare_s, per_compare),
        "evolved_acc": (report.mean["evolved"], f"mean of {w.repeats} repeats"),
        "evolved_margin_pts": (margin_pts(report), f"mean of {w.repeats} repeats"),
        "index_load_s": (float(np.median(loads)), f"median of {loads.size} loads"),
        "query_p50_ms": (1e3 * float(np.median(pooled)), f"median of {pooled.size} queries"),
        "queries_per_s": (float(np.median([b.size / b.sum() for b in batches])), f"median of {len(batches)} batches"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "whole run"),
    }


def unscaled(setups: list[tuple[float, float, float]], its: list[Iteration], yard: Yardstick) -> list[str]:
    """Report lines: the wall times behind the scaled metrics, and the reference samples."""
    sample_ms = 1e3 * (np.asarray(yard.ends) - np.asarray(yard.starts))
    return [
        f"wall medians: setup {np.median([s for _, s, _ in setups]):.6g} s, "
        f"compare {np.median([it.compare_s for it in its]):.6g} s, "
        f"load {np.median([s for it in its for s in it.load_s]):.6g} s, "
        f"query {1e3 * np.median([s for it in its for s in it.query_s]):.6g} ms",
        f"reference samples: {sample_ms.size}, median {np.median(sample_ms):.4g} ms, "
        f"quartiles {np.percentile(sample_ms, 25):.4g}-{np.percentile(sample_ms, 75):.4g} ms "
        f"(scaled to {1e3 * yard.reference_s:g} ms)",
    ]


def describe(w: Workload, args) -> list[str]:
    return [
        f"workload {w.name}: m={w.m} kernels={2 + w.noise_views} "
        f"pool={w.per_class_train}/{w.per_class_val} repeats={w.repeats} population={w.population} "
        f"generations={w.generations} stagnation={w.stagnation} index={INDEX_EXPR} queries={w.queries} top_k={TOP_K}",
        f"seed={args.seed} seconds={args.seconds} trace={args.trace} python={platform.python_version()} "
        f"numpy={np.__version__} nproc={os.cpu_count()} blas_threads={os.environ.get('OPENBLAS_NUM_THREADS')}",
    ]


def main(argv: list[str], out_dir: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{w.name}-s{args.seed}-p{os.getpid()}"
    path = stem.with_suffix(".kgm")
    warm_path = stem.with_suffix(".warm.kgm")
    try:
        return measure(w, args, path, warm_path, stem)
    finally:
        for p in (path, warm_path):
            for f in (p, p.with_name(p.name + ".ids")):
                f.unlink(missing_ok=True)


def measure(w: Workload, args, path: Path, warm_path: Path, stem: Path) -> int:
    features, labels = make_features(w, args.seed)
    items = query_items(w, args.seed)
    yard = Yardstick(w.m, w.reference_s)
    probe = Tracer(PROBED, timed=False, on_call=yard.maybe_sample)
    traced = Tracer(TRACED, timed=True)

    for _ in range(WARM_SAMPLES):
        yard.sample()
    setups = []  # (start, seconds less the reference samples inside, end)

    def timed_set_up() -> Prepared:
        yard.maybe_sample()
        t0 = clock()
        prep = set_up(w, features, labels, path, yard.maybe_sample)
        t1 = clock()
        setups.append((t0, t1 - t0 - yard.spent(t0, t1), t1))
        return prep

    for _ in range(w.setups):
        prep = None  # let the previous set-up go before the next one
        if args.trace:
            traced.begin("setup")
            traced.install()
        try:
            prep = timed_set_up()
        finally:
            traced.uninstall()
    warm_up(w, args.seed, warm_path)

    plain: list[Iteration] = []
    with_trace: list[Iteration] = []
    start = clock()
    while not plain or (args.trace and not with_trace) or clock() - start < args.seconds:
        traced_turn = args.trace and len(with_trace) < len(plain)
        it = iterate(w, prep, items, traced if traced_turn else probe, None if traced_turn else yard)
        if plain:
            it.answers = None  # compared by digest, so memory does not grow with the run
        (with_trace if traced_turn else plain).append(it)
        for _ in range(w.setups_between):
            timed_set_up()
    yard.sample()  # every timing then has a sample after it

    its = plain + with_trace
    problems = check(w, prep, its, items)
    attempted, failed = (a + b for a, b in zip(outcomes(probe, plain), outcomes(traced, with_trace)))

    lines = describe(w, args)
    if args.trace:
        values = layers.per_layer(traced, with_trace, plain, w.population, candidates(w, its[0].report))
        traced.dump(stem.with_suffix(".spans.jsonl"))
        if traced.absent:
            lines.append("absent (metrics read 0): " + ", ".join(traced.absent))
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit, _) in values.items()}
        lines += [f"{name:34s} {v:14.6g} {unit:6s} n={n}" for name, (v, unit, n) in values.items()]
    else:
        warm_setups = setups[w.setups :]  # those before the warm-up pay first-call costs
        values = end_to_end(w, warm_setups, plain, yard)
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, (v, _) in values.items()}
        lines += [f"{name:20s} {v:14.6g} {END_TO_END_UNITS[name]:6s} {n}" for name, (v, n) in values.items()]
        lines += unscaled(warm_setups, plain, yard)
    lines.append(f"failed_ratio {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    errors = [e for it in its for e in it.errors]
    if errors:
        lines.append(f"first query error: {errors[0]}")
    for problem in problems:
        lines.append(f"CHECK FAILED: {problem}")
    print("\n".join(lines))
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics if not problems else {}}
    print(json.dumps(result))
    sys.stdout.flush()
    return 1 if problems else 0
