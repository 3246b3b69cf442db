"""Per-layer metrics from the spans of the traced run.

Times and counts are per episode: a set-up for the set-up functions
(``build_bank``, ``normalize``, ``build_index``, ``write_kernel``), one
iteration (comparison, loads, query batch) for the rest, and the median over
the traced episodes is reported.  Latency percentiles pool every call of the
traced iterations.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracer import Tracer


def per_layer(tracer: Tracer, traced: list, untraced: list, population: int, candidates: int) -> dict:
    """Metric name -> (value, unit, sample count)."""
    own = tracer.self_seconds()
    # episode -> function name -> [calls, seconds, self seconds, work, failed]
    sums: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0, 0, 0]))
    evolve_fitness: dict[int, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    for s, self_s in zip(tracer.spans, own):
        row = sums[s.episode][s.name]
        row[0] += 1
        row[1] += s.seconds
        row[2] += self_s
        row[3] += s.work
        row[4] += s.failed
        if tracer.episodes[s.episode] == "iteration":
            durations[s.name].append(s.seconds)
            if s.name == "gp.fitness" and tracer.under(s, "gp.evolve"):
                evolve_fitness[s.episode] += 1

    iters = [e for e, kind in enumerate(tracer.episodes) if kind == "iteration"]
    setups = [e for e, kind in enumerate(tracer.episodes) if kind == "setup"]

    def per(episodes, names, field):
        return statistics.median(sum(sums[e][n][field] for n in names) for e in episodes)

    def calls(*names):
        return per(iters, names, 0)

    def secs(*names):
        return per(iters, names, 1)

    def own_s(*names):
        return per(iters, names, 2)

    def setup_s(*names):
        return per(setups, names, 1)

    def pct(name, q):
        d = durations.get(name)
        return (1e3 * float(np.percentile(d, q)) if d else 0.0), len(d or ())

    def share(name):
        whole = [sums[e]["harness.run_comparison"][1] for e in iters]
        return statistics.median(sums[e][name][1] / t if t else 0.0 for e, t in zip(iters, whole))

    ops = ("gram.add", "gram.multiply")
    op_s = secs(*ops)
    op_bytes = per(iters, ops, 3)
    tb_p50, tb_n = pct("svm.train_binary", 50)
    tb_p99, _ = pct("svm.train_binary", 99)
    fit_p50, fit_n = pct("gp.fitness", 50)
    fit_p90, _ = pct("gp.fitness", 90)
    q_p50, q_n = pct("retrieval.query", 50)
    q_p99, _ = pct("retrieval.query", 99)
    n, ns = len(iters), len(setups)
    overhead = min(it.wall_s for it in traced) - min(it.wall_s for it in untraced)
    return {
        "svm.train_binary.calls": (calls("svm.train_binary"), "count", n),
        "svm.train_binary.s": (secs("svm.train_binary"), "s", n),
        "svm.train_binary.p_sum": (per(iters, ["svm.train_binary"], 3), "count", n),
        "svm.train_binary.ms_p50": (tb_p50, "ms", tb_n),
        "svm.train_binary.ms_p99": (tb_p99, "ms", tb_n),
        "svm.train_binary.share": (share("svm.train_binary"), "ratio", n),
        "svm.unconverged": (per(iters, ["svm.train_binary"], 4), "count", n),
        "svm.train_multiclass.self_s": (own_s("svm.train_multiclass"), "s", n),
        "svm.predict.calls": (calls("svm.predict"), "count", n),
        "svm.predict.s": (secs("svm.predict"), "s", n),
        "expr.evaluate.calls": (calls("expr.evaluate"), "count", n),
        "expr.evaluate.s": (secs("expr.evaluate"), "s", n),
        "expr.evaluate.share": (share("expr.evaluate"), "ratio", n),
        "gram.ops": (calls(*ops), "count", n),
        "gram.op_s": (op_s, "s", n),
        "gram.bytes_computed": (op_bytes, "bytes", n),
        "gram.gbps_computed": (op_bytes / op_s / 1e9 if op_s else 0.0, "GB/s", n),
        "gram.build_bank.s": (setup_s("gram.build_bank"), "s", ns),
        "gram.normalize.s": (setup_s("gram.normalize"), "s", ns),
        "gp.fitness.calls": (calls("gp.fitness"), "count", n),
        "gp.fitness.s": (secs("gp.fitness"), "s", n),
        "gp.fitness.ms_p50": (fit_p50, "ms", fit_n),
        "gp.fitness.ms_p90": (fit_p90, "ms", fit_n),
        "gp.fitness.failed": (per(iters, ["gp.fitness"], 4), "count", n),
        "gp.candidates": (candidates, "count", n),
        "gp.cache_hit_ratio": (1.0 - statistics.median(evolve_fitness[e] for e in iters) / candidates, "ratio", n),
        "gp.generations": (candidates // population - len(traced[0].results), "count", n),
        "gp.variation.s": (secs("gp.crossover", "gp.mutate", "gp.tournament_select"), "s", n),
        "harness.best_single.s": (secs("harness.best_single_kernel"), "s", n),
        "harness.evolve.s": (secs("gp.evolve"), "s", n),
        "harness.self_s": (own_s("harness.run_comparison"), "s", n),
        "retrieval.build_index.s": (setup_s("retrieval.build_index"), "s", ns),
        "retrieval.query.s": (secs("retrieval.query"), "s", n),
        "retrieval.query.ms_p50": (q_p50, "ms", q_n),
        "retrieval.query.ms_p99": (q_p99, "ms", q_n),
        "retrieval.load_index.self_s": (own_s("retrieval.load_index"), "s", n),
        "kernel_io.read_kernel.s": (secs("kernel_io.read_kernel"), "s", n),
        "kernel_io.write_kernel.s": (setup_s("kernel_io.write_kernel"), "s", ns),
        "kernel_io.bytes": (per(setups, ["kernel_io.write_kernel"], 3) + per(iters, ["kernel_io.read_kernel"], 3), "bytes", n),
        "trace.overhead_s": (overhead, "s", n + len(untraced)),
    }
