"""Experiment protocol: repeated stratified splits and the three-way comparison
of addition kernel vs. best single kernel vs. evolved kernel.

Every repeat draws its own train/validation/test split; baselines and the
evolved winner are all retrained on train+validation before the one test-set
evaluation, so the three columns are like-for-like.  ``fit_and_score`` is the
only place that trains on train+validation and scores on test; the CLI's
``evolve`` uses it too.  Reports aggregate mean and sample (n-1) standard
deviation across repeats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import reduce
from pathlib import Path

import numpy as np

from .errors import ComparisonError, DataError, KernelForgeError, NumericalError, ParameterError
from .expr import Add, Leaf, canonical_string, evaluate
from .gp import EvolutionResult, GpParams, evolve, fitness, write_evolution_log
from .gram import GramMatrix, KernelBank
from .rng import derive_seed
from .svm import MulticlassModel, SvmParams, accuracy, decision, predict, train_multiclass

REPORT_SCHEMA = "kf-report-1"
METHODS = ("addition", "best_single", "evolved")
C_GRID = (0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint train / validation / test index sets plus the stream seed."""

    train_idx: tuple[int, ...]
    val_idx: tuple[int, ...]
    test_idx: tuple[int, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "train_idx", tuple(int(i) for i in self.train_idx))
        object.__setattr__(self, "val_idx", tuple(int(i) for i in self.val_idx))
        object.__setattr__(self, "test_idx", tuple(int(i) for i in self.test_idx))
        train, val, test = set(self.train_idx), set(self.val_idx), set(self.test_idx)
        if train & val or train & test or val & test:
            raise DataError("train/validation/test index sets overlap")


@dataclass(frozen=True)
class ProtocolConfig:
    per_class_train: int
    per_class_val: int
    repeats: int
    seed: int
    grid_search_c: bool = False


def make_splits(labels, per_class_train: int, per_class_val: int, repeats: int, seed: int) -> list[DatasetSplit]:
    """Stratified splits: per class, sample per_class_train points as the
    training pool, hold per_class_val of them out for validation, and leave
    the remainder of the class as test."""
    labels = np.asarray(labels)
    if repeats < 1:
        raise ParameterError("repeats must be >= 1")
    if per_class_val < 1:
        raise ParameterError("per_class_val must be >= 1")
    if per_class_val >= per_class_train:
        raise ParameterError("per_class_val must leave at least one training point per class")
    classes = sorted(int(v) for v in set(labels.tolist()))
    if len(classes) < 2:
        raise DataError("need at least 2 classes")
    for c in classes:
        count = int(np.sum(labels == c))
        if count <= per_class_train:
            raise DataError(f"class {c} has {count} points; needs more than {per_class_train}")

    splits = []
    for r in range(repeats):
        rng = np.random.default_rng(derive_seed(seed, "split", r))
        train, val, test = [], [], []
        for c in classes:
            perm = rng.permutation(np.flatnonzero(labels == c))
            pool = perm[:per_class_train]
            val.extend(pool[:per_class_val])
            train.extend(pool[per_class_val:])
            test.extend(perm[per_class_train:])
        splits.append(
            DatasetSplit(
                tuple(sorted(train)), tuple(sorted(val)), tuple(sorted(test)),
                seed=derive_seed(seed, "repeat", r),
            )
        )
    return splits


def addition_kernel(bank: KernelBank) -> GramMatrix:
    """Entrywise sum of every bank kernel (the linear-combination baseline),
    evaluated as the left-leaning chain ``(+ (+ K1 K2) K3)`` and so on."""
    return evaluate(reduce(Add, (Leaf(i) for i in range(len(bank)))), bank)


def best_single_kernel(bank: KernelBank, labels, split: DatasetSplit, svm_params: SvmParams) -> tuple[int, float]:
    """Index and validation accuracy of the strongest base kernel (ties -> smaller index)."""
    scores = [fitness(Leaf(i), bank, labels, split, svm_params) for i in range(len(bank))]
    best = int(np.argmax(scores))
    return best, scores[best]


@dataclass
class ComparisonReport:
    methods: dict[str, list[float]]
    mean: dict[str, float]
    std: dict[str, float]
    best_exprs: list[str]
    best_single_indices: list[int]
    generations: list[list[list[float]]]  # per repeat: [generation, best, mean] rows
    binary_problems: dict[str, dict[str, list[float]]]
    config: dict
    schema: str = REPORT_SCHEMA


def _aggregate(values: list[float]) -> tuple[float, float]:
    mean = float(np.mean(values))
    std = 0.0 if len(values) < 2 else float(np.std(values, ddof=1))
    return mean, std


def _select_c(kernel: GramMatrix, labels, split: DatasetSplit, svm_params: SvmParams) -> SvmParams:
    """Pick C from a small grid by validation accuracy (ties -> smaller C)."""
    train_idx = np.asarray(split.train_idx)
    val_idx = np.asarray(split.val_idx)
    best_params, best_acc = svm_params, -1.0
    for c in C_GRID:
        trial = replace(svm_params, c=c)
        seed = derive_seed(split.seed, "cgrid", kernel.source_tag, c)
        model = train_multiclass(kernel, labels, train_idx, trial, seed=seed)
        acc = accuracy(predict(model, kernel.values[val_idx], train_idx), labels[val_idx])
        if acc > best_acc:
            best_params, best_acc = trial, acc
    return best_params


def fit_and_score(
    kernel: GramMatrix, labels, split: DatasetSplit, svm_params: SvmParams
) -> tuple[float, MulticlassModel, np.ndarray]:
    """Train the final model on train+validation and score it once on test.

    Returns (test accuracy, model, fit indices).  Test points cannot reach the
    fit, since DatasetSplit rejects overlapping index sets.  A model that stops
    at max_passes raises NumericalError instead of reporting an accuracy.
    """
    labels = np.asarray(labels)
    fit_idx = np.asarray(split.train_idx + split.val_idx, dtype=int)
    test_idx = np.asarray(split.test_idx, dtype=int)
    seed = derive_seed(split.seed, "final", kernel.source_tag)
    model = train_multiclass(kernel, labels, fit_idx, svm_params, seed=seed)
    if not model.converged:
        raise NumericalError(f"final model on kernel {kernel.source_tag!r} did not converge within max_passes")
    acc = accuracy(predict(model, kernel.values[test_idx], fit_idx), labels[test_idx])
    return acc, model, fit_idx


def _pair_accuracies(
    model: MulticlassModel, kernel: GramMatrix, labels, test_idx: np.ndarray, fit_idx: np.ndarray
) -> dict[str, float]:
    """Accuracy of each pair's binary decision on the test points of its two classes."""
    out = {}
    labels = np.asarray(labels)
    for (a, b), mdl, pos in zip(model.pairs, model.models, model.pair_positions):
        sel = test_idx[np.isin(labels[test_idx], (a, b))]
        if sel.size == 0:
            continue
        f = decision(mdl, kernel.values[np.ix_(sel, fit_idx[pos])])
        pred = np.where(f > 0, b, a)
        out[f"{a}|{b}"] = accuracy(pred, labels[sel])
    return out


def run_comparison(
    bank: KernelBank,
    labels,
    protocol: ProtocolConfig,
    gp_params: GpParams,
    svm_params: SvmParams,
    threads: int = 1,
    config_echo: dict | None = None,
) -> tuple[ComparisonReport, list[EvolutionResult]]:
    """Run all repeats of the three-way comparison.

    Returns the report plus the per-repeat evolution results (for logging).
    Any repeat failing hard aborts with the repeat index and cause.
    """
    labels = np.asarray(labels)
    splits = make_splits(labels, protocol.per_class_train, protocol.per_class_val, protocol.repeats, protocol.seed)

    per_method: dict[str, list[float]] = {m: [] for m in METHODS}
    pair_series: dict[str, dict[str, list[float]]] = {m: {} for m in METHODS}
    best_exprs: list[str] = []
    best_indices: list[int] = []
    generations: list[list[list[float]]] = []
    evolution_results: list[EvolutionResult] = []

    for r, split in enumerate(splits):
        try:
            test_idx = np.asarray(split.test_idx)
            candidates: dict[str, GramMatrix] = {}

            candidates["addition"] = addition_kernel(bank)

            idx, _ = best_single_kernel(bank, labels, split, svm_params)
            best_indices.append(idx)
            candidates["best_single"] = bank.kernels[idx]

            gp_r = replace(gp_params, rng_seed=derive_seed(protocol.seed, "gp", r))
            result = evolve(bank, labels, split, gp_r, svm_params, threads=threads)
            evolution_results.append(result)
            best_exprs.append(canonical_string(result.best_expr))
            generations.append([[g, b, m] for g, b, m in result.per_generation])
            candidates["evolved"] = evaluate(result.best_expr, bank)

            for method, kernel in candidates.items():
                params = (
                    _select_c(kernel, labels, split, svm_params)
                    if protocol.grid_search_c
                    else svm_params
                )
                acc, model, fit_idx = fit_and_score(kernel, labels, split, params)
                per_method[method].append(acc)
                for pair, value in _pair_accuracies(model, kernel, labels, test_idx, fit_idx).items():
                    pair_series[method].setdefault(pair, []).append(value)
        except KernelForgeError as exc:
            raise ComparisonError(f"repeat {r} failed: {exc}") from exc

    mean = {m: _aggregate(per_method[m])[0] for m in METHODS}
    std = {m: _aggregate(per_method[m])[1] for m in METHODS}
    report = ComparisonReport(
        methods=per_method,
        mean=mean,
        std=std,
        best_exprs=best_exprs,
        best_single_indices=best_indices,
        generations=generations,
        binary_problems=pair_series,
        config=dict(config_echo or {}),
    )
    return report, evolution_results


def report_to_json(report: ComparisonReport) -> str:
    doc = {
        "schema": report.schema,
        "methods": report.methods,
        "mean": report.mean,
        "std": report.std,
        "best_exprs": report.best_exprs,
        "best_single_indices": report.best_single_indices,
        "generations": report.generations,
        "binary_problems": report.binary_problems,
        "config": report.config,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_from_json(text: str) -> ComparisonReport:
    doc = json.loads(text)
    if doc.get("schema") != REPORT_SCHEMA:
        raise DataError(f"unknown report schema {doc.get('schema')!r}")
    return ComparisonReport(
        methods=doc["methods"],
        mean=doc["mean"],
        std=doc["std"],
        best_exprs=doc["best_exprs"],
        best_single_indices=doc["best_single_indices"],
        generations=doc["generations"],
        binary_problems=doc["binary_problems"],
        config=doc["config"],
        schema=doc["schema"],
    )


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


def summarize(report: ComparisonReport, outdir=None) -> str:
    """Readable summary plus, when outdir is given, the CSV/JSON emissions:

    report.json          full report (round-trips to an equal ComparisonReport)
    summary.csv          method, mean, std (percent)
    iterations.csv       per-repeat test accuracy per method
    generations.csv      per repeat/generation best and mean fitness
    binary_problems.csv  per class-pair mean accuracy per method
    """
    lines = ["method,mean_accuracy_pct,std_pct"]
    for m in METHODS:
        lines.append(f"{m},{_pct(report.mean[m])},{_pct(report.std[m])}")
    text = "\n".join(
        f"{m:>12}: {_pct(report.mean[m])}±{_pct(report.std[m])}" for m in METHODS
    )

    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(report_to_json(report), encoding="utf-8")
        (outdir / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

        repeats = len(report.best_exprs)
        rows = ["repeat," + ",".join(METHODS)]
        for r in range(repeats):
            rows.append(f"{r}," + ",".join(repr(report.methods[m][r]) for m in METHODS))
        (outdir / "iterations.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

        rows = ["repeat,generation,best_fitness,mean_fitness"]
        for r, series in enumerate(report.generations):
            for gen, best, mean in series:
                rows.append(f"{r},{int(gen)},{best!r},{mean!r}")
        (outdir / "generations.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

        pairs = sorted({p for m in METHODS for p in report.binary_problems[m]})
        rows = ["pair," + ",".join(METHODS)]
        for pair in pairs:
            cells = [repr(float(np.mean(report.binary_problems[m][pair]))) for m in METHODS]
            rows.append(f"{pair}," + ",".join(cells))
        (outdir / "binary_problems.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    return text


def write_comparison_outputs(report: ComparisonReport, results: list[EvolutionResult], outdir) -> str:
    """summarize() plus one evolution log per repeat under logs/."""
    outdir = Path(outdir)
    text = summarize(report, outdir)
    logdir = outdir / "logs"
    logdir.mkdir(exist_ok=True)
    for r, result in enumerate(results):
        write_evolution_log(logdir / f"evolution_r{r}.csv", result)
    return text
