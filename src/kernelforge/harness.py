"""Experiment protocol: repeated stratified splits and the three-way comparison
of addition kernel vs. best single kernel vs. evolved kernel.

Every repeat draws its own train/validation/test split and one
``gp.SplitFitness``, the memo that best-leaf selection, ``evolve`` and C
selection all score through.  The three candidates are expressions (the
``Add`` chain of every leaf, the best leaf and the evolved winner), and each
goes through ``fit_expr``: optionally choose C by validation fitness, fold the
expression over the memo's (fit, then test) x fit rows, train on their fit x fit
top through ``svm.fit_predict_rows`` and score once on the test rows, per class
pair too.  No comparison or ``evolve`` builds a combined m x m kernel, so an
overflow in a test x test entry, which no fit reads, fails nothing.
``run_repeat`` is repeat r up to its evolved fit;
``run_comparison`` loops over it and fits the baselines on the same memo, and
the CLI's ``evolve`` is ``run_repeat`` at r = 0.  Reports aggregate mean and
sample (n-1) standard deviation across repeats.  A failing repeat raises its
cause's error class (and so its CLI exit code), naming the repeat.  Every
output file of a search, evolution logs included, is written here.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, replace
from functools import reduce
from pathlib import Path

import numpy as np

from .errors import DataError, KernelForgeError, ParameterError, check_field_types
from .expr import Add, KernelExpr, Leaf, _folded, canonical_string
from .gp import EvolutionResult, GpParams, SplitFitness, evolve
from .gram import GramMatrix, KernelBank
from .kernel_io import _make_dir, _write_file, dump_json, parse_json
from .rng import derive_seed
from .svm import MulticlassModel, SvmParams, accuracy, fit_predict_rows

log = logging.getLogger(__name__)
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

    @property
    def fit_idx(self) -> np.ndarray:
        """The rows a model is fitted on: train, then validation."""
        return np.asarray(self.train_idx + self.val_idx, dtype=int)


@dataclass(frozen=True)
class ProtocolConfig:
    """Split sizes per class, repeats, master seed and C selection of a comparison.

    The CLI always sets ``seed`` (config key ``seed``); 0 serves library callers."""

    per_class_train: int = 15
    per_class_val: int = 5
    repeats: int = 10
    seed: int = 0
    grid_search_c: bool = False

    def __post_init__(self):
        check_field_types(self, ints=("per_class_train", "per_class_val", "repeats", "seed"))
        if self.repeats < 1:
            raise ParameterError("repeats must be >= 1")
        if self.per_class_val < 1:
            raise ParameterError("per_class_val must be >= 1")
        if self.per_class_val >= self.per_class_train:
            raise ParameterError("per_class_val must leave at least one training point per class")


def make_splits(labels, per_class_train: int, per_class_val: int, repeats: int, seed: int) -> list[DatasetSplit]:
    """The first ``repeats`` splits of ``make_split`` under master seed ``seed``."""
    protocol = ProtocolConfig(per_class_train, per_class_val, repeats, seed)
    return [make_split(labels, protocol, r) for r in range(repeats)]


def make_split(labels, protocol: ProtocolConfig, r: int) -> DatasetSplit:
    """Repeat r's stratified split, drawn from its own stream: per class, sample
    per_class_train points as the training pool, hold per_class_val of them out
    for validation, and leave the remainder of the class as test."""
    labels = np.asarray(labels)
    classes = sorted(int(v) for v in set(labels.tolist()))
    if len(classes) < 2:
        raise DataError("need at least 2 classes")
    for c in classes:
        count = int(np.sum(labels == c))
        if count <= protocol.per_class_train:
            raise DataError(f"class {c} has {count} points; needs more than {protocol.per_class_train}")

    rng = np.random.default_rng(derive_seed(protocol.seed, "split", r))
    train, val, test = [], [], []
    for c in classes:
        perm = rng.permutation(np.flatnonzero(labels == c))
        pool = perm[: protocol.per_class_train]
        val.extend(pool[: protocol.per_class_val])
        train.extend(pool[protocol.per_class_val :])
        test.extend(perm[protocol.per_class_train :])
    return DatasetSplit(
        tuple(sorted(train)), tuple(sorted(val)), tuple(sorted(test)), seed=derive_seed(protocol.seed, "repeat", r)
    )


def _addition_expr(n: int) -> KernelExpr:
    """The linear-combination baseline over n kernels: ``(+ (+ K1 K2) K3)`` and so on."""
    return reduce(Add, (Leaf(i) for i in range(n)))


def best_single_kernel(bank: KernelBank, labels, split: DatasetSplit, svm_params: SvmParams) -> tuple[int, float]:
    """Index and validation accuracy of the strongest base kernel (ties -> smaller index)."""
    return _best_leaf(SplitFitness(bank, labels, split), svm_params)


def _best_leaf(score: SplitFitness, svm_params: SvmParams) -> tuple[int, float]:
    scores = score.score_all([Leaf(i) for i in range(len(score.bank))], svm_params)
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


def _select_c(expr: KernelExpr, score: SplitFitness, svm_params: SvmParams) -> SvmParams:
    """The C of C_GRID with the best validation fitness (ties -> smaller C); a
    trial that stops at max_passes scores 0 with the fitness warning."""
    scores = score.score_all([expr] * len(C_GRID), [replace(svm_params, c=c) for c in C_GRID])
    return replace(svm_params, c=C_GRID[int(np.argmax(scores))])


def fit_expr(
    expr: KernelExpr, score: SplitFitness, svm_params: SvmParams, grid_search_c: bool
) -> tuple[float, MulticlassModel, dict[str, float]]:
    """Choose C on score's split if grid_search_c, then fold the expression over
    score's (fit, then test) x fit rows, train on the top fit x fit block
    (train+validation) and score once on the test rows below it.

    Returns (test accuracy, model, pair accuracies), the last keyed "a|b" as in
    ``_pair_accuracies``.  Test points cannot reach the fit, since DatasetSplit
    rejects overlapping index sets.  A model that stops at max_passes raises
    NumericalError instead of reporting an accuracy.
    """
    if grid_search_c:
        svm_params = _select_c(expr, score, svm_params)
    tag, n_fit = canonical_string(expr), score.fit_labels.size
    rows, seed = _folded(expr, score.final_rows, tag), derive_seed(score.split.seed, "final", tag)
    fit = GramMatrix._checked(rows[:n_fit], tag)  # rows: fit, then test
    pred, model, decisions = fit_predict_rows(fit, score.fit_labels, np.arange(n_fit), rows[n_fit:], svm_params, seed)
    test_labels = score.labels[np.asarray(score.split.test_idx, dtype=int)]
    return accuracy(pred, test_labels), model, _pair_accuracies(model, decisions, test_labels)


def _pair_accuracies(model: MulticlassModel, decisions: np.ndarray, test_labels: np.ndarray) -> dict[str, float]:
    """Accuracy of each pair's binary decision (its column of ``decisions``, the
    test x pairs matrix ``fit_predict_rows`` voted with) on the test points of its two classes."""
    out = {}
    for (a, b), f in zip(model.pairs, decisions.T):
        sel = np.isin(test_labels, (a, b))
        if sel.any():
            out[f"{a}|{b}"] = accuracy(np.where(f[sel] > 0, b, a), test_labels[sel])
    return out


def run_repeat(
    bank: KernelBank, labels, protocol: ProtocolConfig, gp_params: GpParams, svm_params: SvmParams, r: int
) -> tuple[SplitFitness, EvolutionResult, tuple[float, MulticlassModel, dict[str, float]]]:
    """Draw repeat r's split, hand ``evolve`` repeat r's GP seed, ``derive_seed(protocol.seed,
    "gp", r)`` (it checks the split and the GP settings before any fitness work), and fit
    the winner: (the split's fitness memo, the evolution result, the winner's ``fit_expr`` result)."""
    score = SplitFitness(bank, labels, make_split(labels, protocol, r))
    result = evolve(score, gp_params, svm_params, derive_seed(protocol.seed, "gp", r))
    return score, result, fit_expr(result.best_expr, score, svm_params, protocol.grid_search_c)


def run_comparison(
    bank: KernelBank,
    labels,
    protocol: ProtocolConfig,
    gp_params: GpParams,
    svm_params: SvmParams,
    config_echo: dict | None = None,
) -> tuple[ComparisonReport, list[EvolutionResult]]:
    """Run all repeats of the three-way comparison.

    Returns the report plus the per-repeat evolution results (for logging).
    Any repeat failing hard aborts with the error of its cause, in the
    cause's class, its message prefixed with ``repeat <r> failed: ``.
    """
    report = ComparisonReport(
        methods={m: [] for m in METHODS}, mean={}, std={}, best_exprs=[], best_single_indices=[],
        generations=[], binary_problems={m: {} for m in METHODS}, config=dict(config_echo or {}),
    )
    results: list[EvolutionResult] = []
    for r in range(protocol.repeats):
        try:
            score, result, evolved = run_repeat(bank, labels, protocol, gp_params, svm_params, r)
            results.append(result)
            report.best_exprs.append(canonical_string(result.best_expr))
            report.generations.append([[g, b, m] for g, b, m in result.per_generation])
            idx, _ = _best_leaf(score, svm_params)
            report.best_single_indices.append(idx)

            baselines = (_addition_expr(len(bank)), Leaf(idx))
            fits = [fit_expr(e, score, svm_params, protocol.grid_search_c) for e in baselines] + [evolved]
            for method, (acc, _, pairs) in zip(METHODS, fits):
                report.methods[method].append(acc)
                for pair, value in pairs.items():
                    report.binary_problems[method].setdefault(pair, []).append(value)
            log.debug(
                "repeat %d: test accuracy addition %.4f, best single K%d %.4f, evolved %s %.4f",
                r, fits[0][0], idx + 1, fits[1][0], report.best_exprs[-1], fits[2][0],
            )
        except KernelForgeError as exc:  # keeps its class, and so its CLI exit code
            exc.args = (f"repeat {r} failed: {exc}",)
            raise

    for m in METHODS:
        report.mean[m], report.std[m] = _aggregate(report.methods[m])
    return report, results


def report_to_json(report: ComparisonReport) -> str:
    return dump_json(asdict(report))


_REPORT_DOC = {
    "schema": REPORT_SCHEMA,
    "methods": {m: [float] for m in METHODS},
    "mean": {m: float for m in METHODS},
    "std": {m: float for m in METHODS},
    "best_exprs": [str],
    "best_single_indices": [int],
    "generations": [[[float]]],
    "binary_problems": {m: {str: [float]} for m in METHODS},
    "config": dict,
}


def report_from_json(text: str) -> ComparisonReport:
    """Inverse of report_to_json; a malformed document raises DataError."""
    doc = parse_json(text, _REPORT_DOC, "report")
    repeats = {len(doc["best_exprs"])} | {len(series) for series in doc["methods"].values()}
    if len(repeats) > 1 or any(len(row) != 3 for series in doc["generations"] for row in series):
        raise DataError("report: per-repeat lists disagree in length, or a generation row is not 3 numbers")
    return ComparisonReport(**doc)


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


def summarize(report: ComparisonReport) -> str:
    """One readable line per method: mean±std test accuracy in percent."""
    return "\n".join(f"{m:>12}: {_pct(report.mean[m])}±{_pct(report.std[m])}" for m in METHODS)


def _write_lines(path, lines: list[str]) -> None:
    _write_file(path, "\n".join(lines) + "\n")


def write_evolution_log(path, result: EvolutionResult) -> None:
    """One CSV row per generation: generation, best, mean, best expression."""
    lines = ["generation,best_fitness,mean_fitness,best_expr"]
    for (gen, best, mean), text in zip(result.per_generation, result.generation_best_exprs):
        lines.append(f"{gen},{best!r},{mean!r},{text}")
    _write_lines(path, lines)


COMPARISON_FILES = ("report.json", "summary.csv", "iterations.csv", "generations.csv", "binary_problems.csv")


def comparison_files(outdir, repeats: int) -> list[Path]:
    """The files ``write_comparison_outputs`` writes for a comparison of that many repeats, in its order:
    ``COMPARISON_FILES``, then ``logs/evolution_r<r>.csv`` for each repeat."""
    outdir = Path(outdir)
    logs = [outdir / "logs" / f"evolution_r{r}.csv" for r in range(repeats)]
    return [outdir / name for name in COMPARISON_FILES] + logs


def write_comparison_outputs(report: ComparisonReport, results: list[EvolutionResult], outdir) -> str:
    """Write a comparison's files under outdir, made if missing, and return summarize(report).

    report.json              full report (round-trips to an equal ComparisonReport)
    summary.csv              method, mean, std (percent)
    iterations.csv           per-repeat test accuracy per method
    generations.csv          per repeat/generation best and mean fitness
    binary_problems.csv      per class-pair mean accuracy per method
    logs/evolution_r<r>.csv  one evolution log per repeat
    """
    report_path, summary, iterations, generations, binary_problems, *logs = comparison_files(outdir, len(results))
    _make_dir(Path(outdir) / "logs")
    _write_file(report_path, report_to_json(report))
    rows = ["method,mean_accuracy_pct,std_pct"]
    rows += [f"{m},{_pct(report.mean[m])},{_pct(report.std[m])}" for m in METHODS]
    _write_lines(summary, rows)

    rows = ["repeat," + ",".join(METHODS)]
    for r in range(len(report.best_exprs)):
        rows.append(f"{r}," + ",".join(repr(report.methods[m][r]) for m in METHODS))
    _write_lines(iterations, rows)

    rows = ["repeat,generation,best_fitness,mean_fitness"]
    for r, series in enumerate(report.generations):
        for gen, best, mean in series:
            rows.append(f"{r},{int(gen)},{best!r},{mean!r}")
    _write_lines(generations, rows)

    pairs = sorted({p for m in METHODS for p in report.binary_problems[m]})
    rows = ["pair," + ",".join(METHODS)]
    for pair in pairs:
        cells = [repr(float(np.mean(report.binary_problems[m][pair]))) for m in METHODS]
        rows.append(f"{pair}," + ",".join(cells))
    _write_lines(binary_problems, rows)

    for path, result in zip(logs, results):
        write_evolution_log(path, result)
    return summarize(report)
