"""Experiment protocol: repeated stratified splits and the three-way comparison
of addition kernel vs. best single kernel vs. evolved kernel.

Every repeat draws its own train/validation/test split and one
``gp.SplitFitness``, the memo that best-leaf selection, ``evolve`` and C
selection all score through.  The three candidates are expressions (the
``Add`` chain of every leaf, the best leaf and the evolved winner), and each
goes through ``fit_expr``: optionally choose C by validation fitness, then
train on train+validation and score once on test, so the three columns are
like-for-like.  All training goes through ``svm.fit_predict``.  The CLI's
``evolve`` is repeat 0: the first split, ``repeat_gp_params(..., 0)`` and
``fit_expr``.  Reports aggregate mean and sample (n-1) standard deviation
across repeats.  A failing repeat raises its cause's error class (and so its
CLI exit code), naming the repeat.  Every output file of a search, evolution
logs included, is written here.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, replace
from functools import reduce
from pathlib import Path

import numpy as np

from .errors import DataError, KernelForgeError, ParameterError
from .expr import Add, KernelExpr, Leaf, canonical_string, evaluate
from .gp import EvolutionResult, GpParams, SplitFitness, evolve
from .gram import GramMatrix, KernelBank, submatrix
from .kernel_io import dump_json, parse_json
from .rng import derive_seed
from .svm import MulticlassModel, SvmParams, accuracy, decision, fit_predict

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


def repeat_gp_params(gp_params: GpParams, protocol: ProtocolConfig, r: int) -> GpParams:
    """gp_params on repeat r's own rng stream; the CLI's ``evolve`` is repeat 0."""
    return replace(gp_params, rng_seed=derive_seed(protocol.seed, "gp", r))


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


def _addition_expr(n: int) -> KernelExpr:
    """The linear-combination baseline over n kernels: ``(+ (+ K1 K2) K3)`` and so on."""
    return reduce(Add, (Leaf(i) for i in range(n)))


def best_single_kernel(bank: KernelBank, labels, split: DatasetSplit, svm_params: SvmParams) -> tuple[int, float]:
    """Index and validation accuracy of the strongest base kernel (ties -> smaller index)."""
    return _best_leaf(SplitFitness(bank, labels, split), svm_params)


def _best_leaf(score: SplitFitness, svm_params: SvmParams) -> tuple[int, float]:
    scores = [score(Leaf(i), svm_params) for i in range(len(score.bank))]
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
    scores = [score(expr, replace(svm_params, c=c)) for c in C_GRID]
    return replace(svm_params, c=C_GRID[int(np.argmax(scores))])


def fit_expr(
    expr: KernelExpr, score: SplitFitness, svm_params: SvmParams, grid_search_c: bool
) -> tuple[float, MulticlassModel, GramMatrix]:
    """Choose C on score's split if grid_search_c, then train the evaluated
    expression on train+validation and score it once on test.

    Returns (test accuracy, model, kernel).  Test points cannot reach the fit,
    since DatasetSplit rejects overlapping index sets.  A model that stops at
    max_passes raises NumericalError instead of reporting an accuracy.
    """
    if grid_search_c:
        svm_params = _select_c(expr, score, svm_params)
    kernel = evaluate(expr, score.bank)
    test_idx = np.asarray(score.split.test_idx, dtype=int)
    seed = derive_seed(score.split.seed, "final", kernel.source_tag)
    pred, model = fit_predict(kernel, score.labels, score.split.fit_idx, test_idx, svm_params, seed)
    return accuracy(pred, score.labels[test_idx]), model, kernel


def _pair_accuracies(model: MulticlassModel, kernel: GramMatrix, labels, split: DatasetSplit) -> dict[str, float]:
    """Accuracy of each pair's binary decision on the test points of its two classes."""
    out = {}
    test_idx = np.asarray(split.test_idx, dtype=int)
    rows, test_labels = submatrix(kernel, test_idx, split.fit_idx), labels[test_idx]
    for (a, b), mdl, pos in zip(model.pairs, model.models, model.pair_positions):
        sel = np.flatnonzero(np.isin(test_labels, (a, b)))
        if sel.size == 0:
            continue
        f = decision(mdl, rows[np.ix_(sel, pos)])
        pred = np.where(f > 0, b, a)
        out[f"{a}|{b}"] = accuracy(pred, test_labels[sel])
    return out


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
            score = SplitFitness(bank, labels, split)
            # evolve first: it checks the split and the GP settings before any fitness work
            result = evolve(score, repeat_gp_params(gp_params, protocol, r), svm_params)
            evolution_results.append(result)
            best_exprs.append(canonical_string(result.best_expr))
            generations.append([[g, b, m] for g, b, m in result.per_generation])
            idx, _ = _best_leaf(score, svm_params)
            best_indices.append(idx)

            candidates = zip(METHODS, (_addition_expr(len(bank)), Leaf(idx), result.best_expr))
            for method, expr in candidates:
                acc, model, kernel = fit_expr(expr, score, svm_params, protocol.grid_search_c)
                per_method[method].append(acc)
                for pair, value in _pair_accuracies(model, kernel, labels, split).items():
                    pair_series[method].setdefault(pair, []).append(value)
            log.debug(
                "repeat %d: test accuracy addition %.4f, best single K%d %.4f, evolved %s %.4f",
                r, per_method["addition"][-1], idx + 1, per_method["best_single"][-1],
                best_exprs[-1], per_method["evolved"][-1],
            )
        except KernelForgeError as exc:  # keeps its class, and so its CLI exit code
            exc.args = (f"repeat {r} failed: {exc}",)
            raise

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


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_evolution_log(path, result: EvolutionResult) -> None:
    """One CSV row per generation: generation, best, mean, best expression."""
    lines = ["generation,best_fitness,mean_fitness,best_expr"]
    for (gen, best, mean), text in zip(result.per_generation, result.generation_best_exprs):
        lines.append(f"{gen},{best!r},{mean!r},{text}")
    _write_lines(Path(path), lines)


def write_comparison_outputs(report: ComparisonReport, results: list[EvolutionResult], outdir) -> str:
    """Write a comparison's files under outdir, made if missing, and return summarize(report).

    report.json              full report (round-trips to an equal ComparisonReport)
    summary.csv              method, mean, std (percent)
    iterations.csv           per-repeat test accuracy per method
    generations.csv          per repeat/generation best and mean fitness
    binary_problems.csv      per class-pair mean accuracy per method
    logs/evolution_r<r>.csv  one evolution log per repeat
    """
    outdir = Path(outdir)
    (outdir / "logs").mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(report_to_json(report), encoding="utf-8")
    rows = ["method,mean_accuracy_pct,std_pct"]
    rows += [f"{m},{_pct(report.mean[m])},{_pct(report.std[m])}" for m in METHODS]
    _write_lines(outdir / "summary.csv", rows)

    rows = ["repeat," + ",".join(METHODS)]
    for r in range(len(report.best_exprs)):
        rows.append(f"{r}," + ",".join(repr(report.methods[m][r]) for m in METHODS))
    _write_lines(outdir / "iterations.csv", rows)

    rows = ["repeat,generation,best_fitness,mean_fitness"]
    for r, series in enumerate(report.generations):
        for gen, best, mean in series:
            rows.append(f"{r},{int(gen)},{best!r},{mean!r}")
    _write_lines(outdir / "generations.csv", rows)

    pairs = sorted({p for m in METHODS for p in report.binary_problems[m]})
    rows = ["pair," + ",".join(METHODS)]
    for pair in pairs:
        cells = [repr(float(np.mean(report.binary_problems[m][pair]))) for m in METHODS]
        rows.append(f"{pair}," + ",".join(cells))
    _write_lines(outdir / "binary_problems.csv", rows)

    for r, result in enumerate(results):
        write_evolution_log(outdir / "logs" / f"evolution_r{r}.csv", result)
    return summarize(report)
