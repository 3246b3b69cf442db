"""C-SVM training on precomputed kernels via SMO, with 1-vs-1 multiclass voting.

The solver never sees feature vectors: it consumes kernel blocks only, which
keeps kernel construction and classification strictly separated.  Pair updates
follow Platt's analytic two-variable solve; the second index of each working
pair is drawn from a seeded random permutation.  The loop runs on Python
floats, since at p of about 20 numpy's per-call overhead on scalars dominates
it; only the gradient update stays vectorised.  Its iterates are bitwise those
of the numpy formulation (``numpy_platt_smo`` in the tests' oracles), so reruns
are byte-identical, given a fixed BLAS thread count (the bits of a large kernel
depend on it).  ``fit_predict`` is the one
train-then-predict path of the package: fitness folds, C selection and final
scoring all go through it, and it refuses a model that stopped at max_passes.

A GramMatrix was checked where it entered the package, so it is trusted here; a
raw array becomes one at entry.  The class-pair blocks, cut with ``GramMatrix.restrict``,
keep that check.  ``predict`` reads the held x fit block ``fit_predict`` cuts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError, ParameterError, ShapeError
from .gram import GramMatrix, submatrix
from .kernel_io import check_json, dump_json, parse_json
from .rng import derived_rng

MODEL_SCHEMA = "kf-model-1"


@dataclass(frozen=True)
class SvmParams:
    c: float = 10.0
    kkt_tol: float = 1e-3
    max_passes: int = 500
    eps: float = 1e-12

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0):
            raise ParameterError(f"C must be positive and finite, got {self.c}")
        if not (np.isfinite(self.kkt_tol) and self.kkt_tol > 0):
            raise ParameterError(f"kkt_tol must be positive, got {self.kkt_tol}")
        if self.max_passes < 0:
            raise ParameterError("max_passes must be >= 0")
        if self.eps <= 0:
            raise ParameterError("eps must be positive")


@dataclass
class SvmModel:
    """Dual solution of one binary problem over its own training block."""

    alpha: np.ndarray
    bias: float
    train_labels: np.ndarray
    params: SvmParams
    converged: bool

    @property
    def support_idx(self) -> np.ndarray:
        return np.flatnonzero(self.alpha > self.params.eps)


def dual_objective(kernel: np.ndarray, labels: np.ndarray, alpha: np.ndarray) -> float:
    """sum(alpha) - 1/2 * (alpha*y)' K (alpha*y)."""
    v = alpha * labels
    return float(alpha.sum() - 0.5 * (v @ kernel @ v))


def _violators(alpha, g, b, y, c, tol, eps) -> np.ndarray:
    e = g + b - y
    r = y * e
    return np.flatnonzero(((r < -tol) & (alpha < c - eps)) | ((r > tol) & (alpha > eps)))


def _final_bias(alpha, g, y, c, eps) -> float:
    free = (alpha > eps) & (alpha < c - eps)
    if free.any():
        return float(np.mean(y[free] - g[free]))
    # all alphas at a bound: take the midpoint of the interval the KKT
    # inequalities allow: y=+1@0 and y=-1@C bound b from below, the rest from above
    margins = y - g
    lower = ((alpha <= eps) & (y > 0)) | ((alpha >= c - eps) & (y < 0))
    upper = ((alpha <= eps) & (y < 0)) | ((alpha >= c - eps) & (y > 0))
    lo = np.max(margins[lower]) if lower.any() else -np.inf
    hi = np.min(margins[upper]) if upper.any() else np.inf
    if not np.isfinite(lo):
        return float(hi)
    if not np.isfinite(hi):
        return float(lo)
    return float(0.5 * (lo + hi))


def train_binary(train_gram, labels, params: SvmParams, rng=None) -> SvmModel:
    """Maximize the SVM dual over a precomputed training kernel with SMO.

    Sweeps alternate between all points and the non-bound subset; each KKT
    violator is paired with partners from a seeded random permutation until a
    pair makes progress.  Returns a best-effort model flagged converged=False
    if violators survive max_passes sweeps.
    """
    k = (train_gram if isinstance(train_gram, GramMatrix) else GramMatrix(train_gram)).values
    y = np.asarray(labels, dtype=float).ravel()
    p = y.shape[0]
    if k.shape != (p, p):
        raise ShapeError(f"kernel shape {k.shape} does not match {p} labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DataError("binary labels must be -1/+1")
    if np.all(y == y[0]):
        raise DataError("training labels contain a single class")
    if rng is None:
        rng = np.random.default_rng(0)

    c, tol, eps = params.c, params.kkt_tol, params.eps
    # scalars are read as Python floats (see the module docstring); cols[j] is column j of k
    yl, kl, cols = y.tolist(), k.tolist(), np.ascontiguousarray(k.T)
    alpha = [0.0] * p
    g = np.zeros(p)  # decision values without bias: K @ (alpha * y)
    b = 0.0

    def take_step(i: int, j: int, gi: float) -> bool:
        nonlocal b, g
        if i == j:
            return False
        ai, aj = alpha[i], alpha[j]
        yi, yj = yl[i], yl[j]
        s = yi * yj
        if s < 0:
            lo, hi = max(0.0, aj - ai), min(c, c + aj - ai)
        else:
            lo, hi = max(0.0, ai + aj - c), min(c, ai + aj)
        if lo >= hi:
            return False
        gj = g.item(j)
        ei = gi + b - yi
        ej = gj + b - yj
        kii, kjj, kij = kl[i][i], kl[j][j], kl[i][j]
        eta = kii + kjj - 2.0 * kij
        if eta > 0:
            aj_new = aj + yj * (ei - ej) / eta
            aj_new = min(hi, max(lo, aj_new))
        else:
            # flat pair direction: compare the objective at both clip ends
            fi = yi * (gi - yi) - ai * kii - s * aj * kij
            fj = yj * (gj - yj) - s * ai * kij - aj * kjj
            li = ai + s * (aj - lo)
            hi_i = ai + s * (aj - hi)
            obj_lo = li * fi + lo * fj + 0.5 * li * li * kii + 0.5 * lo * lo * kjj + s * lo * li * kij
            obj_hi = (
                hi_i * fi + hi * fj + 0.5 * hi_i * hi_i * kii + 0.5 * hi * hi * kjj + s * hi * hi_i * kij
            )
            if obj_lo < obj_hi - eps:
                aj_new = lo
            elif obj_hi < obj_lo - eps:
                aj_new = hi
            else:
                return False
        if abs(aj_new - aj) < eps * (aj_new + aj + eps):
            return False
        ai_new = min(c, max(0.0, ai + s * (aj - aj_new)))
        di, dj = ai_new - ai, aj_new - aj
        b1 = b - ei - di * yi * kii - dj * yj * kij
        b2 = b - ej - di * yi * kij - dj * yj * kjj
        if eps < ai_new < c - eps:
            b = b1
        elif eps < aj_new < c - eps:
            b = b2
        else:
            b = 0.5 * (b1 + b2)
        alpha[i], alpha[j] = ai_new, aj_new
        g += di * yi * cols[i] + dj * yj * cols[j]
        return True

    passes = 0
    examine_all = True
    converged = False
    while passes < params.max_passes:
        if examine_all:
            candidates = range(p)
        else:
            candidates = [i for i, a in enumerate(alpha) if eps < a < c - eps]
        changed = 0
        for i in candidates:
            gi, yi, ai = g.item(i), yl[i], alpha[i]
            ri = yi * (gi + b - yi)
            if (ri < -tol and ai < c - eps) or (ri > tol and ai > eps):
                for j in rng.permutation(p).tolist():
                    if take_step(i, j, gi):
                        changed += 1
                        break
        passes += 1
        if examine_all:
            if changed == 0:
                a = np.array(alpha)
                b = _final_bias(a, g, y, c, eps)
                if _violators(a, g, b, y, c, tol, eps).size == 0:
                    converged = True
                    break
                # the refreshed bias exposed stragglers; keep sweeping
            else:
                examine_all = False
        elif changed == 0:
            examine_all = True

    alpha = np.array(alpha)
    if not converged:
        b = _final_bias(alpha, g, y, c, eps)
        converged = _violators(alpha, g, b, y, c, tol, eps).size == 0

    return SvmModel(alpha=alpha, bias=b, train_labels=y, params=params, converged=converged)


def decision(model: SvmModel, cross_gram) -> np.ndarray:
    """f(q) = sum_i alpha_i y_i K(q, x_i) + bias, one value per query row."""
    q = np.asarray(cross_gram, dtype=float)
    if q.ndim != 2 or q.shape[1] != model.alpha.shape[0]:
        raise ShapeError(
            f"cross kernel has {q.shape} columns; model trained on {model.alpha.shape[0]} points"
        )
    return q @ (model.alpha * model.train_labels) + model.bias


@dataclass
class MulticlassModel:
    """One binary model per unordered class pair (1-vs-1)."""

    class_labels: list[int]
    pairs: list[tuple[int, int]]
    models: list[SvmModel]
    pair_positions: list[np.ndarray]  # positions into the training index list
    params: SvmParams

    @property
    def converged(self) -> bool:
        return all(m.converged for m in self.models)


def train_multiclass(gram, labels, train_idx, params: SvmParams, seed: int = 0) -> MulticlassModel:
    """Train c(c-1)/2 pair models on the kernel restricted to each pair's points.

    Pair label convention: the smaller class id maps to -1.  Each pair's SMO
    stream is derived from (seed, class pair), so results do not depend on
    training order.  A raw array is checked once, as a GramMatrix.
    """
    fit = (gram if isinstance(gram, GramMatrix) else GramMatrix(gram)).restrict(train_idx)
    train_labels = np.asarray(labels)[np.asarray(train_idx, dtype=int)]
    classes = sorted(int(v) for v in set(train_labels.tolist()))
    if len(classes) < 2:
        raise DataError("need training points from at least 2 classes")

    pairs, models, positions = [], [], []
    for a, b in combinations(classes, 2):
        pos = np.flatnonzero((train_labels == a) | (train_labels == b))
        y = np.where(train_labels[pos] == a, -1.0, 1.0)
        model = train_binary(fit.restrict(pos), y, params, derived_rng(seed, "pair", a, b))
        pairs.append((a, b))
        models.append(model)
        positions.append(pos)
    return MulticlassModel(classes, pairs, models, positions, params)


def predict(model: MulticlassModel, rows) -> np.ndarray:
    """Majority vote over pair decisions on a held x fit kernel block, whose
    columns are the model's training points in training order.

    Vote ties are broken by the larger sum of |decision| over the pairs that
    voted for the tied class, then by the smaller class id.
    """
    q = np.asarray(rows, dtype=float)
    if q.ndim != 2:
        raise ShapeError(f"expected 2-d kernel rows, got shape {q.shape}")

    n_cls = len(model.class_labels)
    col_of = {c: i for i, c in enumerate(model.class_labels)}
    votes = np.zeros((q.shape[0], n_cls))
    margins = np.zeros((q.shape[0], n_cls))
    for (a, b), mdl, pos in zip(model.pairs, model.models, model.pair_positions):
        f = decision(mdl, q[:, pos])
        win_b = f > 0
        ia, ib = col_of[a], col_of[b]
        votes[win_b, ib] += 1
        votes[~win_b, ia] += 1
        margins[win_b, ib] += np.abs(f[win_b])
        margins[~win_b, ia] += np.abs(f[~win_b])

    # margins are >= 0, so -inf rules out every class short of the most votes
    top = np.argmax(np.where(votes == votes.max(axis=1, keepdims=True), margins, -np.inf), axis=1)
    return np.asarray(model.class_labels, dtype=int)[top]


def fit_predict(gram: GramMatrix, labels, fit_idx, held_idx, params: SvmParams, seed: int) -> tuple[np.ndarray, MulticlassModel]:
    """Train on the fit_idx points and predict the held_idx rows: (predictions, model).
    Raises NumericalError if any pair model stopped at max_passes."""
    model = train_multiclass(gram, labels, fit_idx, params, seed=seed)
    if not model.converged:
        raise NumericalError(f"SMO on kernel {gram.source_tag!r} did not converge within max_passes")
    return predict(model, submatrix(gram, held_idx, fit_idx)), model


def accuracy(predicted, actual) -> float:
    p = np.asarray(predicted)
    a = np.asarray(actual)
    if p.shape != a.shape:
        raise ShapeError(f"prediction/label length mismatch: {p.shape} vs {a.shape}")
    if p.size == 0:
        raise ShapeError("cannot score an empty prediction list")
    return float(np.mean(p == a))


def multiclass_to_dict(model: MulticlassModel) -> dict:
    return {
        "schema": MODEL_SCHEMA,
        "class_labels": list(model.class_labels),
        "params": asdict(model.params),
        "pairs": [
            {
                "classes": list(pair),
                "train_positions": pos.tolist(),
                "alpha": mdl.alpha.tolist(),
                "bias": mdl.bias,
                "labels": mdl.train_labels.tolist(),
                "support_idx": mdl.support_idx.tolist(),
                "converged": mdl.converged,
            }
            for pair, mdl, pos in zip(model.pairs, model.models, model.pair_positions)
        ],
    }


_PARAMS_DOC = {"c": float, "kkt_tol": float, "max_passes": int, "eps": float}
_PAIR_DOC = {
    "classes": [int], "train_positions": [int], "alpha": [float], "bias": float,
    "labels": [float], "support_idx": [int], "converged": bool,
}
_MODEL_DOC = {"schema": MODEL_SCHEMA, "class_labels": [int], "params": _PARAMS_DOC, "pairs": [_PAIR_DOC]}


def multiclass_from_dict(doc: dict) -> MulticlassModel:
    """Inverse of multiclass_to_dict; a malformed document raises DataError."""
    check_json(doc, _MODEL_DOC, "model")
    try:
        params = SvmParams(**doc["params"])
    except ParameterError as exc:
        raise DataError(f"model.params: {exc}") from exc
    pairs, models, positions = [], [], []
    for i, entry in enumerate(doc["pairs"]):
        lengths = {len(entry[key]) for key in ("alpha", "labels", "train_positions")}
        if (
            len(lengths) > 1
            or len(entry["classes"]) != 2
            or not set(entry["classes"]) <= set(doc["class_labels"])
            or not set(entry["labels"]) <= {-1, 1}
            or min(entry["train_positions"], default=0) < 0
        ):
            raise DataError(f"model.pairs[{i}]: classes, labels and train positions do not fit together")
        pairs.append(tuple(entry["classes"]))
        alpha, y = np.asarray(entry["alpha"], dtype=float), np.asarray(entry["labels"], dtype=float)
        models.append(SvmModel(alpha, float(entry["bias"]), y, params, entry["converged"]))
        positions.append(np.asarray(entry["train_positions"], dtype=int))
    return MulticlassModel(list(doc["class_labels"]), pairs, models, positions, params)


def save_multiclass(path, model: MulticlassModel) -> None:
    Path(path).write_text(dump_json(multiclass_to_dict(model)), encoding="utf-8")


def load_multiclass(path) -> MulticlassModel:
    return multiclass_from_dict(parse_json(Path(path).read_bytes(), dict, str(path)))
