"""C-SVM training on precomputed kernels via SMO, with 1-vs-1 multiclass voting.

The solver never sees feature vectors: it consumes kernel blocks only, which
keeps kernel construction and classification strictly separated.  Pair updates
follow Platt's analytic two-variable solve; the second index of each working
pair is drawn from a seeded random permutation.  The loop, pair step inlined, and
its convergence test run on Python floats, since at p of about 20 per-call overhead
outweighs a step's arithmetic.  Permutations are drawn a block at a time (the rows of
``Generator.permuted`` are successive ``permutation`` draws, one per violator).  Iterates and
results are bitwise those of the numpy formulation (``numpy_platt_smo`` in the tests' oracles),
so reruns are byte-identical at a fixed BLAS thread count, which sets a large kernel's bits.
Training and voting take one path.  ``_fit_pairs`` trains each class pair's block
through ``train_binary``, and ``_voted``, the one decision formula, decides each pair's
held rows on its own columns, votes, and hands back the decisions its vote read, so no
caller decides a pair twice.  ``train_multiclass`` gathers each pair's block straight from
the caller's kernel, and the final fits reach it through ``fit_predict_rows``, the one
fit-and-decide entry; ``gp.fitness`` hands in views of its split's plan; both refuse a model
that stopped at max_passes.  The entry points (``train_binary``, ``train_multiclass``,
``predict``) check a caller's input once: a raw array becomes a GramMatrix, checked where
it entered the package; blocks cut from a checked kernel are trusted.  ``save_multiclass``
writes a model as JSON, which no command reads back.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .errors import DataError, NumericalError, ParameterError, ShapeError, check_field_types
from .gram import GramMatrix, _checked_ids
from .kernel_io import _write_file, dump_json
from .rng import derived_rng

MODEL_SCHEMA = "kf-model-1"
_PERM_BLOCK = 64  # partner permutations drawn from rng at a time


@dataclass(frozen=True)
class SvmParams:
    c: float = 10.0
    kkt_tol: float = 1e-3
    max_passes: int = 500
    eps: float = 1e-12

    def __post_init__(self):
        check_field_types(self, ints=("max_passes",), floats=("c", "kkt_tol", "eps"))
        if not (np.isfinite(self.c) and self.c > 0):
            raise ParameterError(f"C must be positive and finite, got {self.c}")
        if not (np.isfinite(self.kkt_tol) and self.kkt_tol > 0):
            raise ParameterError(f"kkt_tol must be positive, got {self.kkt_tol}")
        if self.max_passes < 0:
            raise ParameterError(f"max_passes must be an int >= 0, got {self.max_passes!r}")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ParameterError(f"eps must be positive and finite, got {self.eps}")


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


def _violators(alpha, g, b, y, c, tol, eps) -> list[int]:
    """Positions violating KKT by more than tol under bias b, by the numpy formulation's float tests."""
    c_eps = c - eps
    return [i for i, (a, gt, yt) in enumerate(zip(alpha, g, y))
            if ((r := yt * (gt + b - yt)) < -tol and a < c_eps) or (r > tol and a > eps)]


def _final_bias(alpha, g, y, c, eps) -> float:
    """The KKT bias, reducing the values the numpy formulation reduced as it did (np.mean sums, then divides)."""
    c_eps = c - eps
    free = [yt - gt for a, gt, yt in zip(alpha, g, y) if eps < a < c_eps]
    if free:
        return float(np.add.reduce(free)) / len(free)
    # all alphas at a bound: the midpoint of the KKT interval (y=+1@0, y=-1@C bound b below, the rest above)
    lower = [yt - gt for a, gt, yt in zip(alpha, g, y) if (a <= eps and yt > 0) or (a >= c_eps and yt < 0)]
    upper = [yt - gt for a, gt, yt in zip(alpha, g, y) if (a <= eps and yt < 0) or (a >= c_eps and yt > 0)]
    lo = float(np.max(lower)) if lower else -np.inf
    hi = float(np.min(upper)) if upper else np.inf
    if not np.isfinite(lo):
        return hi
    if not np.isfinite(hi):
        return lo
    return 0.5 * (lo + hi)


def train_binary(train_gram, labels, params: SvmParams, rng=None) -> SvmModel:
    """Maximize the SVM dual over a precomputed training kernel with SMO.

    Sweeps alternate between all points and the non-bound subset; each KKT
    violator is paired with partners from a seeded random permutation until a
    pair makes progress.  Returns a best-effort model flagged converged=False
    if violators survive max_passes sweeps.

    ``rng`` must be a ``numpy.random.Generator``; permutations are drawn from it _PERM_BLOCK at a time.
    """
    k = (train_gram if isinstance(train_gram, GramMatrix) else GramMatrix(train_gram)).values
    y = np.asarray(labels, dtype=float).ravel()
    p = y.shape[0]
    if k.shape != (p, p):
        raise ShapeError(f"kernel shape {k.shape} does not match {p} labels")
    n_pos = np.count_nonzero(y == 1.0)
    if n_pos + np.count_nonzero(y == -1.0) != p:
        raise DataError("binary labels must be -1/+1")
    if n_pos in (0, p):
        raise DataError("training labels contain a single class")
    if rng is None:
        rng = np.random.default_rng(0)
    elif not isinstance(rng, np.random.Generator):
        raise ParameterError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")

    c, tol, eps = params.c, params.kkt_tol, params.eps
    c_eps, neg_tol = c - eps, -tol  # hoisted: the loop clips with conditional expressions, calling no builtin
    # scalars are read as Python floats (see the module docstring); cols[j] is column j
    # of k, so k[i, j] is cols[j][i] (rows of a raw kernel may differ from its columns)
    yl, cols = y.tolist(), k.T.tolist()
    alpha = [0.0] * p
    g = [0.0] * p  # decision values without bias: K @ (alpha * y)
    b = 0.0
    # each row of Generator.permuted is the next rng.permutation(p) draw, bit for bit
    rows = np.broadcast_to(np.arange(p), (_PERM_BLOCK, p))
    perms, used = [], _PERM_BLOCK  # used: rows of perms taken

    passes = 0
    examine_all = True
    converged = False
    while passes < params.max_passes:
        if examine_all:
            candidates = range(p)
        else:
            candidates = [i for i, a in enumerate(alpha) if eps < a < c_eps]
        changed = 0
        for i in candidates:
            gi, yi, ai = g[i], yl[i], alpha[i]
            ei = gi + b - yi
            ri = yi * ei
            if not ((ri < neg_tol and ai < c_eps) or (ri > tol and ai > eps)):
                continue
            if used == _PERM_BLOCK:
                perms, used = rng.permuted(rows, axis=1).tolist(), 0
            used += 1
            ci = cols[i]
            kii = ci[i]
            for j in perms[used - 1]:  # Platt's pair step for (i, j)
                if i == j:
                    continue
                aj, yj = alpha[j], yl[j]
                s = yi * yj
                if s < 0:
                    lo, hi = aj - ai, c + aj - ai
                else:
                    lo, hi = ai + aj - c, ai + aj
                lo = lo if lo > 0.0 else 0.0  # max(0.0, lo) and min(c, hi), bit for bit
                hi = hi if hi < c else c
                if lo >= hi:
                    continue
                gj, cj = g[j], cols[j]
                ej = gj + b - yj
                kjj, kij = cj[j], cj[i]
                eta = kii + kjj - 2.0 * kij
                if eta > 0:
                    aj_new = aj + yj * (ei - ej) / eta
                    aj_new = aj_new if aj_new > lo else lo
                    aj_new = aj_new if aj_new < hi else hi
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
                        continue
                dj, lim = aj_new - aj, eps * (aj_new + aj + eps)
                if -lim < dj < lim:  # abs(dj) < lim
                    continue
                ai_new = ai + s * (aj - aj_new)  # then min(c, max(0.0, ai_new)), as for lo and hi
                ai_new = (ai_new if ai_new < c else c) if ai_new > 0.0 else 0.0
                u, v = (ai_new - ai) * yi, dj * yj  # di * yi * k parses as u * k
                if eps < ai_new < c_eps:
                    b = b - ei - u * kii - v * kij
                elif eps < aj_new < c_eps:
                    b = b - ej - u * kij - v * kjj
                else:
                    b = 0.5 * ((b - ei - u * kii - v * kij) + (b - ej - u * kij - v * kjj))
                alpha[i], alpha[j] = ai_new, aj_new
                g = [gt + (u * x + v * z) for gt, x, z in zip(g, ci, cj)]
                changed += 1
                break
        passes += 1
        if examine_all:
            if changed == 0:
                b = _final_bias(alpha, g, yl, c, eps)
                if not _violators(alpha, g, b, yl, c, tol, eps):
                    converged = True
                    break
                # the refreshed bias exposed stragglers; keep sweeping
            else:
                examine_all = False
        elif changed == 0:
            examine_all = True

    if not converged:
        b = _final_bias(alpha, g, yl, c, eps)
        converged = not _violators(alpha, g, b, yl, c, tol, eps)

    return SvmModel(alpha=np.array(alpha), bias=b, train_labels=y, params=params, converged=converged)


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


Fitted = tuple[np.ndarray, MulticlassModel, np.ndarray]  # predictions, model, held x pairs decisions


def train_multiclass(gram, labels, train_idx, params: SvmParams, seed: int = 0) -> MulticlassModel:
    """Train c(c-1)/2 pair models, each on its pair's train_idx items of the kernel.

    Pair label convention: the smaller class id maps to -1.  Each pair's SMO stream is derived from
    (seed, class pair), so results do not depend on training order.  The input is checked once (one
    label per kernel item, or ShapeError; train_idx inside it, or IndexError); pair blocks are trusted.
    """
    k, labels = (gram if isinstance(gram, GramMatrix) else GramMatrix(gram)).values, np.asarray(labels)
    if len(labels) != len(k):
        raise ShapeError(f"{len(labels)} labels for a kernel of {len(k)} items")
    ids = _checked_ids(train_idx, len(k), "train")
    classes, pairs = _class_pairs(labels[ids])
    blocks = [(pair, pos, y, k[np.ix_(ids[pos], ids[pos])]) for pair, pos, y in pairs]
    return _fit_pairs(classes, blocks, params, seed)


def _class_pairs(labels: np.ndarray) -> tuple[list[int], list]:
    """The sorted classes of labels and, per class pair (a, b) in ``combinations`` order,
    ((a, b), the positions of its points, their labels: -1 for a, +1 for b)."""
    classes = sorted(int(v) for v in set(labels.tolist()))
    pos = {(a, b): np.flatnonzero((labels == a) | (labels == b)) for a, b in combinations(classes, 2)}
    return classes, [(pair, p, np.where(labels[p] == pair[0], -1.0, 1.0)) for pair, p in pos.items()]


def _fit_pairs(classes: list[int], blocks, params: SvmParams, seed: int) -> MulticlassModel:
    """The one training core, under ``train_multiclass`` and ``gp.fitness``: blocks[t] is the t-th pair
    of ``_class_pairs`` with its train x train block, cut from a checked kernel and so trusted, which
    ``train_binary`` (by its bare name) solves on the stream derived from (seed, "pair", a, b)."""
    if len(classes) < 2:
        raise DataError("need training points from at least 2 classes")
    models = [train_binary(GramMatrix._checked(k), y, params, derived_rng(seed, "pair", *ab)) for ab, _, y, k in blocks]
    return MulticlassModel(classes, [blk[0] for blk in blocks], models, [blk[1] for blk in blocks], params)


def _voted(model: MulticlassModel, held, n_held: int, tag: str | None = None) -> Fitted:
    """Decide each pair on held[t], its held x pair block, and vote: (predictions, model, the held x pairs
    decisions the vote read).  Given the kernel's tag, a model that stopped at max_passes is a NumericalError."""
    if tag is not None and not model.converged:
        raise NumericalError(f"SMO on kernel {tag!r} did not converge within max_passes")
    f = np.empty((n_held, len(model.pairs)))
    for t, (mdl, q) in enumerate(zip(model.models, held)):
        f[:, t] = q @ (mdl.alpha * mdl.train_labels) + mdl.bias  # the pair's decision on its own columns
    return _vote(model, f), model, f


def _vote(model: MulticlassModel, decisions: np.ndarray) -> np.ndarray:
    n_cls, n = len(model.class_labels), decisions.shape[0]
    col_of = {c: i for i, c in enumerate(model.class_labels)}
    cols = np.array([[col_of[a], col_of[b]] for a, b in model.pairs], dtype=int).reshape(-1, 2)
    # the (class, row) cell each pair's decision votes for, pairs in order; a weighted bincount
    # adds in input order, so each margin sums its pairs' |decision| in pair order from 0.0
    cell = (np.where(decisions.T > 0, cols[:, 1:], cols[:, :1]) * n + np.arange(n)).ravel()
    votes = np.bincount(cell, minlength=n_cls * n).reshape(n_cls, n)
    margins = np.bincount(cell, np.abs(decisions.T).ravel(), n_cls * n).reshape(n_cls, n)
    # margins are >= 0, so -inf rules out every class short of the most votes
    top = np.argmax(np.where(votes == votes.max(axis=0), margins, -np.inf), axis=0)
    return np.asarray(model.class_labels, dtype=int)[top]


def predict(model: MulticlassModel, rows) -> np.ndarray:
    """Majority vote over pair decisions on a held x fit kernel block, whose columns are
    the model's training points in training order.  Vote ties are broken by the larger
    sum of |decision| over the pairs that voted for the tied class, then by the smaller class id.
    The pair positions cover every training position, so a block not 1 + max(position) wide raises ShapeError."""
    q = np.asarray(rows, dtype=float)
    if q.ndim != 2:
        raise ShapeError(f"expected 2-d kernel rows, got shape {q.shape}")
    width = 1 + max((int(pos.max()) for pos in model.pair_positions if pos.size), default=-1)
    if q.shape[1] != width:
        raise ShapeError(f"kernel block has {q.shape[1]} columns; the model was trained on {width} points")
    return _voted(model, [q[:, pos] for pos in model.pair_positions], q.shape[0])[0]


def fit_predict_rows(gram: GramMatrix, labels, fit_idx, rows, params: SvmParams, seed: int) -> Fitted:
    """Train on gram's fit_idx points through ``train_multiclass`` and predict rows, a held x fit_idx
    kernel block: (predictions, model, decisions), decisions being the held x pairs matrix the vote
    read (column t is model.pairs[t]'s).  Raises NumericalError if any pair model stopped at max_passes."""
    model, q = train_multiclass(gram, labels, fit_idx, params, seed=seed), np.asarray(rows, dtype=float)
    return _voted(model, [q[:, pos] for pos in model.pair_positions], q.shape[0], gram.source_tag)


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


def save_multiclass(path, model: MulticlassModel) -> None:
    _write_file(path, dump_json(multiclass_to_dict(model)))

