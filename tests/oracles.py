"""Independent oracles the tests check the library against.

Nothing here calls into the solver or evolution code paths being verified:
the dual oracles are a grid search and a dense interior-point method, the
Platt-loop reference and the KKT test references (violators, final bias) are
the solver's numpy formulation kept as it was, the expression oracles are
plain recursion over scalars, and the tree enumerator builds the search space
directly.

The references below were public functions of the package that no package path
called; the tests compare against them, and they call only the package's input
checks: ``dual_objective``, the SVM dual; ``decision``, one binary model's
decision values, the formula ``svm._voted`` applies pair by pair;
``check_psd``, a PSD test at an absolute tolerance, which checks a raw array as
a ``GramMatrix`` first (``gram.require_psd`` is the package's own, relative, rule);
and ``load_multiclass``/``multiclass_from_dict``, the reader of the ``model.json``
that ``svm.save_multiclass`` writes, which checks a document with
``kernel_io.check_json``/``parse_json`` and types its file's errors with
``kernel_io.reading``.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from kernelforge.errors import DataError, ParameterError, ShapeError
from kernelforge.expr import Add, Leaf, Mul
from kernelforge.gram import PSD_TOL, GramMatrix
from kernelforge.kernel_io import check_json, parse_json, reading
from kernelforge.svm import MODEL_SCHEMA, MulticlassModel, SvmModel, SvmParams


def dual_objective(kernel: np.ndarray, labels: np.ndarray, alpha: np.ndarray) -> float:
    """sum(alpha) - 1/2 * (alpha*y)' K (alpha*y)."""
    v = alpha * labels
    return float(alpha.sum() - 0.5 * (v @ kernel @ v))


def decision(model: SvmModel, cross_gram) -> np.ndarray:
    """f(q) = sum_i alpha_i y_i K(q, x_i) + bias, one value per query row."""
    q = np.asarray(cross_gram, dtype=float)
    if q.ndim != 2 or q.shape[1] != model.alpha.shape[0]:
        raise ShapeError(
            f"cross kernel has {q.shape} columns; model trained on {model.alpha.shape[0]} points"
        )
    return q @ (model.alpha * model.train_labels) + model.bias


def check_psd(g, tol: float = PSD_TOL) -> bool:
    """True iff the smallest eigenvalue is >= -tol; a raw array is checked as a GramMatrix first."""
    v = (g if isinstance(g, GramMatrix) else GramMatrix(g)).values
    return float(np.linalg.eigvalsh(0.5 * (v + v.T))[0]) >= -tol


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


def load_multiclass(path) -> MulticlassModel:
    with reading(path, "model"):
        return multiclass_from_dict(parse_json(Path(path).read_bytes(), dict, "model"))


def brute_force_dual_max(kernel: np.ndarray, labels: np.ndarray, c: float, final_step: float = 1e-4):
    """Best dual objective by exhaustive grid search with local refinement.

    The last alpha is eliminated through the equality constraint sum(a*y)=0;
    the remaining box is gridded coarsely and the grid is refined around the
    best cell until the step drops below final_step.  The dual is concave, so
    shrinking boxes centered on the running best converge on the optimum.
    """
    kernel = np.asarray(kernel, dtype=float)
    y = np.asarray(labels, dtype=float)
    p = y.size
    free = p - 1

    def objective(alphas: np.ndarray) -> np.ndarray:
        v = alphas * y
        return alphas.sum(axis=1) - 0.5 * np.einsum("ni,ij,nj->n", v, kernel, v)

    def candidates(center: np.ndarray, step: float) -> np.ndarray:
        axes = []
        for d in range(free):
            vals = center[d] + step * np.arange(-5, 6)
            axes.append(np.unique(np.clip(vals, 0.0, c)))
        grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        last = -y[-1] * (grid @ y[:free])
        ok = (last >= -1e-9) & (last <= c + 1e-9)
        grid = grid[ok]
        last = np.clip(last[ok], 0.0, c)
        return np.column_stack([grid, last])

    best_alpha = np.zeros(p)
    best_obj = objective(best_alpha[None, :])[0]
    step = c / 10.0
    center = np.full(free, c / 2.0)
    while True:
        cand = candidates(center, step)
        if cand.size:
            objs = objective(cand)
            top = int(np.argmax(objs))
            if objs[top] > best_obj:
                best_obj = float(objs[top])
                best_alpha = cand[top]
            center = best_alpha[:free]
        if step <= final_step:
            break
        step /= 5.0
    return best_obj, best_alpha


def interior_point_dual_max(kernel: np.ndarray, labels: np.ndarray, c: float, gap_tol: float = 1e-12):
    """Optimum of the SVM dual by a primal-dual interior-point method: (objective, alpha, gap).

    Minimises 1/2 a'Qa - 1'a with Q = (y y') * K over 0 <= a <= c, y'a = 0.
    Each Newton step solves the dense (p+1) x (p+1) system of the barrier KKT
    conditions, so the iteration count hardly depends on c or on the kernel's
    conditioning, where a first-order method would need millions of steps on
    a near-singular Gaussian kernel at c = 100.  ``gap`` is the complementarity
    a'z_lo + (c-a)'z_hi at exit: with the residuals at roundoff it bounds how
    far the objective lies below the optimum.
    """
    k = np.asarray(kernel, dtype=float)
    y = np.asarray(labels, dtype=float)
    p = y.size
    q = np.outer(y, y) * k
    a = np.full(p, c / 2.0)
    z_lo, z_hi, nu = np.ones(p), np.ones(p), 0.0
    for _ in range(200):
        slack = c - a
        gap = a @ z_lo + slack @ z_hi
        grad = q @ a - 1.0 + nu * y
        if gap <= gap_tol * max(1.0, c * p) and np.abs(grad - z_lo + z_hi).max() <= 1e-10 and abs(y @ a) <= 1e-12 * c:
            break
        mu = 0.1 * gap / (2 * p)  # aim a tenth of the way to the central path
        system = np.zeros((p + 1, p + 1))
        system[:p, :p] = q + np.diag(z_lo / a + z_hi / slack)
        system[:p, p] = system[p, :p] = y
        rhs = np.append(-grad + mu / a - mu / slack, -(y @ a))
        step = np.linalg.solve(system, rhs)
        da, dnu = step[:p], step[p]
        dz_lo = mu / a - z_lo - z_lo / a * da
        dz_hi = mu / slack - z_hi + z_hi / slack * da
        # the longest step that keeps a, c - a and both multipliers positive, shortened by 1%
        t = 1.0
        for v, dv in ((a, da), (slack, -da), (z_lo, dz_lo), (z_hi, dz_hi)):
            shrinking = dv < 0
            if shrinking.any():
                t = min(t, 0.99 * float(np.min(-v[shrinking] / dv[shrinking])))
        a, nu = a + t * da, nu + t * dnu
        z_lo, z_hi = z_lo + t * dz_lo, z_hi + t * dz_hi
    else:
        raise RuntimeError("interior-point oracle did not converge")
    v = a * y
    return float(a.sum() - 0.5 * (v @ k @ v)), a, float(gap)


def numpy_violators(alpha, g, b, y, c, tol, eps) -> np.ndarray:
    """The KKT violators as ``svm._violators`` found them on arrays before it moved to lists:
    the positions where y (g + b - y) breaks the condition its alpha's bound sets."""
    e = g + b - y
    r = y * e
    return np.flatnonzero(((r < -tol) & (alpha < c - eps)) | ((r > tol) & (alpha > eps)))


def numpy_final_bias(alpha, g, y, c, eps) -> float:
    """``svm._final_bias`` as it ran on arrays: the mean of y - g over the free points,
    else the midpoint of the interval the bounds allow."""
    free = (alpha > eps) & (alpha < c - eps)
    if free.any():
        return float(np.mean(y[free] - g[free]))
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


def numpy_platt_smo(kernel: np.ndarray, labels: np.ndarray, c: float, kkt_tol: float, max_passes: int, eps: float, rng):
    """Platt's SMO loop on numpy arrays and numpy scalars: (alpha, bias, converged).

    The formulation ``svm.train_binary`` ran before its loop moved to Python
    floats, kept operation for operation as the bitwise reference for that
    loop: the same partner permutations drawn from ``rng``, the same
    vectorised gradient update and the same final bias and KKT test.
    """
    k = np.asarray(kernel, dtype=float)
    y = np.asarray(labels, dtype=float)
    p = y.shape[0]
    alpha = np.zeros(p)
    g = np.zeros(p)
    b = 0.0

    def take_step(i: int, j: int) -> bool:
        nonlocal b, g
        if i == j:
            return False
        ai, aj = alpha[i], alpha[j]
        yi, yj = y[i], y[j]
        ei = g[i] + b - yi
        ej = g[j] + b - yj
        s = yi * yj
        if s < 0:
            lo, hi = max(0.0, aj - ai), min(c, c + aj - ai)
        else:
            lo, hi = max(0.0, ai + aj - c), min(c, ai + aj)
        if lo >= hi:
            return False
        kii, kjj, kij = k[i, i], k[j, j], k[i, j]
        eta = kii + kjj - 2.0 * kij
        if eta > 0:
            aj_new = aj + yj * (ei - ej) / eta
            aj_new = min(hi, max(lo, aj_new))
        else:
            fi = yi * (g[i] - yi) - ai * kii - s * aj * kij
            fj = yj * (g[j] - yj) - s * ai * kij - aj * kjj
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
        g += di * yi * k[:, i] + dj * yj * k[:, j]
        return True

    passes = 0
    examine_all = True
    converged = False
    while passes < max_passes:
        if examine_all:
            candidates = np.arange(p)
        else:
            candidates = np.flatnonzero((alpha > eps) & (alpha < c - eps))
        changed = 0
        for i in candidates:
            ri = y[i] * (g[i] + b - y[i])
            if (ri < -kkt_tol and alpha[i] < c - eps) or (ri > kkt_tol and alpha[i] > eps):
                for j in rng.permutation(p):
                    if take_step(int(i), int(j)):
                        changed += 1
                        break
        passes += 1
        if examine_all:
            if changed == 0:
                b = numpy_final_bias(alpha, g, y, c, eps)
                if numpy_violators(alpha, g, b, y, c, kkt_tol, eps).size == 0:
                    converged = True
                    break
            else:
                examine_all = False
        elif changed == 0:
            examine_all = True

    if not converged:
        b = numpy_final_bias(alpha, g, y, c, eps)
        converged = numpy_violators(alpha, g, b, y, c, kkt_tol, eps).size == 0
    return alpha, b, converged


def enumerate_trees(n: int, max_depth: int) -> list:
    """Every expression tree over n leaves up to max_depth (structural dedup)."""
    levels = [set(Leaf(i) for i in range(n))]
    for _ in range(max_depth - 1):
        grown = set(levels[-1])
        pool = list(levels[-1])
        for a, b in itertools.product(pool, pool):
            grown.add(Add(a, b))
            grown.add(Mul(a, b))
        levels.append(grown)
    return sorted(levels[-1], key=repr)


def eval_expr_scalar(expr, matrices, i: int, j: int) -> float:
    """Entry (i, j) of an evaluated expression, recomputed with scalar arithmetic."""
    if isinstance(expr, Leaf):
        return float(matrices[expr.index][i, j])
    left = eval_expr_scalar(expr.left, matrices, i, j)
    right = eval_expr_scalar(expr.right, matrices, i, j)
    return left + right if isinstance(expr, Add) else left * right


def random_psd(m: int, rng: np.random.Generator, normalized: bool = True) -> np.ndarray:
    """Random PSD matrix A'A, optionally rescaled to unit diagonal."""
    a = rng.standard_normal((m + 2, m))
    k = a.T @ a
    if normalized:
        d = np.sqrt(np.diag(k))
        k = k / np.outer(d, d)
        np.fill_diagonal(k, 1.0)
    return 0.5 * (k + k.T)
