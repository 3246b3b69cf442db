"""Independent oracles the tests check the library against.

Nothing here calls into the solver or evolution code paths being verified:
the dual oracles are a grid search and a dense interior-point method, the
expression oracles are plain recursion over scalars, and the tree enumerator
builds the search space directly.
"""

from __future__ import annotations

import itertools

import numpy as np

from kernelforge.expr import Add, Leaf, Mul


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
