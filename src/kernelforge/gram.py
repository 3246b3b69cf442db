"""Gram-matrix type, Gaussian base kernels, and the entrywise kernel algebra.

Combined kernels are built from base kernels with entrywise sum and entrywise
(Schur) product only: both operations keep a matrix symmetric positive
semidefinite, so anything assembled from PSD inputs stays a legal kernel.
Matrix multiplication would not, which is why it is absent here.

A Gaussian base kernel is unit-diagonal by construction, so ``build_bank``
runs no separate normalize pass.  Its bandwidth defaults to the median
heuristic, taken exactly (the same value as ``np.median``) over the nonzero
pairwise squared distances.  Each view's distances are computed once, in an
m x m array that ``np.matmul(x, x.T, out=...)`` fills, which serves the
bandwidth and then becomes the kernel; numpy mirrors one triangle of
``x @ x.T``, so the kernel is exactly symmetric.

The views are independent, so from ``_POOL_MIN_ITEMS`` items up ``build_bank``
builds them on a thread pool of min(views, usable CPUs) workers; below that
size, starting the threads costs more than the second core saves, and the same
per-view function runs in a plain loop.  Every array that outlives a view is
allocated on the calling thread, so that no worker's own malloc arena keeps the
memory once it is freed: the kernels, and one scratch per worker (two B x m
tiles for the distances, then the median's m(m-1)/2 copy).  A bank's kernels
are one (views, m, m) block, and the scratches the rows of one array: each is
one allocation, which numpy advises for huge pages from 4 MB up: at m = 990,
six views on two workers, a build faulted in about 250 pages, against about
4700 with an array per kernel and per worker (Linux, transparent huge pages on
madvise).  Each kernel is a read-only view of the block, and the block is made
read-only once the pool has joined, so a kernel kept without its bank keeps the
whole block alive.  The workers run no per-row Python code, which would hold
the GIL: their loops step over strips of B rows, each a few numpy calls.  A
view's bits do not depend on the path or on how many workers run, since each
view is computed by the same calls on its own arrays; they do depend on how
many threads BLAS splits ``x @ x.T`` over.

A kernel is checked (square, finite, symmetric to ``SYMMETRY_TOL``) only where it
enters the package: ``GramMatrix(...)`` and ``kernel_io.read_kernel``.  The scan
(``_max_asymmetry``) steps over strips of B rows (``_strips_max``).  It copies each
strip's transposed block once into a contiguous tile, and reduces only the strips
whose difference is not all zeros, so an exactly symmetric kernel, as every file the
package writes is, costs about one pass over it.  ``GramMatrix(...)`` scans on the
calling thread; ``read_kernel``, from ``kernel_io._SPLIT_MIN_ITEMS`` items up, on it
and one helper thread, which take alternate strips, with both tiles allocated on the
caller.  The larger of the two partial maxima is the serial value bit for bit, so
every verdict and message is the same on either path.  The kernels derived from
checked ones are symmetric by construction and not scanned again; an overflow or
invalid operation, their one way to a non-finite entry, raises DataError as it
happens (``_stays_finite``).  A kernel file loaded into a bank must also be PSD
(``require_psd``), which a Cholesky factorisation certifies before an eigensolver is
asked.  No ufunc here reads a transposed operand: numpy 2.4.6 allocates a 64 KB
iterator buffer per call for each operand it cannot step through in one stride, and
the scan's subtraction of a strip's rows and their transposed mirror took 128 KB.
The scan's tiles and ``require_psd``'s symmetrised copies (``_symmetrised``) copy
the transpose first (``tests/test_solver_structure.py``).  ``_checked_ids`` is
the one range check of item ids, for ``submatrix``, ``gp.SplitFitness`` and
``svm.train_multiclass``, which gather from the kernel.
"""

from __future__ import annotations

import contextvars
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DataError, ParameterError, ShapeError

SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-8
_ASYMMETRY_STRIP = 64  # B, the rows per strip of the m x m loops here, whose temporaries are B x m
_STRICT_LOWER = np.tri(_ASYMMETRY_STRIP, k=-1, dtype=bool)  # the part of a strip's diagonal block below it
_STRICT_UPPER = _STRICT_LOWER.T  # and the part above it
# build_bank's pool starts here (6 views of 2 features on 2 cores: a tie at m = 256-320, the pool 10 % faster at 400)
_POOL_MIN_ITEMS = 384


def validate_features(features) -> np.ndarray:
    """Check an (items x dims) feature matrix and return it as float64."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"feature matrix must be 2-d, got shape {x.shape}")
    m, d = x.shape
    if m < 2:
        raise DataError(f"feature matrix needs at least 2 rows, got {m}")
    if d < 1:
        raise DataError("feature matrix needs at least 1 column")
    if not np.isfinite(x).all():
        raise DataError("feature matrix contains non-finite values")
    return x


def _max_asymmetry(v: np.ndarray, pool: ThreadPoolExecutor | None = None) -> float:
    """max |v - v.T| of a square array, 0.0 when it is empty.

    The strips of B rows (``_strips_max``) cover every pair once.  With a
    ``pool``, one of its threads scans the odd strips while the caller scans the
    even ones, and the larger of the two partial maxima, NaN if either is, is the
    serial value bit for bit.  The tiles, one per thread, are allocated here on
    the calling thread.
    """
    m = v.shape[0]
    tile = min(_ASYMMETRY_STRIP, m) * m
    if pool is None:
        return _strips_max(v, range(0, m, _ASYMMETRY_STRIP), np.empty(tile))
    mine, theirs = np.empty((2, tile))
    odd, even = range(_ASYMMETRY_STRIP, m, 2 * _ASYMMETRY_STRIP), range(0, m, 2 * _ASYMMETRY_STRIP)
    helper = pool.submit(contextvars.copy_context().run, _strips_max, v, odd, theirs)  # with the caller's np.errstate
    worst = _strips_max(v, even, mine)
    return float(np.maximum(worst, helper.result()))


def _strips_max(v: np.ndarray, starts: range, tile: np.ndarray) -> float:
    """max |v[s:s+B, s:] - v[s:, s:s+B].T| over the strips that begin at ``starts``.

    Each strip's transposed block is copied once into the contiguous ``tile``
    (B x m floats), and the strip's difference is taken there, so the
    subtraction reads no transposed operand.  A strip whose difference is all
    zeros is exactly symmetric and adds nothing to the maximum, so only a strip
    with a nonzero, NaN or infinite difference (an inf pair gives inf - inf =
    NaN) is reduced: an exactly symmetric kernel, as every file the package
    writes is, costs one copy, one subtraction and one test per strip.
    """
    worst = 0.0
    for s in starts:
        rows = v[s : s + _ASYMMETRY_STRIP, s:]
        d = tile[: rows.size].reshape(rows.shape)
        np.copyto(d, v[s:, s : s + _ASYMMETRY_STRIP].T)
        np.subtract(rows, d, out=d)
        if d.any():
            worst = np.maximum(worst, np.abs(d, out=d).max())  # a NaN stays NaN
    return float(worst)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric m x m similarity matrix plus a provenance tag.

    Instances are immutable: the read-only array is shared without defensive copies.
    A caller's array is copied and checked in one pass; derived kernels are not scanned.
    """

    values: np.ndarray
    source_tag: str = ""

    def __post_init__(self):  # adopts a private copy of the caller's array
        object.__setattr__(self, "values", self._adopt(np.array(self.values, dtype=float, order="C")).values)

    @classmethod
    def _adopt(cls, values: np.ndarray, tag: str = "", pool: ThreadPoolExecutor | None = None) -> "GramMatrix":
        """Check a fresh float array that nothing else writes to and wrap it without copying, scanning it on
        ``pool``'s thread too if one is given.  A non-finite entry makes the asymmetry NaN or inf, so the one
        pass checks finiteness too."""
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ShapeError(f"gram matrix must be square, got shape {values.shape}")
        if values.size == 0:
            raise ShapeError("gram matrix must hold at least one item")
        with np.errstate(invalid="ignore", over="ignore"):
            worst = _max_asymmetry(values, pool)
        if not worst <= SYMMETRY_TOL:
            if not np.isfinite(values).all():
                raise DataError("gram matrix contains non-finite entries")
            raise ShapeError(f"gram matrix asymmetric beyond {SYMMETRY_TOL}")
        return cls._checked(values, tag)

    @classmethod
    def _checked(cls, values: np.ndarray, tag: str = "") -> "GramMatrix":
        """Wrap, read-only and unscanned, an array ``_adopt`` checked or one derived from checked kernels."""
        values.flags.writeable = False
        g = object.__new__(cls)
        object.__setattr__(g, "values", values)
        object.__setattr__(g, "source_tag", tag)
        return g

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def with_tag(self, tag: str) -> "GramMatrix":
        """The same read-only array under another tag; nothing is checked or copied again."""
        return self._checked(self.values, tag)


@dataclass(frozen=True, eq=False)
class KernelBank:
    """Ordered collection of same-sized base kernels, one per descriptor, each named by its ``source_tag``."""

    kernels: tuple[GramMatrix, ...]

    def __post_init__(self):
        kernels = tuple(self.kernels)
        if len(kernels) < 1:
            raise DataError("kernel bank must hold at least one kernel")
        sizes = {k.size for k in kernels}
        if len(sizes) != 1:
            raise ShapeError(f"kernel bank members disagree on size: {sorted(sizes)}")
        object.__setattr__(self, "kernels", kernels)

    @property
    def size(self) -> int:
        return self.kernels[0].size

    def __len__(self) -> int:
        return len(self.kernels)

    def __getitem__(self, i: int) -> GramMatrix:
        return self.kernels[i]


@contextmanager
def _stays_finite(what: str):
    """Turn an overflow, division by zero or invalid operation in the block into DataError."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise DataError(f"{what} is non-finite: {exc}") from exc


def _pairwise_sq_dists(x: np.ndarray, where: str, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """||x_i - x_j||^2 as (n_i + n_j) - 2 x_i.x_j, clipped at 0, written into ``out``.

    The caller allocates ``out`` (m x m), which ``np.matmul(x, x.T, out=out)``
    fills with the same bits as ``x @ x.T``, and the flat ``scratch``, which holds
    two B x m tiles: n_j in every row, and each strip's n_i + n_j.  A ufunc that
    broadcasts allocates buffers, so no ufunc here broadcasts, and a worker thread
    allocates nothing of size B x m or more.  No term exceeds 4 max(n), so
    squared norms above a quarter of the float64 range raise DataError, naming
    ``where``, before any term can overflow.
    """
    with np.errstate(over="ignore"):
        n = np.einsum("ij,ij->i", x, x)
    if not n.max() <= np.finfo(float).max / 4:
        raise DataError(f"{where}: feature scale overflows, so it gives no usable bandwidth or kernel")
    sq = np.matmul(x, x.T, out=out)
    m = len(n)
    b = min(_ASYMMETRY_STRIP, m)
    sums, n_j = scratch[: b * m].reshape(b, m), scratch[b * m : 2 * b * m].reshape(b, m)
    np.copyto(n_j, n)
    for s in range(0, m, b):
        rows = sq[s : s + b]
        rows *= 2.0
        strip = sums[: len(rows)]
        np.copyto(strip, n[s : s + b, None])
        np.add(strip, n_j[: len(rows)], out=strip)
        np.subtract(strip, rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
    return sq


def _exact_median(a: np.ndarray, skip: int = 0) -> float:
    """np.median of a 1-d array less its ``skip`` smallest entries (one at least is left); partitions ``a``."""
    k = skip + (a.size - skip) // 2
    a.partition(k)
    if (a.size - skip) % 2:
        return float(a[k])
    return float((a[:k].max() + a[k]) / 2.0)


def _median_gamma(sq: np.ndarray, scratch: np.ndarray, where: str) -> float:
    """1 / median of the nonzero strict-upper-triangle entries of a distance matrix.

    The entries are copied into the first m(m-1)/2 floats of the caller's
    ``scratch`` in two numpy calls per strip of B rows: the rectangle right of
    the strip's B x B diagonal block, then the block's strict upper part through
    one fixed mask.  The order of the copy differs from the triangle's row order,
    but the median is a selection over the same entries, so its bits do not
    depend on it; the zeros sort first there.  A bandwidth that cannot be used
    raises DataError naming ``where``.
    """
    m = sq.shape[0]
    pair = scratch[: m * (m - 1) // 2]
    at = 0
    for s in range(0, m, _ASYMMETRY_STRIP):
        e = min(s + _ASYMMETRY_STRIP, m)
        right = sq[s:e, e:]
        np.copyto(pair[at : at + right.size].reshape(right.shape), right)
        at += right.size
        upper = sq[s:e, s:e][_STRICT_UPPER[: e - s, : e - s]]
        pair[at : at + upper.size] = upper
        at += upper.size
    zeros = pair.size - np.count_nonzero(pair)
    if zeros == pair.size:
        raise DataError(f"{where}: all pairwise distances are zero; no usable bandwidth")
    median = _exact_median(pair, zeros)
    gamma = 1.0 / median
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise DataError(f"{where}: median pairwise squared distance {median!r} gives no usable bandwidth")
    return gamma


def _gaussian_from_sq(sq: np.ndarray, gamma: float, name: str) -> GramMatrix:
    """exp(-gamma * sq), in [0, 1] with unit diagonal, in ``sq``'s array, which is exactly symmetric."""
    if not np.isfinite(gamma) or gamma <= 0:
        raise ParameterError(f"gamma must be positive and finite, got {gamma}")
    with np.errstate(over="ignore"):  # a product past -inf is -inf, and exp(-inf) = 0 is the limit
        np.multiply(sq, -gamma, out=sq)
    g = np.exp(sq, out=sq)
    g.ravel()[:: len(g) + 1] = 1.0  # a view of its diagonal: sq is C-contiguous
    return GramMatrix._checked(g, name)


def _entrywise(op, a: GramMatrix, b: GramMatrix, what: str) -> GramMatrix:
    if a.size != b.size:
        raise ShapeError(f"gram size mismatch: {a.size} vs {b.size}")
    with _stays_finite(what):
        return GramMatrix._checked(op(a.values, b.values))


def add(a: GramMatrix, b: GramMatrix) -> GramMatrix:
    """Entrywise sum; symmetry and PSD are preserved."""
    return _entrywise(np.add, a, b, "sum")


def multiply(a: GramMatrix, b: GramMatrix) -> GramMatrix:
    """Entrywise (Schur) product; PSD by the Schur product theorem."""
    return _entrywise(np.multiply, a, b, "product")


def normalize(g: GramMatrix) -> GramMatrix:
    """Rescale to unit diagonal: G[i,j] / (sqrt(G[i,i]) * sqrt(G[j,j])), in one new array.

    Only the upper triangle is computed; each strip is then mirrored below the
    diagonal, so the result is exactly symmetric even where G is not quite.  On a
    symmetric G this gives the same bits as computing every entry.
    """
    return _normalized(g.values, np.empty_like(g.values), g.source_tag)


def _normalized(values: np.ndarray, out: np.ndarray, tag: str) -> GramMatrix:
    """``normalize`` of ``values`` written into ``out``, which may be ``values`` itself.

    Strip by strip: the products of the square roots of rows r:e and columns r:
    and then their quotients go to one contiguous (e - r) x (m - r) scratch, which
    is copied to ``out``'s upper triangle and then mirrored.  The division writes to
    contiguous memory, for which numpy's iterator allocates smaller buffers than for
    ``out``'s strided rows.  In place this is safe, since a strip
    reads only the upper triangle of rows not yet written.
    """
    d = np.diag(values)
    if np.any(d <= 0):
        raise DataError("cannot normalize a kernel with a nonpositive diagonal entry")
    s = np.sqrt(d)
    m = len(values)
    scratch = np.empty(min(_ASYMMETRY_STRIP, m) * m)
    with _stays_finite(f"normalized kernel {tag!r}"):
        for r in range(0, m, _ASYMMETRY_STRIP):
            e = min(r + _ASYMMETRY_STRIP, m)
            q = np.multiply.outer(s[r:e], s[r:], out=scratch[: (e - r) * (m - r)].reshape(e - r, m - r))
            out[r:e, r:] = np.divide(values[r:e, r:], q, out=q)
            out[e:, r:e] = out[r:e, e:].T
            # within the diagonal block a transposed assignment would swap the
            # two triangles, so only its strict lower triangle is written
            block = out[r:e, r:e]
            np.copyto(block, block.T, where=_STRICT_LOWER[: e - r, : e - r])
    np.fill_diagonal(out, 1.0)
    return GramMatrix._checked(out, tag)


def require_psd(g: GramMatrix, what: str) -> None:
    """The one PSD rule: the smallest eigenvalue is at least -``PSD_TOL`` times the largest
    diagonal entry, a tolerance relative to the kernel's scale since an eigensolver's
    rounding grows with it; a kernel that fails is a DataError naming ``what`` and its
    smallest eigenvalue.

    A Cholesky factorisation certifies it at a fraction of an eigensolver's cost: the
    symmetrised copy 0.5 (G + G.T) (``_symmetrised``), with delta = ``PSD_TOL`` times the largest diagonal
    entry added to its diagonal in place, factors only if its smallest eigenvalue is
    above -delta, up to the factorisation's rounding.  When it does not factor, the
    smallest eigenvalue of a fresh symmetrised copy decides, as without the
    certificate, and names the failure.  So only a kernel whose smallest eigenvalue
    lies within Cholesky's rounding of the floor can get another verdict than from
    the eigenvalue alone.
    """
    floor = -PSD_TOL * float(g.values.diagonal().max())
    shifted = _symmetrised(g.values)
    shifted.ravel()[:: len(shifted) + 1] -= floor  # a view of its diagonal
    try:
        np.linalg.cholesky(shifted)
        return
    except np.linalg.LinAlgError:
        del shifted  # freed before the eigensolver's copy is made
    low = float(np.linalg.eigvalsh(_symmetrised(g.values))[0])
    if not low >= floor:
        raise DataError(f"{what} is not positive semidefinite: smallest eigenvalue {low:.6g} is below {floor:.6g}")


def _symmetrised(v: np.ndarray) -> np.ndarray:
    """0.5 (v.T + v) in one new array: a contiguous copy of v.T, to which v is added in place, so no ufunc
    reads a transposed operand.  Addition commutes, so this is 0.5 (v + v.T) bit for bit."""
    out = v.T.copy()
    np.add(out, v, out=out)
    out *= 0.5
    return out


def _checked_ids(idx, m: int, name: str) -> np.ndarray:
    """Item ids as an int array, each in [0, m), or IndexError naming them, so a negative id cannot wrap."""
    ids = np.asarray(idx, dtype=int)
    if ids.size and (ids.min() < 0 or ids.max() >= m):
        raise IndexError(f"{name} index out of range for size {m}")
    return ids


def submatrix(g: GramMatrix, row_idx, col_idx) -> np.ndarray:
    """G[row_idx x col_idx] as a plain array (train x train, test x train blocks)."""
    return g.values[np.ix_(_checked_ids(row_idx, g.size, "row"), _checked_ids(col_idx, g.size, "column"))]


def build_bank(feature_sets, names=None, gammas=None) -> tuple[KernelBank, list[float]]:
    """Unit-diagonal Gaussian kernel per descriptor matrix, plus the gammas used.

    gammas may be None (median heuristic per descriptor), a scalar applied to
    all descriptors, or a sequence with one entry per descriptor where None
    entries again fall back to the median heuristic.  From ``_POOL_MIN_ITEMS``
    items up the views are built on worker threads, with the same bits; an error
    is the first failing view's, as in the loop.  The kernels are read-only views
    of one (views, m, m) block.
    """
    feature_sets = list(feature_sets)
    names = [f"K{i + 1}" for i in range(len(feature_sets))] if names is None else list(names)
    if len(names) != len(feature_sets):
        raise ParameterError("need one name per descriptor matrix")
    if gammas is None or np.isscalar(gammas):
        gammas = [gammas] * len(feature_sets)
    gammas = list(gammas)
    if len(gammas) != len(feature_sets):
        raise ParameterError("need one gamma per descriptor matrix")

    views = [validate_features(x) for x in feature_sets]
    if not views:
        raise DataError("need at least one descriptor matrix")
    if len({len(x) for x in views}) > 1:  # before any m x m work
        raise ShapeError(f"views disagree on size: {[len(x) for x in views]} rows")

    m = len(views[0])
    workers = min(len(views), _usable_cpus()) if m >= _POOL_MIN_ITEMS else 1
    # every array that outlives a view is allocated here, on the calling thread: the
    # kernels, as one (views, m, m) block, and one scratch per worker, as the rows of
    # one array, for two B x m tiles and the median's m(m-1)/2 copy
    block = np.empty((len(views), m, m))
    size = m * (m - 1) // 2 if any(g is None for g in gammas) else 0
    scratches = queue.SimpleQueue()
    for scratch in np.empty((workers, max(size, 2 * min(_ASYMMETRY_STRIP, m) * m))):
        scratches.put(scratch)
    jobs = (range(len(views)), views, names, gammas, block, repeat(scratches))
    if workers == 1:
        built = list(map(_gaussian_view, *jobs))
    else:
        # results and errors come back in view order; the threads are joined
        # before the first error is raised; a caller's np.errstate reaches each job
        with ThreadPoolExecutor(workers) as pool:
            contexts = [contextvars.copy_context() for _ in views]
            built = list(pool.map(contextvars.Context.run, contexts, repeat(_gaussian_view), *jobs))
    block.flags.writeable = False  # each kernel is a read-only view of it
    kernels, used = zip(*built)
    return KernelBank(kernels), list(used)


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _gaussian_view(i: int, x: np.ndarray, name: str, gamma, out: np.ndarray, scratches: queue.SimpleQueue):
    """View i's Gaussian kernel, built in ``out``, and its gamma (the median
    heuristic's when ``gamma`` is None), with a scratch taken from ``scratches``
    and put back.  The pool's workers run this, so it calls only private
    helpers, none of which the benchmark's tracer wraps."""
    where = f"view {i} ({name})"
    scratch = scratches.get()
    try:
        sq = _pairwise_sq_dists(x, where, out, scratch)
        # the bandwidth reads sq before the kernel overwrites it
        g = _median_gamma(sq, scratch, where) if gamma is None else float(gamma)
        return _gaussian_from_sq(sq, g, name), g
    finally:
        scratches.put(scratch)
