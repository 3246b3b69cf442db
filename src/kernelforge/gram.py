"""Gram-matrix type, Gaussian base kernels, and the entrywise kernel algebra.

Combined kernels are built from base kernels with entrywise sum and entrywise
(Schur) product only: both operations keep a matrix symmetric positive
semidefinite, so anything assembled from PSD inputs stays a legal kernel.
Matrix multiplication would not, which is why it is absent here.

A Gaussian base kernel is unit-diagonal by construction, so ``build_bank``
runs no separate normalize pass.  Its bandwidth defaults to the median
heuristic, taken exactly (the same value as ``np.median``) over the nonzero
pairwise squared distances.  Each view's distances are computed once, in the
array ``x @ x.T`` makes, which serves the bandwidth and then becomes the kernel;
numpy mirrors one triangle of ``x @ x.T``, so the kernel is exactly symmetric.

A kernel is checked in one place, ``GramMatrix._adopt``.  The arrays the package
builds are adopted without a copy; ``GramMatrix(...)`` checks a copy of a caller's
array, and ``check_psd``, ``svm.train_binary`` and ``svm.train_multiclass`` wrap a
raw array so at entry.  A block cut from a checked matrix keeps its check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, ShapeError

SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-8
_ASYMMETRY_STRIP = 64  # rows per strip of the m x m loops here, whose one temporary is B x m


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


def _max_asymmetry(v: np.ndarray) -> float:
    """max |v - v.T| of a square array, 0.0 when it is empty.

    Compares v[s:s+B, s:] with v[s:, s:s+B].T one strip of B rows at a time,
    which covers every pair once, so the one temporary is B x m instead of
    two m x m arrays.
    """
    worst = 0.0
    for s in range(0, v.shape[0], _ASYMMETRY_STRIP):
        d = v[s : s + _ASYMMETRY_STRIP, s:] - v[s:, s : s + _ASYMMETRY_STRIP].T
        worst = np.maximum(worst, np.abs(d, out=d).max())  # a NaN stays NaN
    return float(worst)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric m x m similarity matrix plus a provenance tag.

    Instances are immutable: the array is checked in one pass and marked
    read-only, so it can be shared without defensive copies.  A caller's
    array is copied first; arrays the package builds are adopted (``_adopt``);
    ``restrict`` and ``with_tag`` keep the check and do not run it again.
    """

    values: np.ndarray
    source_tag: str = ""

    def __post_init__(self):  # adopts a private copy of the caller's array
        object.__setattr__(self, "values", self._adopt(np.array(self.values, dtype=float, order="C")).values)

    @classmethod
    def _adopt(cls, values: np.ndarray, tag: str = "") -> "GramMatrix":
        """Check a fresh float array that nothing else writes to and wrap it without copying.
        A non-finite entry makes the asymmetry NaN or inf, so the one pass checks finiteness too."""
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ShapeError(f"gram matrix must be square, got shape {values.shape}")
        with np.errstate(invalid="ignore", over="ignore"):
            worst = _max_asymmetry(values)
        if not worst <= SYMMETRY_TOL:
            if not np.isfinite(values).all():
                raise DataError("gram matrix contains non-finite entries")
            raise ShapeError(f"gram matrix asymmetric beyond {SYMMETRY_TOL}")
        return cls._checked(values, tag)

    @classmethod
    def _checked(cls, values: np.ndarray, tag: str) -> "GramMatrix":
        """Wrap an array known to pass ``_adopt``'s check, read-only, without checking it again."""
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

    def restrict(self, idx) -> "GramMatrix":
        """The idx x idx block under the same tag; out-of-range indices raise IndexError.
        A principal block is finite and no more asymmetric than its parent, so it keeps the check."""
        return self._checked(submatrix(self, idx, idx), self.source_tag)


@dataclass(frozen=True, eq=False)
class KernelBank:
    """Ordered collection of same-sized base kernels, one per descriptor."""

    kernels: tuple[GramMatrix, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        kernels = tuple(self.kernels)
        names = tuple(self.names)
        if len(kernels) < 1:
            raise DataError("kernel bank must hold at least one kernel")
        if len(names) != len(kernels):
            raise DataError("kernel bank needs one name per kernel")
        sizes = {k.size for k in kernels}
        if len(sizes) != 1:
            raise ShapeError(f"kernel bank members disagree on size: {sorted(sizes)}")
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "names", names)

    @property
    def size(self) -> int:
        return self.kernels[0].size

    def __len__(self) -> int:
        return len(self.kernels)

    def __getitem__(self, i: int) -> GramMatrix:
        return self.kernels[i]

    def restrict(self, idx) -> "KernelBank":
        """The bank over the items ``idx`` in that order: each kernel's idx x idx
        block (``GramMatrix.restrict``), which keeps the kernel's check."""
        return KernelBank(tuple(k.restrict(idx) for k in self.kernels), self.names)


def _pairwise_sq_dists(x: np.ndarray, where: str = "feature matrix") -> np.ndarray:
    """||x_i - x_j||^2 as (n_i + n_j) - 2 x_i.x_j, clipped at 0, in the one m x m array ``x @ x.T`` makes.

    No term exceeds 4 max(n), so squared norms above a quarter of the float64
    range raise DataError, naming ``where``, before any term can overflow.
    """
    with np.errstate(over="ignore"):
        n = np.einsum("ij,ij->i", x, x)
    if not n.max() <= np.finfo(float).max / 4:
        raise DataError(f"{where}: feature scale overflows, so it gives no usable bandwidth or kernel")
    sq = x @ x.T
    for s in range(0, sq.shape[0], _ASYMMETRY_STRIP):
        rows = sq[s : s + _ASYMMETRY_STRIP]
        rows *= 2.0
        np.subtract(np.add.outer(n[s : s + _ASYMMETRY_STRIP], n), rows, out=rows)
        np.clip(rows, 0.0, None, out=rows)
    return sq


def _exact_median(a: np.ndarray, skip: int = 0) -> float:
    """np.median of a 1-d array less its ``skip`` smallest entries (one at least is left); partitions ``a``."""
    k = skip + (a.size - skip) // 2
    a.partition(k)
    if (a.size - skip) % 2:
        return float(a[k])
    return float((a[:k].max() + a[k]) / 2.0)


def _median_gamma(sq: np.ndarray, pair: np.ndarray | None = None) -> float:
    """1 / median of the nonzero strict-upper-triangle entries of a distance matrix,
    copied into the scratch ``pair`` (m(m-1)/2 floats) if given; the zeros sort first."""
    m = sq.shape[0]
    pair = np.concatenate([sq[i, i + 1 :] for i in range(m - 1)], out=pair)
    zeros = pair.size - np.count_nonzero(pair)
    if zeros == pair.size:
        raise DataError("all pairwise distances are zero; no usable bandwidth")
    median = _exact_median(pair, zeros)
    gamma = 1.0 / median
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise DataError(f"median pairwise squared distance {median!r} gives no usable bandwidth")
    return gamma


def _gaussian_from_sq(sq: np.ndarray, gamma: float, name: str) -> GramMatrix:
    """exp(-gamma * sq), unit diagonal, in ``sq``'s array, which ``_pairwise_sq_dists`` makes exactly symmetric."""
    if not np.isfinite(gamma) or gamma <= 0:
        raise ParameterError(f"gamma must be positive and finite, got {gamma}")
    with np.errstate(over="ignore"):  # a product past -inf is -inf, and exp(-inf) = 0 is the limit
        np.multiply(sq, -gamma, out=sq)
    g = np.exp(sq, out=sq)
    np.fill_diagonal(g, 1.0)
    return GramMatrix._adopt(g, name)


def gaussian_gram(features, gamma: float, name: str = "") -> GramMatrix:
    """G[i,j] = exp(-gamma * ||x_i - x_j||^2), unit diagonal, PSD."""
    return _gaussian_from_sq(_pairwise_sq_dists(validate_features(features)), gamma, name)


def median_heuristic_gamma(features) -> float:
    """Bandwidth 1 / median of the nonzero pairwise squared distances (the exact median)."""
    return _median_gamma(_pairwise_sq_dists(validate_features(features)))


def _require_same_size(a: GramMatrix, b: GramMatrix) -> None:
    if a.size != b.size:
        raise ShapeError(f"gram size mismatch: {a.size} vs {b.size}")


def add(a: GramMatrix, b: GramMatrix) -> GramMatrix:
    """Entrywise sum; symmetry and PSD are preserved."""
    _require_same_size(a, b)
    return GramMatrix._adopt(a.values + b.values)


def multiply(a: GramMatrix, b: GramMatrix) -> GramMatrix:
    """Entrywise (Schur) product; PSD by the Schur product theorem."""
    _require_same_size(a, b)
    return GramMatrix._adopt(a.values * b.values)


def normalize(g: GramMatrix) -> GramMatrix:
    """Rescale to unit diagonal: G[i,j] / (sqrt(G[i,i]) * sqrt(G[j,j])), computed
    strip by strip in the one new array (the products, then the quotients)."""
    d = np.diag(g.values)
    if np.any(d <= 0):
        raise DataError("cannot normalize a kernel with a nonpositive diagonal entry")
    s = np.sqrt(d)
    v = np.empty_like(g.values)
    for r in range(0, g.size, _ASYMMETRY_STRIP):
        rows = np.multiply.outer(s[r : r + _ASYMMETRY_STRIP], s, out=v[r : r + _ASYMMETRY_STRIP])
        np.divide(g.values[r : r + _ASYMMETRY_STRIP], rows, out=rows)
    np.fill_diagonal(v, 1.0)
    return GramMatrix._adopt(v, g.source_tag)


def check_psd(g, tol: float = PSD_TOL) -> bool:
    """True iff the smallest eigenvalue is >= -tol; a raw array is checked as a GramMatrix first."""
    v = (g if isinstance(g, GramMatrix) else GramMatrix(g)).values
    w = np.linalg.eigvalsh(0.5 * (v + v.T))
    return bool(w[0] >= -tol)


def submatrix(g: GramMatrix, row_idx, col_idx) -> np.ndarray:
    """G[row_idx x col_idx] as a plain array (train x train, test x train blocks)."""
    m = g.size
    rows = np.asarray(row_idx, dtype=int)
    cols = np.asarray(col_idx, dtype=int)
    for name, idx in (("row", rows), ("column", cols)):
        if idx.size and (idx.min() < 0 or idx.max() >= m):
            raise IndexError(f"{name} index out of range for size {m}")
    return g.values[np.ix_(rows, cols)]


def build_bank(feature_sets, names=None, gammas=None) -> tuple[KernelBank, list[float]]:
    """Unit-diagonal Gaussian kernel per descriptor matrix, plus the gammas used.

    gammas may be None (median heuristic per descriptor), a scalar applied to
    all descriptors, or a sequence with one entry per descriptor where None
    entries again fall back to the median heuristic.
    """
    feature_sets = list(feature_sets)
    if names is None:
        names = [f"K{i + 1}" for i in range(len(feature_sets))]
    names = list(names)
    if len(names) != len(feature_sets):
        raise ParameterError("need one name per descriptor matrix")
    if gammas is None or np.isscalar(gammas):
        gammas = [gammas] * len(feature_sets)
    gammas = list(gammas)
    if len(gammas) != len(feature_sets):
        raise ParameterError("need one gamma per descriptor matrix")

    views = [validate_features(x) for x in feature_sets]
    if len({len(x) for x in views}) > 1:  # before any m x m work
        raise ShapeError(f"views disagree on size: {[len(x) for x in views]} rows")

    kernels, used, pair = [], [], None  # pair: the median's scratch, shared by the views
    for i, (x, name, gamma) in enumerate(zip(views, names, gammas)):
        sq = _pairwise_sq_dists(x, f"view {i} ({name})")
        if gamma is None and pair is None:
            pair = np.empty((sq.size - len(sq)) // 2)
        # the bandwidth reads sq before the kernel overwrites it
        g = _median_gamma(sq, pair) if gamma is None else float(gamma)
        kernels.append(_gaussian_from_sq(sq, g, name))
        used.append(g)
    return KernelBank(tuple(kernels), tuple(names)), used
