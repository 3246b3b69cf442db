"""Similarity retrieval over a combined-kernel matrix.

The index holds a unit-diagonal similarity matrix M built from a kernel
expression; a query for item i ranks every other item by M[i, .].  Kernels
are similarity functions, so the default ranking is by descending score; the
inverted ascending rule is available behind order="paper-min".
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError
from .expr import KernelExpr, canonical_string, evaluate, parse_expr
from .gram import GramMatrix, KernelBank, normalize
from .kernel_io import read_kernel, write_kernel

ORDERS = ("similarity", "paper-min")


@dataclass(frozen=True)
class SimilarityIndex:
    matrix: GramMatrix
    item_ids: tuple[str, ...]
    expr: KernelExpr

    def __post_init__(self):
        object.__setattr__(self, "item_ids", tuple(self.item_ids))
        if len(self.item_ids) != self.matrix.size:
            raise DataError(
                f"{len(self.item_ids)} item ids for a {self.matrix.size}x{self.matrix.size} matrix"
            )

    @property
    def size(self) -> int:
        return self.matrix.size


def build_index(expr: KernelExpr, bank: KernelBank, item_ids) -> SimilarityIndex:
    """Evaluate the expression over the bank and normalize to unit diagonal.

    ``normalize`` mirrors its upper triangle, so the matrix is exactly symmetric
    and loads back through ``read_kernel``'s check even when the bank's kernels
    were only within ``SYMMETRY_TOL`` and their products further off."""
    matrix = normalize(evaluate(expr, bank))
    return SimilarityIndex(matrix, tuple(str(v) for v in item_ids), expr)


def query(index: SimilarityIndex, i: int, k: int, order: str = "similarity") -> list[tuple[int, float]]:
    """Top-k items for item i (never i itself), as (item index, score) pairs.

    order="similarity" ranks by descending score, order="paper-min" by
    ascending score; ties break toward the smaller item index either way.
    """
    m = index.size
    if not 0 <= i < m:
        raise ParameterError(f"item index {i} out of range for {m} items")
    if not 1 <= k <= m - 1:
        raise ParameterError(f"k must lie in [1, {m - 1}], got {k}")
    if order not in ORDERS:
        raise ParameterError(f"order must be one of {ORDERS}, got {order!r}")
    row = index.matrix.values[i]
    keys = -row if order == "similarity" else row
    # The k best items other than i lie among the k + 1 smallest keys; keeping
    # every key <= the (k+1)-th smallest keeps all ties at that boundary.
    cut = np.partition(keys, k)[k]
    candidates = np.flatnonzero(keys <= cut)
    ranked = candidates[np.argsort(keys[candidates], kind="stable")]
    ranked = ranked[ranked != i][:k]
    return list(zip(ranked.tolist(), row[ranked].tolist()))


def save_index(path, index: SimilarityIndex) -> None:
    """Kernel binary holding M (named by the expression) plus a .ids sidecar.

    The sidecar holds one id per line, so an empty id or one that
    ``str.splitlines`` would split is rejected before anything is written.
    """
    for v in map(str, index.item_ids):
        if v.splitlines() != [v]:
            raise DataError(f"item id {v!r} cannot be stored one per line")
    path = Path(path)
    write_kernel(path, index.matrix.with_tag(canonical_string(index.expr)))
    sidecar = path.with_name(path.name + ".ids")
    sidecar.write_text("".join(f"{v}\n" for v in index.item_ids), encoding="utf-8")


def load_index(path) -> SimilarityIndex:
    path = Path(path)
    matrix = read_kernel(path)
    sidecar = path.with_name(path.name + ".ids")
    if not sidecar.exists():
        raise DataError(f"missing item-id sidecar {sidecar}")
    ids = [line for line in sidecar.read_text(encoding="utf-8").splitlines() if line]
    expr = parse_expr(matrix.source_tag)
    return SimilarityIndex(matrix, tuple(ids), expr)
