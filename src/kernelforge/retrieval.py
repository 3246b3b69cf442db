"""Similarity retrieval over a combined-kernel matrix.

The index holds a unit-diagonal similarity matrix M built from a kernel
expression; a query for item i ranks every other item by M[i, .].  Kernels
are similarity functions, so the default ranking is by descending score; the
inverted ascending rule is available behind order="paper-min".
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError
from .expr import KernelExpr, _folded, canonical_string, parse_expr
from .gram import GramMatrix, KernelBank, _normalized
from .kernel_io import _write_file, read_kernel, reading, write_kernel

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
    """Evaluate the expression over the bank and normalize to unit diagonal, in
    the one m x m array the fold made (a bare leaf, the bank's own array, is copied).

    ``normalize``'s strips mirror the upper triangle, so the matrix is exactly
    symmetric and loads back through ``read_kernel``'s check even when the bank's
    kernels were only within ``SYMMETRY_TOL`` and their products further off."""
    tag = canonical_string(expr)
    values = _folded(expr, [k.values for k in bank.kernels], tag)
    if not values.flags.writeable:
        values = values.copy()
    return SimilarityIndex(_normalized(values, values, tag), tuple(map(str, item_ids)), expr)


def query(index: SimilarityIndex, i: int, k: int, order: str = "similarity") -> list[tuple[int, float]]:
    """Top-k items for item i (never i itself), as (item index, score) pairs.

    order="similarity" ranks by descending score, order="paper-min" by
    ascending score; ties break toward the smaller item index either way.  The
    scores are the row's own floats, so a -0.0 stays -0.0.  i and k are Python or
    numpy integers; a bool, a float or anything else is a ParameterError.

    One query costs one copy of the row, as sort keys, partitioned in place at
    k, then one pass over the row for the candidates: every item whose key is
    at most the (k+1)-th smallest, ties at that cut included.  Only those are
    stable-sorted, so the answer equals a full sort's bit for bit.
    """
    values = index.matrix.values
    m = len(values)
    _require_integer(i, "item index")
    _require_integer(k, "k")
    if not 0 <= i < m:
        raise ParameterError(f"item index {i} out of range for {m} items")
    if not 1 <= k <= m - 1:
        raise ParameterError(f"k must lie in [1, {m - 1}], got {k}")
    if order not in ORDERS:
        raise ParameterError(f"order must be one of {ORDERS}, got {order!r}")
    row = values[i]
    descending = order == "similarity"
    keys = np.negative(row) if descending else row.copy()
    # The k best items other than i lie among the k + 1 smallest keys; keeping
    # every key <= the (k+1)-th smallest keeps all ties at that boundary.  The
    # partition reorders the keys, so the pass reads the row: negation is exact,
    # so -row <= cut is row >= -cut.
    keys.partition(k)
    cut = keys.item(k)
    hits = (row >= -cut if descending else row <= cut).nonzero()[0]
    scores = row[hits]
    ranked = (-scores if descending else scores).argsort(kind="stable")
    items, scores = hits[ranked].tolist(), scores[ranked].tolist()
    if i in items:
        at = items.index(i)
        del items[at], scores[at]
    return list(zip(items[:k], scores[:k]))


def _require_integer(v, what: str) -> None:
    """ParameterError unless v is a Python or numpy integer; a bool is not one."""
    if type(v) is not int and (isinstance(v, bool) or not isinstance(v, np.integer)):
        raise ParameterError(f"{what} must be an integer, got {v!r}")


def save_index(path, index: SimilarityIndex) -> None:
    """Kernel binary holding M (named by the expression) plus a .ids sidecar.

    The sidecar holds one id per line, so an empty id or one that
    ``str.splitlines`` would split is rejected before anything is written.
    """
    path = Path(path)
    lines = _id_lines(index.item_ids)
    write_kernel(path, index.matrix.with_tag(canonical_string(index.expr)))
    _write_file(path.with_name(path.name + ".ids"), lines)


def _id_lines(item_ids) -> str:
    """The ids one per line, each ending in a newline, checked in one pass: the text splits back into
    exactly the ids only if none holds a line boundary, and none may be empty.  The per-id loop runs
    only to name the first id that fails."""
    ids = list(map(str, item_ids))
    text = "\n".join(ids) + "\n"
    if text.splitlines() != ids or "" in ids:
        bad = next(v for v in ids if v.splitlines() != [v])
        raise DataError(f"item id {bad!r} cannot be stored one per line")
    return text


def load_index(path) -> SimilarityIndex:
    """The index saved at path: the kernel file, then its ``.ids`` sidecar, each read through one unbuffered open."""
    matrix = read_kernel(path)
    with reading(path, "index"):
        expr = parse_expr(matrix.source_tag)
    sidecar = os.fspath(path) + ".ids"
    with reading(sidecar, "item-id sidecar"), open(sidecar, "rb", buffering=0) as fh:
        ids = [line for line in fh.read().decode("utf-8").splitlines() if line]
        return SimilarityIndex(matrix, tuple(ids), expr)
