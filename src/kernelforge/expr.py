"""Kernel-combination expression trees.

A chromosome is a binary tree whose leaves reference base kernels by index and
whose internal nodes are entrywise + or *.  Trees print as prefix strings with
1-based kernel names, e.g. ``(+ (* K1 K1) K5)``; the canonical form orders the
children of the commutative operators lexicographically.

Every recursion here is a module-level function that takes what it reads as
arguments.  A nested function that calls itself holds itself through its
closure cell, so each call would leave a reference cycle that keeps everything
the closure captured (for ``evaluate``, the whole kernel bank) alive until
Python's cyclic collector happens to run; a dropped bank is freed at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DataError, ExprSyntaxError
from .gram import GramMatrix, KernelBank, _stays_finite

MAX_PARSE_DEPTH = 200  # deepest tree parse_expr reads: far above the search's, far below the recursion limit


@dataclass(frozen=True)
class Leaf:
    index: int


@dataclass(frozen=True)
class Add:
    left: "KernelExpr"
    right: "KernelExpr"


@dataclass(frozen=True)
class Mul:
    left: "KernelExpr"
    right: "KernelExpr"


KernelExpr = Union[Leaf, Add, Mul]


def depth(expr: KernelExpr) -> int:
    """Longest root-to-leaf path, counting nodes (a bare leaf has depth 1)."""
    if isinstance(expr, Leaf):
        return 1
    return 1 + max(depth(expr.left), depth(expr.right))


def node_count(expr: KernelExpr) -> int:
    if isinstance(expr, Leaf):
        return 1
    return 1 + node_count(expr.left) + node_count(expr.right)


def iter_nodes(expr: KernelExpr) -> list[tuple[KernelExpr, int]]:
    """Preorder (node, depth-of-node) pairs; the node's preorder index is the list position."""
    out: list[tuple[KernelExpr, int]] = []
    _walk(expr, 1, out)
    return out


def _walk(node: KernelExpr, d: int, out: list) -> None:
    out.append((node, d))
    if not isinstance(node, Leaf):
        _walk(node.left, d + 1, out)
        _walk(node.right, d + 1, out)


def subtree_at(expr: KernelExpr, pos: int) -> KernelExpr:
    nodes = iter_nodes(expr)
    if not 0 <= pos < len(nodes):
        raise IndexError(f"node position {pos} out of range for {len(nodes)} nodes")
    return nodes[pos][0]


def replace_at(expr: KernelExpr, pos: int, replacement: KernelExpr) -> KernelExpr:
    """Copy of expr with the subtree at preorder position pos swapped out."""
    if not 0 <= pos < node_count(expr):
        raise IndexError(f"node position {pos} out of range")
    return _rebuild(expr, 0, pos, replacement)[0]


def _rebuild(node: KernelExpr, here: int, pos: int, replacement: KernelExpr) -> tuple[KernelExpr, int]:
    """(copy of node, which sits at preorder position here, with the subtree at pos
    swapped out; the preorder position just past node)."""
    if here == pos:
        return replacement, here + node_count(node)
    if isinstance(node, Leaf):
        return node, here + 1
    left, nxt = _rebuild(node.left, here + 1, pos, replacement)
    right, nxt = _rebuild(node.right, nxt, pos, replacement)
    return type(node)(left, right), nxt


def canonical_string(expr: KernelExpr) -> str:
    """Prefix form with commutative children in lexicographic order."""
    if isinstance(expr, Leaf):
        return f"K{expr.index + 1}"
    a = canonical_string(expr.left)
    b = canonical_string(expr.right)
    if b < a:
        a, b = b, a
    op = "+" if isinstance(expr, Add) else "*"
    return f"({op} {a} {b})"


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()+*":
            tokens.append((ch, i))
            i += 1
        elif ch == "K":
            j = i + 1
            while j < len(text) and text[j] in "0123456789":
                j += 1
            if j == i + 1:
                raise ExprSyntaxError("kernel name needs digits after 'K'", i)
            tokens.append((text[i:j], i))
            i = j
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def parse_expr(text: str) -> KernelExpr:
    """Parse a prefix kernel expression like '(+ (* K1 K1) K5)', at most MAX_PARSE_DEPTH deep."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExprSyntaxError("empty expression", 0)
    expr, end = _parse(tokens, 0, len(text))
    if end != len(tokens):
        raise ExprSyntaxError("trailing input after expression", tokens[end][1])
    return expr


def _parse(tokens: list[tuple[str, int]], at: int, end: int, level: int = 1) -> tuple[KernelExpr, int]:
    """(the expression starting at token at, the token index after it); end is the text length, level its depth."""
    if at >= len(tokens):
        raise ExprSyntaxError("unexpected end of expression", end)
    tok, pos = tokens[at]
    if tok.startswith("K"):
        try:
            index = int(tok[1:]) - 1
        except ValueError:  # more digits than int() converts
            raise ExprSyntaxError(f"kernel index of {len(tok) - 1} digits is too long", pos) from None
        if index < 0:
            raise ExprSyntaxError("kernel names are 1-based", pos)
        return Leaf(index), at + 1
    if tok != "(":
        raise ExprSyntaxError(f"expected '(' or kernel name, got {tok!r}", pos)
    if level == MAX_PARSE_DEPTH:
        raise ExprSyntaxError(f"expression deeper than {MAX_PARSE_DEPTH}", pos)
    if at + 1 >= len(tokens):
        raise ExprSyntaxError("missing operator after '('", pos)
    op, op_pos = tokens[at + 1]
    if op not in "+*":
        raise ExprSyntaxError(f"expected '+' or '*', got {op!r}", op_pos)
    left, nxt = _parse(tokens, at + 2, end, level + 1)
    right, nxt = _parse(tokens, nxt, end, level + 1)
    if nxt >= len(tokens) or tokens[nxt][0] != ")":
        where = tokens[nxt][1] if nxt < len(tokens) else end
        raise ExprSyntaxError("expected ')'", where)
    node = Add(left, right) if op == "+" else Mul(left, right)
    return node, nxt + 1


def evaluate(expr: KernelExpr, bank: KernelBank) -> GramMatrix:
    """Fold the tree over the bank's raw arrays and wrap the result once, unscanned.

    Sums and products write into an operand the fold made, if any (the bank's arrays
    are read-only); an overflow or invalid operation in the fold raises DataError.
    A bare leaf is the bank's own array under the canonical tag.
    """
    tag = canonical_string(expr)
    return GramMatrix._checked(_folded(expr, [k.values for k in bank.kernels], tag), tag)


def _folded(expr: KernelExpr, arrays, tag: str) -> np.ndarray:
    """The tree folded over ``arrays``, a bank's read-only kernels or the same block of each (the same
    block of the whole fold, bit for bit: + and * act entry by entry); writable exactly when the fold made it."""
    with _stays_finite(tag):
        return _fold(expr, arrays)


def _fold(node: KernelExpr, arrays) -> np.ndarray:
    """The node's array; the arrays the fold made are the writable ones."""
    if isinstance(node, Leaf):
        if not 0 <= node.index < len(arrays):
            raise DataError(f"expression leaf K{node.index + 1} outside bank of {len(arrays)} kernels")
        return arrays[node.index]
    op = np.add if isinstance(node, Add) else np.multiply
    a, b = _fold(node.left, arrays), _fold(node.right, arrays)
    return op(a, b, out=a if a.flags.writeable else b if b.flags.writeable else None)
