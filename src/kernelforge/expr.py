"""Kernel-combination expression trees.

A chromosome is a binary tree whose leaves reference base kernels by index and
whose internal nodes are entrywise + or *.  Trees print as prefix strings with
1-based kernel names, e.g. ``(+ (* K1 K1) K5)``; the canonical form orders the
children of the commutative operators lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DataError, ExprSyntaxError
from .gram import GramMatrix, KernelBank


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

    def walk(node: KernelExpr, d: int) -> None:
        out.append((node, d))
        if not isinstance(node, Leaf):
            walk(node.left, d + 1)
            walk(node.right, d + 1)

    walk(expr, 1)
    return out


def subtree_at(expr: KernelExpr, pos: int) -> KernelExpr:
    nodes = iter_nodes(expr)
    if not 0 <= pos < len(nodes):
        raise IndexError(f"node position {pos} out of range for {len(nodes)} nodes")
    return nodes[pos][0]


def replace_at(expr: KernelExpr, pos: int, replacement: KernelExpr) -> KernelExpr:
    """Copy of expr with the subtree at preorder position pos swapped out."""
    counter = [0]

    def rebuild(node: KernelExpr) -> KernelExpr:
        here = counter[0]
        counter[0] += 1
        if here == pos:
            # advance the counter past the replaced subtree
            counter[0] += node_count(node) - 1
            return replacement
        if isinstance(node, Leaf):
            return node
        left = rebuild(node.left)
        right = rebuild(node.right)
        return type(node)(left, right)

    if not 0 <= pos < node_count(expr):
        raise IndexError(f"node position {pos} out of range")
    return rebuild(expr)


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


def canonicalize(expr: KernelExpr) -> KernelExpr:
    """Reorder commutative children so canonical_string round-trips exactly."""
    if isinstance(expr, Leaf):
        return expr
    left = canonicalize(expr.left)
    right = canonicalize(expr.right)
    if canonical_string(right) < canonical_string(left):
        left, right = right, left
    return type(expr)(left, right)


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
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ExprSyntaxError("kernel name needs digits after 'K'", i)
            tokens.append((text[i:j], i))
            i = j
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def parse_expr(text: str) -> KernelExpr:
    """Parse a prefix kernel expression like '(+ (* K1 K1) K5)'."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExprSyntaxError("empty expression", 0)

    def parse(at: int) -> tuple[KernelExpr, int]:
        if at >= len(tokens):
            raise ExprSyntaxError("unexpected end of expression", len(text))
        tok, pos = tokens[at]
        if tok.startswith("K"):
            index = int(tok[1:]) - 1
            if index < 0:
                raise ExprSyntaxError("kernel names are 1-based", pos)
            return Leaf(index), at + 1
        if tok != "(":
            raise ExprSyntaxError(f"expected '(' or kernel name, got {tok!r}", pos)
        if at + 1 >= len(tokens):
            raise ExprSyntaxError("missing operator after '('", pos)
        op, op_pos = tokens[at + 1]
        if op not in "+*":
            raise ExprSyntaxError(f"expected '+' or '*', got {op!r}", op_pos)
        left, nxt = parse(at + 2)
        right, nxt = parse(nxt)
        if nxt >= len(tokens) or tokens[nxt][0] != ")":
            where = tokens[nxt][1] if nxt < len(tokens) else len(text)
            raise ExprSyntaxError("expected ')'", where)
        node = Add(left, right) if op == "+" else Mul(left, right)
        return node, nxt + 1

    expr, end = parse(0)
    if end != len(tokens):
        raise ExprSyntaxError("trailing input after expression", tokens[end][1])
    return expr


def evaluate(expr: KernelExpr, bank: KernelBank) -> GramMatrix:
    """Fold the tree over the bank's raw arrays and wrap the result once.

    Sums and products of the intermediate arrays skip the checks of
    ``gram.add``/``gram.multiply`` and write into an operand the fold made, if
    any (the bank's arrays are read-only).  The result, tagged with the canonical
    string, is validated in one pass and adopted read-only without a copy; a
    bare leaf gives the bank's checked array under that tag, unscanned.
    """

    def fold(node: KernelExpr) -> tuple[np.ndarray, bool]:  # (array, made by the fold)
        if isinstance(node, Leaf):
            if not 0 <= node.index < len(bank):
                raise DataError(
                    f"expression leaf K{node.index + 1} outside bank of {len(bank)} kernels"
                )
            return bank.kernels[node.index].values, False
        op = np.add if isinstance(node, Add) else np.multiply
        (a, own_a), (b, own_b) = fold(node.left), fold(node.right)
        return op(a, b, out=a if own_a else b if own_b else None), True

    values, made = fold(expr)
    return (GramMatrix._adopt if made else GramMatrix._checked)(values, canonical_string(expr))
