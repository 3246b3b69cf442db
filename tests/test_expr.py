import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernelforge import (
    Add,
    DataError,
    ExprSyntaxError,
    GramMatrix,
    KernelBank,
    Leaf,
    Mul,
    add,
    canonical_string,
    depth,
    evaluate,
    multiply,
    node_count,
    parse_expr,
)
from kernelforge.expr import iter_nodes, replace_at, subtree_at

from oracles import eval_expr_scalar, random_psd


def bank_of(matrices, names=None):
    grams = tuple(GramMatrix(m) for m in matrices)
    names = tuple(names or [f"k{i}" for i in range(len(grams))])
    return KernelBank(grams, names)


def random_expr(n, max_depth, rng):
    if max_depth == 1 or rng.random() < 0.3:
        return Leaf(int(rng.integers(0, n)))
    op = Add if rng.integers(0, 2) == 0 else Mul
    return op(random_expr(n, max_depth - 1, rng), random_expr(n, max_depth - 1, rng))


class TestStructure:
    def test_depth_and_node_count(self):
        e = Add(Mul(Leaf(0), Leaf(0)), Leaf(4))
        assert depth(e) == 3
        assert node_count(e) == 5

    def test_iter_nodes_preorder(self):
        e = Add(Leaf(0), Mul(Leaf(1), Leaf(2)))
        nodes = iter_nodes(e)
        assert [d for _, d in nodes] == [1, 2, 2, 3, 3]
        assert isinstance(nodes[0][0], Add)
        assert nodes[1][0] == Leaf(0)

    def test_subtree_and_replace(self):
        e = Add(Leaf(0), Mul(Leaf(1), Leaf(2)))
        assert subtree_at(e, 2) == Mul(Leaf(1), Leaf(2))
        swapped = replace_at(e, 2, Leaf(9))
        assert swapped == Add(Leaf(0), Leaf(9))
        assert e == Add(Leaf(0), Mul(Leaf(1), Leaf(2)))  # original untouched


class TestCanonicalString:
    def test_leaf_names_are_one_based(self):
        assert canonical_string(Leaf(2)) == "K3"

    def test_prefix_form(self):
        e = Add(Mul(Leaf(0), Leaf(0)), Leaf(4))
        assert canonical_string(e) == "(+ (* K1 K1) K5)"

    def test_commutative_children_sorted(self):
        assert canonical_string(parse_expr("(+ K2 K1)")) == "(+ K1 K2)"

    def test_parse_round_trip_of_canonical_form(self):
        e = parse_expr(canonical_string(Add(Mul(Leaf(3), Leaf(1)), Leaf(0))))
        assert e == Add(Mul(Leaf(1), Leaf(3)), Leaf(0))
        assert parse_expr(canonical_string(e)) == e

    @given(seed=st.integers(0, 10**6))
    def test_canonical_fixpoint(self, seed):
        e = random_expr(5, 4, np.random.default_rng(seed))
        text = canonical_string(e)
        assert canonical_string(parse_expr(text)) == text


class TestParse:
    def test_single_leaf(self):
        assert parse_expr("K1") == Leaf(0)

    def test_nested(self):
        assert parse_expr("(* (+ K1 K3) K2)") == Mul(Add(Leaf(0), Leaf(2)), Leaf(1))

    @pytest.mark.parametrize(
        "text",
        ["", "(+ K1", "(+ K1 K2 K3)", "(- K1 K2)", "K0", "Kx", "(+ K1 K2) junk", "()"],
    )
    def test_malformed_rejected_with_position(self, text):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text)
        assert "position" in str(err.value)


class TestEvaluate:
    def test_leaf_is_identity_fold(self, rng):
        k = random_psd(4, rng)
        bank = bank_of([k, random_psd(4, rng)])
        assert np.array_equal(evaluate(Leaf(0), bank).values, k)

    def test_add_on_identity_bank(self):
        bank = bank_of([np.eye(2), np.eye(2)])
        assert np.array_equal(evaluate(Add(Leaf(0), Leaf(1)), bank).values, 2 * np.eye(2))

    def test_square_plus_product_plus_leaf(self, rng):
        # (+ (+ (* K1 K1) (* K1 K2)) K5) checked entrywise against scalar recursion
        mats = [random_psd(3, rng) for _ in range(5)]
        bank = bank_of(mats)
        e = Add(Add(Mul(Leaf(0), Leaf(0)), Mul(Leaf(0), Leaf(1))), Leaf(4))
        got = evaluate(e, bank).values
        expect = mats[0] ** 2 + mats[0] * mats[1] + mats[4]
        assert np.allclose(got, expect, atol=1e-12)
        for i in range(3):
            for j in range(3):
                assert got[i, j] == pytest.approx(eval_expr_scalar(e, mats, i, j), abs=1e-12)

    def test_source_tag_is_canonical(self, rng):
        bank = bank_of([random_psd(3, rng) for _ in range(2)])
        assert evaluate(Add(Leaf(1), Leaf(0)), bank).source_tag == "(+ K1 K2)"

    def test_out_of_range_leaf(self, rng):
        bank = bank_of([random_psd(3, rng)])
        with pytest.raises(DataError):
            evaluate(Leaf(1), bank)

    def test_overflowing_product_rejected(self):
        bank = bank_of([np.full((3, 3), 1e200)])
        with np.errstate(over="ignore"), pytest.raises(DataError, match="non-finite"):
            evaluate(Mul(Leaf(0), Leaf(0)), bank)

    def test_leaf_is_the_banks_array_under_the_canonical_tag(self, rng, symmetry_passes):
        bank = bank_of([random_psd(3, rng), random_psd(3, rng)])
        symmetry_passes.clear()
        result = evaluate(Leaf(1), bank)
        assert symmetry_passes == []  # the bank's array was checked when the bank was made
        assert result.values is bank.kernels[1].values and not result.values.flags.writeable
        assert result.source_tag == "K2"

    def test_non_leaf_result_is_read_only_and_shares_no_memory(self, rng):
        bank = bank_of([random_psd(3, rng)])
        values = evaluate(Add(Leaf(0), Leaf(0)), bank).values
        assert not values.flags.writeable
        assert not np.shares_memory(values, bank.kernels[0].values)

    @given(seed=st.integers(0, 10**6))
    def test_fold_matches_algebra_exactly(self, seed):
        rng = np.random.default_rng(seed)
        bank = bank_of([random_psd(3, rng) for _ in range(3)])
        a = random_expr(3, 3, rng)
        b = random_expr(3, 3, rng)
        assert np.array_equal(
            evaluate(Add(a, b), bank).values,
            add(evaluate(a, bank), evaluate(b, bank)).values,
        )
        assert np.array_equal(
            evaluate(Mul(a, b), bank).values,
            multiply(evaluate(a, bank), evaluate(b, bank)).values,
        )
