from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernelforge import (
    Add,
    DataError,
    GramMatrix,
    KernelBank,
    Leaf,
    Mul,
    ParameterError,
    SimilarityIndex,
    build_index,
    canonical_string,
    evaluate,
    load_index,
    normalize,
    query,
    save_index,
)
from kernelforge.harness import _addition_expr
from kernelforge.retrieval import _id_lines

from oracles import random_psd


def bank_of(matrices):
    grams = tuple(GramMatrix(m) for m in matrices)
    return KernelBank(grams)


def ids_for(m):
    return tuple(f"item{i:03d}" for i in range(m))


def index_from_row(row):
    """Index whose item-0 similarities equal `row` (rest patterned symmetrically)."""
    m = len(row)
    values = np.ones((m, m)) * 0.01
    values[0, :] = row
    values[:, 0] = row
    np.fill_diagonal(values, 1.0)
    return SimilarityIndex(GramMatrix(values), ids_for(m), Leaf(0))


class TestBuildIndex:
    def test_all_leaves_chain_matches_addition_kernel(self, rng):
        bank = bank_of([random_psd(5, rng) for _ in range(5)])
        chain = Leaf(0)
        for i in range(1, 5):
            chain = Add(chain, Leaf(i))
        index = build_index(chain, bank, ids_for(5))
        expected = normalize(evaluate(_addition_expr(len(bank)), bank))
        assert np.max(np.abs(index.matrix.values - expected.values)) <= 1e-12

    def test_large_bank_dimension(self):
        m = 1530
        bank = bank_of([np.eye(m) for _ in range(5)])
        index = build_index(Add(Leaf(0), Leaf(1)), bank, ids_for(m))
        assert index.matrix.values.shape == (m, m)

    def test_single_leaf_identity_bank(self):
        index = build_index(Leaf(0), bank_of([np.eye(4)]), ids_for(4))
        assert np.array_equal(index.matrix.values, np.eye(4))

    def test_bare_leaf_is_normalized_in_a_copy(self, rng):
        # the index is normalized in place, but a bare leaf's array is the bank's own
        bank = bank_of([3.0 * random_psd(6, rng)])  # diagonal 3, so normalizing changes it
        before = bank[0].values.copy()
        index = build_index(Leaf(0), bank, ids_for(6))
        assert np.array_equal(bank[0].values, before) and not bank[0].values.flags.writeable
        assert np.array_equal(index.matrix.values, normalize(bank[0]).values)
        assert not np.array_equal(index.matrix.values, before)

    def test_id_count_must_match(self, rng):
        bank = bank_of([random_psd(4, rng)])
        with pytest.raises(DataError):
            build_index(Leaf(0), bank, ids_for(3))


class TestQuery:
    def test_identity_matrix_tie_break(self):
        index = SimilarityIndex(GramMatrix(np.eye(4)), ids_for(4), Leaf(0))
        assert query(index, 1, 1) == [(0, 0.0)]
        assert query(index, 0, 1) == [(1, 0.0)]

    def test_similarity_ordering(self):
        index = index_from_row([1.0, 0.9, 0.2, 0.7])
        assert query(index, 0, 2) == [(1, 0.9), (3, 0.7)]

    def test_paper_min_ordering(self):
        index = index_from_row([1.0, 0.9, 0.2, 0.7])
        assert query(index, 0, 2, order="paper-min") == [(2, 0.2), (3, 0.7)]

    def test_modes_are_exact_reverses_on_distinct_scores(self):
        index = index_from_row([1.0, 0.9, 0.2, 0.7])
        m = index.size
        forward = query(index, 0, m - 1)
        backward = query(index, 0, m - 1, order="paper-min")
        assert forward == backward[::-1]

    @given(seed=st.integers(0, 10**6))
    def test_never_returns_the_query_item(self, seed):
        rng = np.random.default_rng(seed)
        index = SimilarityIndex(GramMatrix(random_psd(6, rng)), ids_for(6), Leaf(0))
        i = int(rng.integers(0, 6))
        k = int(rng.integers(1, 6))
        hits = query(index, i, k)
        assert i not in [j for j, _ in hits]
        assert len(hits) == k

    def test_ranking_invariant_under_positive_scaling(self, rng):
        base = random_psd(6, rng)
        a = SimilarityIndex(GramMatrix(base), ids_for(6), Leaf(0))
        b = SimilarityIndex(GramMatrix(base * 7.5), ids_for(6), Leaf(0))
        for i in range(6):
            assert [j for j, _ in query(a, i, 5)] == [j for j, _ in query(b, i, 5)]

    def test_parameter_validation(self, rng):
        index = SimilarityIndex(GramMatrix(random_psd(4, rng)), ids_for(4), Leaf(0))
        with pytest.raises(ParameterError):
            query(index, 0, 0)
        with pytest.raises(ParameterError):
            query(index, 0, 4)
        with pytest.raises(ParameterError):
            query(index, 9, 1)
        with pytest.raises(ParameterError):
            query(index, 0, 1, order="sideways")

    @pytest.mark.parametrize(
        "i,k",
        [(1.5, 2), (0, 2.5), (0, True), (True, 2)],
        ids=["float item", "float k", "bool k", "bool item"],
    )
    def test_non_integer_item_or_k_rejected(self, i, k):
        index = SimilarityIndex(GramMatrix(np.eye(4)), ids_for(4), Leaf(0))
        with pytest.raises(ParameterError, match="must be an integer"):
            query(index, i, k)

    def test_numpy_integers_accepted(self):
        index = index_from_row([1.0, 0.9, 0.2, 0.7])
        assert query(index, np.int64(0), np.int32(2)) == query(index, 0, 2) == [(1, 0.9), (3, 0.7)]


def sorted_ranking(row, i, k, order):
    """The ranking by a full Python sort, ties to the smaller index."""
    others = [j for j in range(len(row)) if j != i]
    if order == "similarity":
        ranked = sorted(others, key=lambda j: (-row[j], j))
    else:
        ranked = sorted(others, key=lambda j: (row[j], j))
    return [(j, float(row[j])) for j in ranked[:k]]


@st.composite
def tied_rows(draw):
    """Rows of 2..40 scores drawn from at most 3 distinct values, often +-0.0."""
    m = draw(st.integers(2, 40))
    values = st.sampled_from([0.0, -0.0, 1.0, -0.5]) | st.floats(-2.0, 2.0)
    pool = draw(st.lists(values, min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))


class TestTopK:
    @given(row=tied_rows())
    def test_matches_full_sort(self, row):
        m = len(row)
        for i in range(m):
            values = np.full((m, m), 0.25)
            values[i, :] = row
            values[:, i] = row
            index = SimilarityIndex(GramMatrix(values), ids_for(m), Leaf(0))
            for order in ("similarity", "paper-min"):
                for k in range(1, m):
                    expected = sorted_ranking(index.matrix.values[i], i, k, order)
                    assert repr(query(index, i, k, order)) == repr(expected)

    @pytest.mark.parametrize("m", [180, 990])
    @pytest.mark.parametrize("k", [1, 10, "m - 1"])
    @pytest.mark.parametrize("order", ["similarity", "paper-min"])
    @pytest.mark.parametrize("own", ["at the cut", "best", "worst"])
    def test_matches_full_sort_at_benchmark_sizes(self, m, k, order, own):
        # numpy picks its partition strategy by size, so the small rows above do
        # not reach the paths a query over the benchmark's indexes takes
        k = m - 1 if k == "m - 1" else k
        rng = np.random.default_rng([m, k, len(order), len(own)])
        # +-0.0 everywhere but four 0.5s and four -0.5s, so k = 1 cuts a tie of four
        # and the larger k cut inside the tie of zeros of either sign
        row = rng.choice([0.0, -0.0], size=m)
        row[rng.choice(m, size=8, replace=False)] = [0.5] * 4 + [-0.5] * 4
        i = m // 3
        if own == "at the cut":  # the k-th best of the others, so i ties with the last answer
            row[i] = sorted_ranking(row, i, k, order)[-1][1]
        else:
            row[i] = 3.0 if own == "best" else -3.0
        values = np.full((m, m), 0.25)
        values[i, :] = row
        values[:, i] = row
        index = SimilarityIndex(GramMatrix(values), ids_for(m), Leaf(0))
        expected = sorted_ranking(index.matrix.values[i], i, k, order)
        assert repr(query(index, i, k, order)) == repr(expected)
        assert "-0.0" in repr(expected) or k == 1


class TestPersistence:
    def test_round_trip(self, rng, tmp_path):
        bank = bank_of([random_psd(5, rng) for _ in range(3)])
        expr = Add(Mul(Leaf(0), Leaf(1)), Leaf(2))
        index = build_index(expr, bank, ids_for(5))
        path = tmp_path / "sims.kgm"
        save_index(path, index)
        assert (tmp_path / "sims.kgm.ids").exists()
        loaded = load_index(path)
        assert loaded.item_ids == index.item_ids
        assert canonical_string(loaded.expr) == canonical_string(expr)
        assert np.array_equal(loaded.matrix.values, index.matrix.values)
        assert query(loaded, 2, 3) == query(index, 2, 3)

    @pytest.mark.parametrize("bad", ["", "a\nb", "a\u2028b", "a\r"])
    def test_ids_not_one_per_line_rejected_before_writing(self, bad, tmp_path):
        index = SimilarityIndex(GramMatrix(np.eye(3)), ("x", bad, "y"), Leaf(0))
        with pytest.raises(DataError):
            save_index(tmp_path / "sims.kgm", index)
        assert list(tmp_path.iterdir()) == []

    # every character str.splitlines splits at, "\r\n" included, and an empty id
    BOUNDARIES = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    @staticmethod
    def first_bad_id_per_id(ids):
        """The per-id loop the one-pass check replaced: the first id that is not one whole line."""
        return next((v for v in map(str, ids) if v.splitlines() != [v]), None)

    @pytest.mark.parametrize("bad", ["", *BOUNDARIES])
    def test_one_pass_id_check_names_the_id_the_per_id_loop_names(self, bad):
        for ids in ([f"a{bad}b", "x"], [f"{bad}a", "x"], [f"a{bad}", "x"], ["x", f"a{bad}"], ["x", bad, "y"], [bad],
                    ["x", "y", f"a{bad}b", bad]):
            first = self.first_bad_id_per_id(ids)
            if first is None:  # "" inside another id leaves it one whole line
                assert bad == "" and _id_lines(ids) == "".join(f"{v}\n" for v in ids)
                continue
            with pytest.raises(DataError) as raised:
                _id_lines(ids)
            assert str(raised.value) == f"item id {first!r} cannot be stored one per line"

    def test_one_pass_id_text_is_one_line_per_id(self):
        ids = ["a", "b c", "\t", "d\u00e9", 7]
        assert self.first_bad_id_per_id(ids) is None
        assert _id_lines(ids) == "".join(f"{v}\n" for v in ids)

    @pytest.mark.parametrize("kind", [str, Path])
    def test_sidecar_is_found_beside_a_name_with_dots_and_spaces(self, rng, tmp_path, kind):
        index = build_index(Leaf(0), bank_of([random_psd(4, rng)]), ids_for(4))
        path = tmp_path / "my index.v2.kgm"
        save_index(path, index)
        assert (tmp_path / "my index.v2.kgm.ids").is_file()
        assert load_index(kind(path)).item_ids == index.item_ids

    def test_crlf_sidecar_reads_to_the_ids_a_text_mode_read_gives(self, rng, tmp_path):
        path = tmp_path / "sims.kgm"
        save_index(path, build_index(Leaf(0), bank_of([random_psd(4, rng)]), ids_for(4)))
        sidecar = tmp_path / "sims.kgm.ids"
        sidecar.write_bytes(b"item000\r\nitem001\r\n\r\nitem002\ritem003\r\n")
        text_mode = [line for line in sidecar.read_text(encoding="utf-8").splitlines() if line]
        assert load_index(path).item_ids == tuple(text_mode) == ids_for(4)

    def test_missing_sidecar(self, rng, tmp_path):
        bank = bank_of([random_psd(4, rng)])
        index = build_index(Leaf(0), bank, ids_for(4))
        path = tmp_path / "sims.kgm"
        save_index(path, index)
        (tmp_path / "sims.kgm.ids").unlink()
        with pytest.raises(DataError):
            load_index(path)
