import re
import threading
import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kernelforge.gram as gram_mod
import kernelforge.svm as svm_mod
from kernelforge import (
    Add,
    DataError,
    DatasetSplit,
    GramMatrix,
    KernelBank,
    Leaf,
    Mul,
    ParameterError,
    ShapeError,
    SplitFitness,
    SvmParams,
    add,
    build_bank,
    build_index,
    evaluate,
    multiply,
    normalize,
    parse_expr,
    submatrix,
    train_multiclass,
)
from kernelforge.gram import _POOL_MIN_ITEMS, PSD_TOL, SYMMETRY_TOL, _exact_median, _max_asymmetry, require_psd
from kernelforge.kernel_io import read_kernel, write_kernel

from oracles import check_psd, random_psd


def gm(values, tag=""):
    return GramMatrix(np.asarray(values, dtype=float), tag)


def gaussian(x, gamma):
    """The kernel build_bank makes of one view at an explicit gamma."""
    return build_bank([x], gammas=gamma)[0][0]


def median_gamma(x):
    """The bandwidth build_bank picks for one view by the median heuristic."""
    return build_bank([x])[1][0]


def reference_kernel(x, gamma=None):
    """The bank kernel as it was built before the distance matrix was shared:
    distances computed once for the bandwidth and again for the kernel, the
    median by np.median, then a normalize pass."""
    n = np.einsum("ij,ij->i", x, x)
    sq = n[:, None] + n[None, :] - 2.0 * (x @ x.T)
    np.clip(sq, 0.0, None, out=sq)
    if gamma is None:
        pair = sq[np.triu_indices(x.shape[0], k=1)]
        gamma = float(1.0 / np.median(pair[pair > 0.0]))
    g = np.exp(-gamma * sq)
    g = 0.5 * (g + g.T)
    np.fill_diagonal(g, 1.0)
    return normalize(gm(g)).values, gamma


class TestGaussianGram:
    def test_identical_rows_give_all_ones(self):
        x = np.array([[3.0, 4.0], [3.0, 4.0]])
        g = gaussian(x, gamma=2.5)
        assert np.array_equal(g.values, np.ones((2, 2)))

    def test_unit_distance_entry(self):
        g = gaussian(np.array([[0.0], [1.0]]), gamma=1.0)
        assert g.values[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_vanishing_gamma_limit(self, rng):
        x = rng.standard_normal((6, 3))
        g = gaussian(x, gamma=1e-12)
        assert np.all(np.abs(g.values - 1.0) < 1e-9)

    def test_diagonal_exactly_one(self, rng):
        g = gaussian(rng.standard_normal((5, 2)), gamma=0.7)
        assert np.array_equal(np.diag(g.values), np.ones(5))

    def test_output_is_psd(self, rng):
        g = gaussian(rng.standard_normal((8, 3)), gamma=0.3)
        assert check_psd(g, 1e-8)

    def test_bad_gamma_rejected(self):
        x = np.array([[0.0], [1.0]])
        with pytest.raises(ParameterError):
            gaussian(x, gamma=0.0)
        with pytest.raises(ParameterError):
            gaussian(x, gamma=-1.0)

    def test_nonfinite_features_rejected(self):
        with pytest.raises(DataError):
            gaussian(np.array([[0.0], [np.nan]]), gamma=1.0)

    @given(seed=st.integers(0, 10**6))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 2))
        perm = rng.permutation(6)
        g = gaussian(x, gamma=0.5).values
        gp = gaussian(x[perm], gamma=0.5).values
        assert np.allclose(gp, g[np.ix_(perm, perm)], atol=1e-12)


class TestMedianHeuristic:
    def test_three_points_on_a_line(self):
        # pairwise squared distances {1, 1, 4}; median 1
        assert median_gamma(np.array([[0.0], [1.0], [2.0]])) == pytest.approx(1.0)

    def test_single_pair(self):
        assert median_gamma(np.array([[0.0], [2.0]])) == pytest.approx(0.25)

    def test_zero_distances_excluded(self):
        # duplicated rows contribute nothing; the only nonzero distance is 9
        x = np.array([[0.0], [0.0], [3.0]])
        assert median_gamma(x) == pytest.approx(1.0 / 9.0)

    def test_all_duplicates_rejected(self):
        with pytest.raises(DataError, match=r"^view 0 \(K1\): all pairwise distances are zero"):
            median_gamma(np.array([[1.0], [1.0], [1.0]]))

    def test_subnormal_median_is_data_error(self):
        # the squared distances are subnormal, so 1 / median overflows
        x = np.array([[0.0], [1e-160], [2e-160], [5e-160]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no usable bandwidth") as raised:
                median_gamma(x)
        assert str(raised.value).startswith("view 0 (K1): median pairwise squared distance")

    def test_infinite_median_is_data_error(self):
        # the squared norms pass the overflow guard, but the two middle distances,
        # each 4 a^2 = 0.98 of the float64 range, sum past it: the median is inf and 1 / median is 0
        a = 0.99 * np.sqrt(np.finfo(float).max / 4)
        x = np.array([[a], [-a], [a], [-a]])
        with np.errstate(over="ignore"):
            with pytest.raises(DataError, match="no usable bandwidth") as raised:
                median_gamma(x)
        assert str(raised.value).startswith("view 0 (K1): median pairwise squared distance inf ")

    def test_bandwidth_errors_name_the_view(self):
        views = [np.array([[0.0], [1.0], [3.0]]), np.ones((3, 2))]
        with pytest.raises(DataError, match=r"^view 1 \(flat\): all pairwise distances are zero"):
            build_bank(views, names=["line", "flat"])

    @pytest.mark.parametrize("gammas", [None, 1.0, [0.5, None]], ids=["median", "explicit", "mixed"])
    def test_overflowing_feature_scale_names_the_view(self, gammas, two_workers):
        # the squared norm 1e400 overflows float64; no RuntimeWarning may come first
        for m in (3, _POOL_MIN_ITEMS):  # the loop, then the pool
            wide = np.zeros((m, 1))
            wide[:-1] = 1e200
            views = [np.linspace(0.0, 3.0, m)[:, None], wide]
            threads = threading.active_count()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError, match=r"view 1 \(wide\): feature scale overflows"):
                    build_bank(views, names=["narrow", "wide"], gammas=gammas)
            assert threading.active_count() == threads

    @pytest.mark.parametrize("m", [3, _POOL_MIN_ITEMS], ids=["loop", "pool"])
    def test_the_first_failing_view_is_raised(self, m, two_workers):
        # view 0 has no usable bandwidth, view 2's scale overflows; the loop stops at view 0
        wide = np.zeros((m, 1))
        wide[:-1] = 1e200
        views = [np.ones((m, 2)), np.linspace(0.0, 3.0, m)[:, None], wide]
        threads = threading.active_count()
        with pytest.raises(DataError, match=r"^view 0 \(K1\): all pairwise distances are zero"):
            build_bank(views)
        assert threading.active_count() == threads
        build_bank(views[1:2] * 3)
        assert threading.active_count() == threads

    def test_overflowing_feature_scale_in_the_single_view_helpers(self):
        x = np.array([[1e200], [1e200], [0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"view 0 \(K1\): feature scale overflows"):
                gaussian(x, 1.0)
            with pytest.raises(DataError, match=r"view 0 \(K1\): feature scale overflows"):
                median_gamma(x)

    def test_large_feature_scale_below_overflow_is_accepted(self):
        # squared norms of 1e306 keep every term of the distance formula finite
        x = np.array([[1e153], [-1e153], [0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bank, (gamma,) = build_bank([x])
        assert gamma == 1.0 / 1e306
        assert np.isfinite(bank[0].values).all()

    def test_explicit_gamma_skips_the_median(self):
        x = np.array([[0.0], [1e-160], [2e-160], [5e-160]])
        bank, gammas = build_bank([x], gammas=2.0)
        assert gammas == [2.0] and np.array_equal(bank[0].values, np.ones((4, 4)))

    @given(
        values=st.lists(
            st.sampled_from([0.5, 1.0, 1.0, 2.5]) | st.floats(min_value=0.0, max_value=1e300),
            min_size=1,
            max_size=40,
        )
    )
    def test_exact_median_equals_np_median(self, values):
        a = np.array(values)
        assert _exact_median(a.copy()) == np.median(a)
        nonzero = a[a > 0.0]
        if nonzero.size:  # the zeros are the smallest entries, so skipping them leaves the rest
            assert _exact_median(a.copy(), a.size - nonzero.size) == np.median(nonzero)


class TestAlgebra:
    def test_add_identity_matrices(self):
        g = add(gm(np.eye(2)), gm(np.eye(2)))
        assert np.array_equal(g.values, 2 * np.eye(2))

    def test_add_zero_is_identity(self, rng):
        g = gm(random_psd(4, rng))
        assert np.array_equal(add(g, gm(np.zeros((4, 4)))).values, g.values)

    def test_add_entrywise(self):
        a = gm([[1.0, 0.5], [0.5, 1.0]])
        b = gm([[1.0, 0.2], [0.2, 1.0]])
        assert np.allclose(add(a, b).values, [[2.0, 0.7], [0.7, 2.0]], atol=1e-15)

    def test_multiply_by_ones_is_identity(self, rng):
        g = gm(random_psd(3, rng))
        assert np.array_equal(multiply(g, gm(np.ones((3, 3)))).values, g.values)

    def test_multiply_entrywise(self):
        a = gm([[1.0, 0.5], [0.5, 1.0]])
        b = gm([[1.0, 0.2], [0.2, 1.0]])
        assert np.allclose(multiply(a, b).values, [[1.0, 0.1], [0.1, 1.0]], atol=1e-15)

    def test_square_of_entries(self):
        a = gm([[1.0, 0.5], [0.5, 1.0]])
        assert np.allclose(multiply(a, a).values, [[1.0, 0.25], [0.25, 1.0]], atol=1e-15)

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            add(gm(np.eye(2)), gm(np.eye(3)))
        with pytest.raises(ShapeError):
            multiply(gm(np.eye(2)), gm(np.eye(3)))

    @given(seed=st.integers(0, 10**6))
    def test_closure_under_add_and_multiply(self, seed):
        rng = np.random.default_rng(seed)
        a, b = gm(random_psd(5, rng)), gm(random_psd(5, rng))
        assert check_psd(add(a, b), 1e-8)
        assert check_psd(multiply(a, b), 1e-8)

    @given(seed=st.integers(0, 10**6))
    def test_commutative_and_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (gm(random_psd(4, rng)) for _ in range(3))
        assert np.allclose(add(a, b).values, add(b, a).values, atol=1e-12)
        assert np.allclose(multiply(a, b).values, multiply(b, a).values, atol=1e-12)
        assert np.allclose(add(add(a, b), c).values, add(a, add(b, c)).values, atol=1e-12)
        assert np.allclose(
            multiply(multiply(a, b), c).values, multiply(a, multiply(b, c)).values, atol=1e-12
        )

    @given(seed=st.integers(0, 10**6))
    def test_products_of_normalized_kernels_stay_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a, b = gm(random_psd(5, rng)), gm(random_psd(5, rng))
        prod = multiply(a, b).values
        assert np.all(np.abs(prod) <= 1.0 + 1e-12)

    def test_products_of_gaussian_kernels_stay_in_unit_interval(self, rng):
        a = gaussian(rng.standard_normal((6, 2)), 0.4)
        b = gaussian(rng.standard_normal((6, 3)), 0.9)
        prod = multiply(a, b).values
        assert np.all(prod >= 0.0) and np.all(prod <= 1.0 + 1e-12)

    def test_normalized_gaussian_sums_stay_in_unit_interval(self, rng):
        a = gaussian(rng.standard_normal((6, 2)), 0.4)
        b = gaussian(rng.standard_normal((6, 3)), 0.9)
        total = normalize(add(a, b))
        assert np.array_equal(np.diag(total.values), np.ones(6))
        off = total.values[~np.eye(6, dtype=bool)]
        assert np.all(off >= 0.0) and np.all(off <= 1.0 + 1e-12)


class TestNormalize:
    def test_idempotent_on_gaussian(self, rng):
        g = gaussian(rng.standard_normal((5, 2)), 0.8)
        assert np.allclose(normalize(g).values, g.values, atol=1e-12)

    def test_hand_computed(self):
        g = normalize(gm([[4.0, 2.0], [2.0, 1.0]]))
        assert np.allclose(g.values, np.ones((2, 2)), atol=1e-15)

    def test_diagonal_rescale(self):
        g = normalize(gm([[2.0, 0.0], [0.0, 8.0]]))
        assert np.array_equal(g.values, np.eye(2))

    def test_double_normalize(self, rng):
        g = gm(random_psd(5, rng, normalized=False))
        once = normalize(g)
        assert np.allclose(normalize(once).values, once.values, atol=1e-12)

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(DataError):
            normalize(gm([[0.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("m", [1, 5, 64, 150])  # 150: two full strips and a part
    def test_mirrors_the_upper_triangle(self, rng, m):
        def formula(v):  # every entry by the rule, the diagonal set to 1
            s = np.sqrt(np.diag(v))
            out = v / np.multiply.outer(s, s)
            np.fill_diagonal(out, 1.0)
            return out

        v = random_psd(m, rng, normalized=False)
        assert np.array_equal(normalize(gm(v)).values, formula(v))  # symmetric: the same bits
        near = v + np.triu(np.full((m, m), 0.9 * SYMMETRY_TOL), 1)
        got = normalize(gm(near)).values
        assert np.array_equal(got, got.T)
        upper = np.triu(np.ones((m, m), dtype=bool))
        assert np.array_equal(got[upper], formula(near)[upper])


class TestCheckPsd:
    def test_identity(self):
        assert check_psd(gm(np.eye(3)), 1e-8)

    def test_indefinite_two_by_two(self):
        # eigenvalues 3 and -1
        assert not check_psd(np.array([[1.0, 2.0], [2.0, 1.0]]), 1e-8)

    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_require_psd_tolerance_scales_with_the_largest_diagonal_entry(self, scale):
        # eigenvalues of [[1, b], [b, 1]] are 1 + b and 1 - b
        within = gm(scale * np.array([[1.0, 1.0 + 5e-9], [1.0 + 5e-9, 1.0]]))
        beyond = gm(scale * np.array([[1.0, 1.0 + 2e-8], [1.0 + 2e-8, 1.0]]))
        require_psd(within, "within")
        with pytest.raises(DataError, match=r"^beyond is not positive semidefinite: smallest eigenvalue -2e-0[68] "):
            require_psd(beyond, "beyond")
        assert check_psd(within) == (scale == 1.0)  # check_psd's own tol stays absolute

    def test_raw_input_is_checked_in_one_pass(self, rng, symmetry_passes):
        v = random_psd(4, rng)
        assert check_psd(v)
        assert symmetry_passes == [v.shape]

    def test_asymmetric_raw_input_rejected(self):
        with pytest.raises(ShapeError):
            check_psd(np.array([[1.0, 0.5], [0.0, 1.0]]), 1e-8)

    def test_raw_input_asymmetric_beyond_symmetry_tol_rejected(self):
        # the tolerance GramMatrix applies, not a looser one for raw arrays
        v = np.eye(3)
        v[0, 1] += 1e-9
        with pytest.raises(ShapeError, match="asymmetric"):
            check_psd(v)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_raw_input_is_data_error_without_warning(self, value):
        # a NaN asymmetry compares False against the tolerance; it must not pass
        v = np.eye(3)
        v[0, 2] = v[2, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="non-finite") as raised:
                check_psd(v)
        assert raised.type is DataError


class TestRequirePsd:
    """require_psd accepts a kernel whose smallest eigenvalue is at least -delta, delta =
    PSD_TOL times its largest diagonal entry, on a Cholesky factorisation of the kernel
    shifted by delta, and names a failure's smallest eigenvalue from the eigensolver.
    Each kernel is Q diag(lam) Q.T for a seeded orthogonal Q, so lam_min is known."""

    M = 400

    @staticmethod
    def kernel(scale, low_in_deltas):
        """An M x M exactly symmetric kernel of spectrum scale * [1, 2] but for one
        eigenvalue of low_in_deltas * delta, and that delta."""
        m = TestRequirePsd.M
        q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((m, m)))
        lam = scale * np.linspace(1.0, 2.0, m)

        def build(lam):
            v = (q * lam) @ q.T
            return np.triu(v) + np.triu(v, 1).T

        delta = PSD_TOL * build(np.r_[0.0, lam[1:]]).diagonal().max()  # lam_min moves it by far less than 1e-3
        return gm(build(np.r_[low_in_deltas * delta, lam[1:]])), delta

    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_just_inside_the_floor_is_certified_without_an_eigensolver(self, scale, monkeypatch):
        g, _ = self.kernel(scale, -0.5)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: pytest.fail("the Cholesky certificate should suffice"))
        require_psd(g, "inside")

    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_just_outside_the_floor_names_the_kernel_and_its_smallest_eigenvalue(self, scale):
        g, delta = self.kernel(scale, -2.0)
        with pytest.raises(DataError, match=r"^kernel file k\.kgm is not positive semidefinite: smallest eigenvalue ") as raised:
            require_psd(g, "kernel file k.kgm")
        low, floor = map(float, re.search(r"smallest eigenvalue (\S+) is below (\S+)$", str(raised.value)).groups())
        assert low == pytest.approx(-2.0 * delta, rel=1e-4)
        assert floor == pytest.approx(-delta, rel=1e-3)

    def test_a_zero_kernel_falls_back_to_the_eigenvalue_and_passes(self):
        # delta is 0, so the shifted copy is singular and does not factor; its eigenvalues are 0
        require_psd(gm(np.zeros((3, 3))), "zero")


@contextmanager
def no_warning_data_error():
    """pytest.raises for a DataError naming a non-finite result, with any warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="non-finite") as raised:
            yield raised


class TestDerivedKernels:
    """A kernel derived from checked ones is not scanned: entrywise arithmetic keeps an
    exactly symmetric input exactly symmetric, and the overflow or invalid operation
    that alone makes a finite input non-finite raises DataError as it happens."""

    def test_overflow_in_a_nested_fold(self):
        bank = KernelBank((gm(np.full((3, 3), 1e200)), gm(np.eye(3))))
        before = [k.values.copy() for k in bank.kernels]
        # K1 + K2 is finite; K1 * (K1 + K2) overflows one level down the tree
        expr = Add(Leaf(1), Mul(Leaf(0), Add(Leaf(0), Leaf(1))))
        with no_warning_data_error() as raised:
            evaluate(expr, bank)
        assert "(+ (* (+ K1 K2) K1) K2)" in str(raised.value)
        for k, v in zip(bank.kernels, before):
            assert np.array_equal(k.values, v)

    @pytest.mark.parametrize("op,entry", [(add, 1e308), (multiply, 1e200)], ids=["add", "multiply"])
    def test_overflow_in_add_and_multiply(self, op, entry):
        a, b = gm(np.full((4, 4), entry)), gm(np.full((4, 4), entry))
        with no_warning_data_error():
            op(a, b)
        assert np.array_equal(a.values, np.full((4, 4), entry)) and np.array_equal(b.values, a.values)

    def test_normalize_with_a_subnormal_diagonal(self):
        # sqrt(G[i,i]) * sqrt(G[j,j]) is at least the smaller diagonal entry, so it stays
        # nonzero; dividing an entry of 1 by the subnormal product overflows
        v = np.array([[5e-324, 1.0], [1.0, 5e-324]])
        g = gm(v, "tiny")
        with no_warning_data_error() as raised:
            normalize(g)
        assert "'tiny'" in str(raised.value)
        assert np.array_equal(g.values, v)

    @given(
        seed=st.integers(0, 10**6),
        m=st.integers(2, 70),
        d=st.integers(1, 4),
        layout=st.sampled_from(["C", "F", "strided"]),
        gamma=st.none() | st.floats(1e-3, 1e3),
    )
    def test_build_bank_is_exactly_symmetric(self, seed, m, d, layout, gamma):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((max(2, m // 2), 2 * d)) * 10.0 ** rng.integers(-3, 4)
        x = rows[np.r_[0, 1, rng.integers(0, len(rows), m - 2)]]  # duplicated rows, two distinct
        x = {"C": x[:, :d].copy(), "F": np.asfortranarray(x[:, :d]), "strided": x[:, ::2]}[layout]
        for k in build_bank([x, x[::-1]], gammas=gamma)[0].kernels:
            assert np.array_equal(k.values, k.values.T)

    @given(
        seed=st.integers(0, 10**6),
        m=st.integers(1, 70),
        expr=st.recursive(
            st.integers(0, 2).map(Leaf),
            lambda kids: st.builds(Add, kids, kids) | st.builds(Mul, kids, kids),
            max_leaves=6,
        ),
    )
    def test_evaluate_and_normalize_are_exactly_symmetric(self, seed, m, expr):
        rng = np.random.default_rng(seed)
        kernels = []
        for _ in range(3):
            a = rng.standard_normal((m, m))
            v = np.triu(a) + np.triu(a, 1).T
            np.fill_diagonal(v, rng.uniform(0.5, 2.0, m))  # sums and products keep it positive
            kernels.append(gm(v))
        bank = KernelBank(tuple(kernels))
        k = evaluate(expr, bank)
        for v in (k.values, normalize(k).values):
            assert np.array_equal(v, v.T)


class TestMaxAsymmetry:
    @pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 129, 130])
    def test_equals_full_difference(self, m, rng):
        a = rng.random((m, m))
        v = a + a.T
        if m > 1:
            v[m - 1, m - 2] += 0.5  # the one asymmetric pair, in the last rows
        assert _max_asymmetry(v) == np.max(np.abs(v - v.T))

    def test_empty_is_symmetric(self):
        assert _max_asymmetry(np.zeros((0, 0))) == 0.0

    # entries set at (i, j), (j, i) or (i, i), for i = m - 1 and j = m - 2 (in the last strip), and
    # GramMatrix's error; at m = 1, i = j, so the asymmetric cases are symmetric there
    CASES = {
        "symmetric": ({}, None),
        "within_tol": ({"ji": 1.0, "ij": 1.0 + 0.5 * SYMMETRY_TOL}, None),
        "beyond_tol": ({"ji": 1.0, "ij": 1.0 + 2.0 * SYMMETRY_TOL}, ShapeError),
        "nan_pair": ({"ji": np.nan, "ij": np.nan}, DataError),
        "nan_diagonal": ({"ii": np.nan}, DataError),
        "inf_pair": ({"ji": np.inf, "ij": np.inf}, DataError),
        "one_sided_inf": ({"ji": np.inf}, DataError),
        "signed_zero_pair": ({"ji": 0.0, "ij": -0.0}, None),
    }

    @staticmethod
    def case_matrix(m, case):
        a = np.random.default_rng(m).random((m, m))
        v = a + a.T
        i, j = m - 1, max(m - 2, 0)
        at = {"ij": (i, j), "ji": (j, i), "ii": (i, i)}
        for where, x in TestMaxAsymmetry.CASES[case][0].items():
            v[at[where]] = x
        return v

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("m", [1, 63, 64, 65, 130])
    def test_skipping_symmetric_strips_keeps_the_maximum(self, m, case):
        v = self.case_matrix(m, case)
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.abs(v - v.T).max()
            got = _max_asymmetry(v)
        assert type(got) is float
        assert got == expected or (np.isnan(got) and np.isnan(expected))  # two NaNs count as equal

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("m", [1, 63, 64, 65, 130])
    def test_gram_matrix_verdict_in_one_pass(self, m, case, symmetry_passes):
        v = self.case_matrix(m, case)
        error = self.CASES[case][1]
        if m == 1 and error is ShapeError:
            error = None
        if error is None:
            assert np.array_equal(GramMatrix(v).values, v)
        else:
            message = {
                ShapeError: f"gram matrix asymmetric beyond {SYMMETRY_TOL}",
                DataError: "gram matrix contains non-finite entries",
            }[error]
            with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
                GramMatrix(v)
            assert raised.type is error
        assert symmetry_passes == [(m, m)]


class TestSubmatrix:
    def test_full_slice(self, rng):
        g = gm(random_psd(4, rng))
        assert np.array_equal(submatrix(g, range(4), range(4)), g.values)

    def test_single_entry(self):
        assert np.array_equal(submatrix(gm(np.eye(3)), [0], [2]), [[0.0]])

    def test_row_extraction(self):
        g = gm([[1.0, 0.5], [0.5, 1.0]])
        assert np.array_equal(submatrix(g, [1], [0, 1]), [[0.5, 1.0]])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            submatrix(gm(np.eye(2)), [2], [0])
        with pytest.raises(IndexError):
            submatrix(gm(np.eye(2)), [0], [-1])


class TestTypes:
    def test_gram_requires_symmetry(self):
        with pytest.raises(ShapeError):
            gm([[1.0, 0.5], [0.2, 1.0]])

    def test_gram_requires_finite(self):
        with pytest.raises(DataError):
            gm([[1.0, np.inf], [np.inf, 1.0]])

    def test_gram_requires_an_item(self):
        with pytest.raises(ShapeError, match="at least one item"):
            gm(np.empty((0, 0)))

    def test_gram_values_read_only(self):
        g = gm(np.eye(2))
        with pytest.raises(ValueError):
            g.values[0, 0] = 5.0

    def test_bank_size_agreement(self):
        with pytest.raises(ShapeError):
            KernelBank((gm(np.eye(2)), gm(np.eye(3))))

    def test_bank_nonempty(self):
        with pytest.raises(DataError):
            KernelBank(())

    @pytest.mark.parametrize("gammas", [None, []])
    def test_no_views_is_data_error(self, gammas):
        with pytest.raises(DataError, match="^need at least one descriptor matrix$"):
            build_bank([], gammas=gammas)

    def test_build_bank_median_heuristic(self, rng):
        views = [rng.standard_normal((6, 2)), rng.standard_normal((6, 3))]
        bank, gammas = build_bank(views)
        assert len(bank) == 2 and bank.size == 6
        assert gammas == [pytest.approx(median_gamma(v)) for v in views]
        for k in bank.kernels:
            assert np.array_equal(np.diag(k.values), np.ones(6))


class TestOwnership:
    """Caller arrays are copied, package-built arrays are adopted read-only,
    and validation takes one pass that names the failure without warning."""

    def test_caller_array_is_copied(self):
        arr = np.eye(3)
        g = GramMatrix(arr, "k")
        arr[0, 1] = arr[1, 0] = 0.5
        assert np.array_equal(g.values, np.eye(3))
        assert arr.flags.writeable and not g.values.flags.writeable

    def test_package_built_arrays_are_read_only(self, rng, tmp_path):
        bank, _ = build_bank([rng.standard_normal((6, 2)), rng.standard_normal((6, 3))])
        write_kernel(tmp_path / "k.kgm", bank[0])
        built = {
            "build_bank": bank[0],
            "read_kernel": read_kernel(tmp_path / "k.kgm"),
            "evaluate": evaluate(Add(Leaf(0), Leaf(1)), bank),
            "normalize": normalize(multiply(bank[0], bank[1])),
            "add": add(bank[0], bank[1]),
            "with_tag": bank[0].with_tag("renamed"),
        }
        for where, g in built.items():
            assert not g.values.flags.writeable, where
            with pytest.raises(ValueError):
                g.values[0, 0] = 2.0

    def test_adopted_array_is_kept_and_tags_share_it(self):
        v = np.eye(3)
        g = GramMatrix._adopt(v, "k")
        assert g.values is v and not v.flags.writeable
        renamed = g.with_tag("other")
        assert renamed.values is v and renamed.source_tag == "other" and g.source_tag == "k"

    @pytest.mark.parametrize(
        "entry",
        [(0, 1, np.inf), (0, 0, np.inf), (1, 2, -np.inf), (2, 2, np.nan), (2, 0, np.nan)],
        ids=["inf-off-diagonal", "inf-diagonal", "minus-inf", "nan-diagonal", "nan-off-diagonal"],
    )
    @pytest.mark.parametrize("mirrored", [True, False])
    def test_non_finite_entry_is_data_error_without_warning(self, entry, mirrored):
        i, j, value = entry
        v = np.eye(3)
        v[i, j] = value
        if mirrored:
            v[j, i] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="non-finite") as raised:
                GramMatrix(v)
        assert raised.type is DataError

    def test_finite_entries_whose_difference_overflows_are_shape_error(self):
        v = np.zeros((3, 3))
        v[0, 2], v[2, 0] = 1e308, -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="asymmetric"):
                GramMatrix(v)


class TestBuildBankBitIdentity:
    """build_bank shares one distance matrix per view; every bit stays as before."""

    @staticmethod
    def assert_matches_reference(views, gammas=None):
        bank, used = build_bank(views, gammas=gammas)
        per_view = gammas if isinstance(gammas, list) else [gammas] * len(views)
        for x, k, g, given_gamma in zip(views, bank.kernels, used, per_view):
            want, want_gamma = reference_kernel(x, given_gamma)
            assert g == want_gamma
            assert np.array_equal(k.values, want)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 31, 32, 64, 65])
    def test_random_views(self, m, rng):
        # m(m-1)/2 pairs: odd for m = 2, 3, 6, 31, 65; even for m = 4, 5, 32, 64
        self.assert_matches_reference([rng.standard_normal((m, 2)), rng.standard_normal((m, 5))])

    @pytest.mark.parametrize("m", [5, 8, 40])
    def test_duplicated_rows(self, m, rng):
        x = rng.standard_normal((m, 3))
        x[m // 2] = x[0]
        x[-1] = x[1]
        ties = rng.integers(0, 3, size=(m, 1)).astype(float)  # many equal distances
        self.assert_matches_reference([x, ties])

    def test_near_duplicates_round_below_zero(self, rng):
        # off the origin, a near-duplicate pair's (n_i + n_j) - 2 x_i.x_j
        # rounds to zero or to a tiny value of either sign; the clip zeroes
        # the negatives
        x = rng.standard_normal((40, 3)) + 10.0
        x[20:] = x[:20] + 1e-8 * rng.standard_normal((20, 3))
        n = np.einsum("ij,ij->i", x, x)
        raw = n[:, None] + n[None, :] - 2.0 * (x @ x.T)
        assert (raw[~np.eye(40, dtype=bool)] < 0).any()
        self.assert_matches_reference([x])

    def test_explicit_gamma(self, rng):
        views = [rng.standard_normal((20, 2)), rng.standard_normal((20, 3))]
        self.assert_matches_reference(views, 0.37)
        for x in views:
            assert np.array_equal(gaussian(x, 0.37).values, reference_kernel(x, 0.37)[0])
            assert median_gamma(x) == reference_kernel(x)[1]

    def test_overflowing_gamma_product_is_exactly_zero_without_warning(self):
        # gamma * squared distance overflows to -inf in the exponent; exp(-inf) = 0 is the limit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bank, _ = build_bank([np.array([[1e150], [-1e150], [0.0]])], gammas=1e10)
        assert np.array_equal(bank.kernels[0].values, np.eye(3))

    @pytest.mark.parametrize("m", [2, 3, 63, 64, 65, 130])
    @pytest.mark.parametrize("d", [1, 2, 7])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_kernels_are_exactly_symmetric(self, m, d, layout, rng):
        # no symmetrising pass: x @ x.T is one triangle mirrored, and the
        # distances and exp of it keep every pair bitwise equal
        x = rng.standard_normal((m, 2 * d))
        x = {"C": x[:, :d].copy(), "F": np.asfortranarray(x[:, :d]), "strided": x[:, ::2]}[layout]
        for k in (build_bank([x])[0][0], gaussian(x, 0.7)):
            assert np.array_equal(k.values, k.values.T)
        self.assert_matches_reference([x])

    def test_views_of_different_sizes_are_shape_error(self, rng, monkeypatch):
        # the row counts are checked before any view's distances are computed
        def no_distances(*args):
            raise AssertionError("a distance matrix was computed")

        monkeypatch.setattr(gram_mod, "_pairwise_sq_dists", no_distances)
        with pytest.raises(ShapeError, match=r"disagree on size: \[6, 9, 6\] rows"):
            build_bank([rng.standard_normal((6, 2)), rng.standard_normal((9, 2)), rng.standard_normal((6, 2))])

    def test_mixed_gammas(self, rng):
        self.assert_matches_reference([rng.standard_normal((21, 2)), rng.standard_normal((21, 3))], [None, 1.5])


class TestPooledBuild:
    """From _POOL_MIN_ITEMS items up, build_bank builds its views on worker
    threads; every bit stays that of building each view alone, in the loop."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_each_view_is_built_as_alone(self, cpus, rng, monkeypatch):
        m = 3 * _POOL_MIN_ITEMS  # large enough that two workers sharing a scratch would clash
        views = [scale * rng.standard_normal((m, d)) for d, scale in ((2, 1.0), (7, 0.3), (1, 5.0), (4, 1.0), (3, 2.0))]
        gammas = [None, 0.37, None, 2.0, None]
        ran_on, real = [], gram_mod._gaussian_view
        monkeypatch.setattr(gram_mod, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(gram_mod, "_gaussian_view", lambda *a: ran_on.append(threading.current_thread()) or real(*a))
        bank, used = build_bank(views, gammas=gammas)
        if cpus == 1:
            assert set(ran_on) == {threading.main_thread()}
        else:
            assert threading.main_thread() not in ran_on and 1 <= len(set(ran_on)) <= cpus
        for x, gamma, k, g in zip(views, gammas, bank.kernels, used):
            ran_on.clear()
            alone, (alone_gamma,) = build_bank([x], gammas=[gamma])
            assert ran_on == [threading.main_thread()]
            assert g == alone_gamma
            assert k.values.tobytes() == alone[0].values.tobytes()

    @pytest.mark.parametrize("m", [8, _POOL_MIN_ITEMS], ids=["loop", "pool"])
    def test_a_callers_errstate_governs_every_view(self, m, rng, two_workers):
        # far from the diagonal exp underflows to 0, which numpy ignores by default
        views = [rng.standard_normal((m, 2)) for _ in range(3)]
        build_bank(views, gammas=1e3)
        with np.errstate(under="raise"):
            with pytest.raises(FloatingPointError, match="underflow"):
                build_bank(views, gammas=1e3)


class TestAllocationBudget:
    """Peak traced memory, in m x m float64 arrays, of the calls that build
    kernels: each makes one new array per kernel it keeps, plus strips of
    rows and, in build_bank, one scratch per worker of m(m-1)/2 floats for
    the median.  M is at least _POOL_MIN_ITEMS, so build_bank pools its views.
    The calls that cut training blocks gather them from the kernels they
    belong to, with no copy of the fit items' block; require_psd's check holds
    one shifted copy and its Cholesky factor."""

    M = 400

    @staticmethod
    def peak_units(f):
        tracemalloc.start()
        try:
            f()
            return tracemalloc.get_traced_memory()[1] / (TestAllocationBudget.M**2 * 8)
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def views(self):
        assert self.M >= _POOL_MIN_ITEMS
        rng = np.random.default_rng(3)
        return [rng.standard_normal((self.M, d)) for d in (2, 5, 3)]

    def test_build_bank(self, views, two_workers):
        assert self.peak_units(lambda: build_bank(views)) <= 4.1  # 3 kernels kept

    def test_build_bank_in_a_loop(self, views, monkeypatch):
        monkeypatch.setattr(gram_mod, "_usable_cpus", lambda: 1)
        assert self.peak_units(lambda: build_bank(views)) <= 3.6  # 3 kernels kept, one scratch

    def test_build_index(self, views):
        bank, _ = build_bank(views)
        ids = range(self.M)
        assert self.peak_units(lambda: build_index(parse_expr("(+ (* K1 K2) K1)"), bank, ids)) <= 2.6

    def test_evaluate_folds_into_its_own_arrays(self, views):
        bank, _ = build_bank(views)
        expr = parse_expr("(+ (+ (+ K1 K2) (* K3 K1)) (* K2 K2))")
        assert self.peak_units(lambda: evaluate(expr, bank)) <= 2.1

    @pytest.fixture(scope="class")
    def fit_split(self):
        """300 fit items (240 train, 60 validation) of three classes over M items, and their labels."""
        ids = np.random.default_rng(4).permutation(self.M)
        return DatasetSplit(ids[:240], ids[240:300], ids[300:], seed=1), np.arange(self.M) % 3

    def test_split_fitness_copies_no_block(self, views, fit_split):
        # blocks are gathered from the bank on first use, so setting up a split allocates no m x m array
        bank, _ = build_bank(views)
        split, labels = fit_split
        assert self.peak_units(lambda: SplitFitness(bank, labels, split)) <= 0.1

    def test_train_multiclass_gathers_pair_blocks_from_the_kernel(self, views, fit_split, monkeypatch):
        # the three class pairs' 200 x 200 blocks of the 300 fit items (0.75 units), with no 300 x 300 copy
        bank, _ = build_bank(views)
        split, labels = fit_split
        monkeypatch.setattr(svm_mod, "_fit_pairs", lambda classes, blocks, params, seed: blocks)
        assert self.peak_units(lambda: train_multiclass(bank[0], labels, split.fit_idx, SvmParams())) <= 1.0

    def test_require_psd(self, views):
        # the shifted, symmetrised copy and its Cholesky factor; the eigensolver runs only on a failure
        bank, _ = build_bank(views)
        assert self.peak_units(lambda: require_psd(bank[0], "k")) <= 2.1

    def test_normalize_in_place_strips_in_one_scratch(self, views):
        # build_index's normalize: one contiguous B x M strip (0.16 units) holds the products and the quotients
        bank, _ = build_bank(views)
        v = bank[0].values.copy()
        assert self.peak_units(lambda: gram_mod._normalized(v, v, "k")) <= 0.28

    @pytest.mark.parametrize("mode", ["validation", "k_fold"])
    def test_fitness_plan_is_built_in_place(self, views, fit_split, mode):
        # each gather is written into its slice of the plan, so the peak is the plan and one gather
        bank, _ = build_bank(views)
        split, labels = fit_split
        score = SplitFitness(bank, labels, split)
        peak = self.peak_units(lambda: score._plan(mode, 5))
        assert peak <= 1.25 * score._plan(mode, 5)[0].nbytes / (self.M**2 * 8)
