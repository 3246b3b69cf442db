import json
import re
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernelforge.svm as svm_mod
from kernelforge import (
    DataError,
    GramMatrix,
    NumericalError,
    ParameterError,
    ShapeError,
    SvmParams,
    accuracy,
    predict,
    train_binary,
    train_multiclass,
)
from kernelforge.expr import evaluate, parse_expr
from kernelforge.gram import SYMMETRY_TOL, build_bank, submatrix
from kernelforge.harness import C_GRID, make_splits
from kernelforge.rng import derived_rng
from kernelforge.svm import (
    _PERM_BLOCK,
    MulticlassModel,
    SvmModel,
    _vote,
    fit_predict_rows,
    multiclass_to_dict,
    save_multiclass,
)
from kernelforge.synthetic import xor_views

from jsondocs import corrupted
from oracles import brute_force_dual_max, interior_point_dual_max, numpy_final_bias, numpy_platt_smo, random_psd
from oracles import decision, dual_objective, load_multiclass, multiclass_from_dict
from oracles import numpy_violators as _violators  # the numpy KKT test, which svm._violators matches

TWO_POINT_K = np.array([[1.0, -1.0], [-1.0, 1.0]])
TWO_POINT_Y = np.array([-1.0, 1.0])


def random_binary_problem(rng, max_points=6):
    p = int(rng.integers(2, max_points + 1))
    k = random_psd(p, rng)
    y = np.where(rng.random(p) < 0.5, -1.0, 1.0)
    if np.all(y == y[0]):
        y[int(rng.integers(0, p))] *= -1.0
    return k, y


def separable_clusters(rng, per_class=4, gap=6.0):
    """Two tight 1-d clusters; the Gaussian kernel separates them easily."""
    x = np.concatenate([rng.normal(0.0, 0.1, per_class), rng.normal(gap, 0.1, per_class)])
    y = np.concatenate([-np.ones(per_class), np.ones(per_class)])
    diff = x[:, None] - x[None, :]
    return np.exp(-(diff**2)), y


class TestTrainBinary:
    def test_two_point_dual(self):
        model = train_binary(TWO_POINT_K, TWO_POINT_Y, SvmParams(c=10.0))
        assert model.alpha == pytest.approx([0.5, 0.5], abs=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-9)
        assert model.converged

    def test_label_flip_symmetry(self):
        a = train_binary(TWO_POINT_K, TWO_POINT_Y, SvmParams(c=10.0))
        b = train_binary(TWO_POINT_K, -TWO_POINT_Y, SvmParams(c=10.0))
        assert b.alpha == pytest.approx(a.alpha, abs=1e-12)
        q = np.array([[1.0, -1.0]])
        assert decision(b, q)[0] == pytest.approx(-decision(a, q)[0], abs=1e-9)

    def test_separable_with_huge_c(self, rng):
        k, y = separable_clusters(rng)
        model = train_binary(k, y, SvmParams(c=1e6))
        pred = np.sign(decision(model, k))
        assert accuracy(pred, y) == 1.0

    def test_single_class_rejected(self):
        for sign in (1.0, -1.0):
            with pytest.raises(DataError, match="training labels contain a single class"):
                train_binary(np.eye(3), sign * np.ones(3), SvmParams())

    @pytest.mark.parametrize("bad", [0.0, 2.0, np.nan, 1.0000001])
    def test_label_other_than_plus_minus_one_rejected(self, bad):
        with pytest.raises(DataError, match="binary labels must be -1/\\+1"):
            train_binary(np.eye(4), [1.0, -1.0, bad, 1.0], SvmParams())

    def test_asymmetric_kernel_rejected(self):
        k = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ShapeError):
            train_binary(k, TWO_POINT_Y, SvmParams())

    def test_kernel_asymmetric_beyond_symmetry_tol_rejected(self):
        # the tolerance GramMatrix and train_multiclass apply to a raw array
        k = np.eye(2)
        k[0, 1] += 1e-9
        with pytest.raises(ShapeError, match="asymmetric"):
            train_binary(k, TWO_POINT_Y, SvmParams())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_kernel_is_data_error_without_warning(self, value):
        # a NaN asymmetry compares False against the tolerance; it must not train
        k = np.eye(4)
        k[0, 1] = k[1, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="non-finite") as raised:
                train_binary(k, [1, 1, -1, -1], SvmParams())
        assert raised.type is DataError

    def test_raw_kernel_is_checked_in_one_pass(self, rng, symmetry_passes):
        k, y = separable_clusters(rng)
        train_binary(k, y, SvmParams())
        assert symmetry_passes == [k.shape]

    def test_checked_block_and_raw_block_give_equal_models(self, rng, symmetry_passes):
        k, labels = three_class_clusters(rng, per_class=6)
        idx = np.flatnonzero(labels != 1)
        block = GramMatrix._checked(submatrix(GramMatrix(k, "K1"), idx, idx), "K1")
        y = np.where(labels[idx] == 0, -1.0, 1.0)
        raw = train_binary(np.array(block.values), y, SvmParams(), np.random.default_rng(3))
        symmetry_passes.clear()
        checked = train_binary(block, y, SvmParams(), np.random.default_rng(3))
        assert symmetry_passes == []  # the block keeps the check of the matrix it was cut from
        assert np.array_equal(checked.alpha, raw.alpha) and checked.bias == raw.bias
        assert checked.converged == raw.converged

    def test_rng_must_be_a_generator(self):
        # a legacy RandomState draws permutations but has no Generator.permuted
        with pytest.raises(ParameterError, match="numpy.random.Generator"):
            train_binary(TWO_POINT_K, TWO_POINT_Y, SvmParams(), np.random.RandomState(0))

    def test_zero_passes_flags_non_converged(self):
        model = train_binary(TWO_POINT_K, TWO_POINT_Y, SvmParams(max_passes=0))
        assert not model.converged
        assert np.array_equal(model.alpha, np.zeros(2))

    def test_feasibility_invariants(self, rng):
        for trial in range(25):
            k, y = random_binary_problem(rng)
            c = (1.0, 10.0)[trial % 2]
            model = train_binary(k, y, SvmParams(c=c), np.random.default_rng(trial))
            assert np.all(model.alpha >= 0.0) and np.all(model.alpha <= c)
            assert abs(np.sum(model.alpha * y)) <= 1e-8

    def test_objective_matches_oracle(self, rng):
        params = SvmParams(c=10.0, kkt_tol=1e-5, max_passes=500)
        for trial in range(8):
            k, y = random_binary_problem(rng, max_points=4)
            model = train_binary(k, y, params, np.random.default_rng(trial))
            smo = dual_objective(k, y, model.alpha)
            oracle, _ = brute_force_dual_max(k, y, 10.0)
            assert smo >= oracle - 1e-3

    def test_free_support_vectors_hit_their_labels(self, rng):
        k, y = separable_clusters(rng)
        params = SvmParams(c=10.0)
        model = train_binary(k, y, params)
        assert model.converged
        free = (model.alpha > params.eps) & (model.alpha < params.c - params.eps)
        f = decision(model, k)
        assert np.all(np.abs(f[free] - y[free]) <= params.kkt_tol)

    def test_training_order_does_not_change_predictions(self, rng):
        k, y = separable_clusters(rng)
        perm = rng.permutation(y.size)
        a = train_binary(k, y, SvmParams(), np.random.default_rng(5))
        b = train_binary(k[np.ix_(perm, perm)], y[perm], SvmParams(), np.random.default_rng(5))
        pred_a = np.sign(decision(a, k))
        pred_b = np.sign(decision(b, k[:, perm]))
        assert np.array_equal(pred_a, pred_b)

    def test_constant_kernel_shift_keeps_prediction_signs(self, rng):
        k, y = separable_clusters(rng)
        shifted = k + 3.0
        a = train_binary(k, y, SvmParams())
        b = train_binary(shifted, y, SvmParams())
        assert np.array_equal(np.sign(decision(a, k)), np.sign(decision(b, shifted)))

    def test_params_validated(self):
        with pytest.raises(ParameterError):
            SvmParams(c=0.0)
        with pytest.raises(ParameterError):
            SvmParams(kkt_tol=0.0)
        with pytest.raises(ParameterError):
            SvmParams(max_passes=-1)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_eps_must_be_positive_and_finite(self, eps):
        # with a NaN or infinite eps, train_multiclass would flag its models converged whatever they are
        with pytest.raises(ParameterError, match="eps must be positive and finite"):
            SvmParams(eps=eps)

    @pytest.mark.parametrize("max_passes", [float("inf"), 5.0, True, "5", None])
    def test_max_passes_must_be_an_int(self, max_passes):
        # an infinite float would lift the pass cap
        with pytest.raises(ParameterError, match="max_passes must be an int"):
            SvmParams(max_passes=max_passes)


class TestDecision:
    def test_zero_alpha_gives_bias(self):
        model = SvmModel(
            alpha=np.zeros(3), bias=0.7, train_labels=np.array([-1.0, 1.0, 1.0]),
            params=SvmParams(), converged=True,
        )
        assert decision(model, np.zeros((4, 3))) == pytest.approx([0.7] * 4)

    def test_two_point_model_on_training_row(self):
        model = train_binary(TWO_POINT_K, TWO_POINT_Y, SvmParams(c=10.0))
        assert decision(model, np.array([[1.0, -1.0]]))[0] == pytest.approx(-1.0, abs=1e-9)

    def test_column_mismatch(self):
        model = train_binary(TWO_POINT_K, TWO_POINT_Y, SvmParams())
        with pytest.raises(ShapeError):
            decision(model, np.zeros((1, 3)))


def three_class_clusters(rng, per_class=4, gap=8.0):
    centers = np.array([0.0, gap, 2 * gap])
    labels = np.repeat([0, 1, 2], per_class)
    x = centers[labels] + rng.normal(0.0, 0.1, labels.size)
    diff = x[:, None] - x[None, :]
    return np.exp(-(diff**2) / 4.0), labels


class TestMulticlass:
    @pytest.mark.parametrize("n_classes,expected", [(2, 1), (5, 10), (101, 5050)])
    def test_pair_model_count(self, n_classes, expected):
        # two points per class, trivially separated clusters
        labels = np.repeat(np.arange(n_classes), 2)
        m = labels.size
        same = labels[:, None] == labels[None, :]
        k = np.where(same, 1.0, 0.01)
        np.fill_diagonal(k, 1.0)
        model = train_multiclass(k, labels, np.arange(m), SvmParams(max_passes=20))
        assert len(model.models) == expected
        assert len(model.pairs) == expected

    def test_two_class_prediction_is_decision_sign(self, rng):
        k, y = separable_clusters(rng)
        labels = np.where(y < 0, 3, 7)
        model = train_multiclass(k, labels, np.arange(labels.size), SvmParams())
        pred = predict(model, k)
        f = decision(model.models[0], k)
        assert np.array_equal(pred, np.where(f > 0, 7, 3))

    def test_training_points_recovered(self, rng):
        k, labels = three_class_clusters(rng)
        idx = np.arange(labels.size)
        model = train_multiclass(k, labels, idx, SvmParams())
        assert np.array_equal(predict(model, k), labels)

    def test_pair_membership(self, rng):
        k, labels = three_class_clusters(rng)
        idx = np.arange(labels.size)
        model = train_multiclass(k, labels, idx, SvmParams())
        for (a, b), pos in zip(model.pairs, model.pair_positions):
            assert set(labels[idx[pos]]) == {a, b}

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            train_multiclass(np.eye(4), np.zeros(4, dtype=int), np.arange(4), SvmParams())

    @pytest.mark.parametrize("n_labels", [4, 8])
    def test_labels_must_number_the_kernels_items(self, rng, n_labels):
        k, labels = three_class_clusters(rng, per_class=2)
        with pytest.raises(ShapeError, match=f"^{n_labels} labels for a kernel of 6 items$"):
            train_multiclass(k, np.resize(labels, n_labels), np.arange(4), SvmParams())

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_out_of_range_train_idx_is_an_index_error(self, rng, bad):
        # the message is the id check's, not numpy's: a negative id would wrap, an id >= m read past the labels
        k, labels = three_class_clusters(rng, per_class=2)
        with pytest.raises(IndexError, match="^train index out of range for size 6$"):
            train_multiclass(k, labels, [0, 1, 2, bad], SvmParams())

    def test_raw_kernel_is_checked_once(self, rng, symmetry_passes):
        k, labels = three_class_clusters(rng)
        model = train_multiclass(k, labels, np.arange(labels.size), SvmParams())
        assert len(model.models) == 3 and symmetry_passes == [k.shape]

    def test_raw_kernel_asymmetric_beyond_symmetry_tol_is_shape_error(self, rng):
        k, labels = three_class_clusters(rng)
        k[0, 1] += 1e-9  # beyond SYMMETRY_TOL
        with pytest.raises(ShapeError, match="asymmetric"):
            train_multiclass(k, labels, np.arange(labels.size), SvmParams())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_raw_kernel_is_data_error(self, rng, value):
        k, labels = three_class_clusters(rng)
        k[0, 5] = k[5, 0] = value
        with pytest.raises(DataError, match="non-finite") as raised:
            train_multiclass(k, labels, np.arange(labels.size), SvmParams())
        assert raised.type is DataError

    def test_circular_tie_broken_by_margin(self):
        # alpha = 0 makes each pair decision a constant equal to its bias:
        # pair (0,1) votes 1 with margin 1.0, (0,2) votes 0 with 0.5, (1,2) votes 2 with 0.2
        params = SvmParams()

        def constant_model(bias):
            return SvmModel(
                alpha=np.zeros(2), bias=bias, train_labels=np.array([-1.0, 1.0]),
                params=params, converged=True,
            )

        from kernelforge.svm import MulticlassModel

        model = MulticlassModel(
            class_labels=[0, 1, 2],
            pairs=[(0, 1), (0, 2), (1, 2)],
            models=[constant_model(1.0), constant_model(-0.5), constant_model(0.2)],
            pair_positions=[np.array([0, 1]), np.array([2, 3]), np.array([4, 5])],
            params=params,
        )
        pred = predict(model, np.zeros((1, 6)))
        assert pred[0] == 1

    def test_vote_tie_margin_tie_goes_to_smaller_class(self):
        params = SvmParams()

        def constant_model(bias):
            return SvmModel(
                alpha=np.zeros(2), bias=bias, train_labels=np.array([-1.0, 1.0]),
                params=params, converged=True,
            )

        from kernelforge.svm import MulticlassModel

        model = MulticlassModel(
            class_labels=[0, 1, 2],
            pairs=[(0, 1), (0, 2), (1, 2)],
            models=[constant_model(1.0), constant_model(-1.0), constant_model(1.0)],
            pair_positions=[np.array([0, 1]), np.array([2, 3]), np.array([4, 5])],
            params=params,
        )
        # votes: 1, 0, 2 -> all tied at one vote with margin 1.0 each
        assert predict(model, np.zeros((1, 6)))[0] == 0


def reference_vote(model, decisions):
    """The vote as a loop over rows of pair decisions: most votes, then the largest
    margin sum among the tied classes (a NaN sum ranking above every number, as in
    numpy's argmax), then the first of those in class_labels."""
    out = []
    for row in decisions:
        votes = dict.fromkeys(model.class_labels, 0)
        margins = dict.fromkeys(model.class_labels, 0.0)
        for (a, b), f in zip(model.pairs, row):
            winner = b if f > 0 else a
            votes[winner] += 1
            margins[winner] += abs(f)
        tied = [c for c in model.class_labels if votes[c] == max(votes.values())]
        out.append(max(tied, key=lambda c: (np.isnan(margins[c]), np.nan_to_num(margins[c]))))
    return np.array(out)


def reference_predict(model, q, train_idx):
    """predict as a loop over rows, each pair deciding by ``decision`` on its own points."""
    decisions = [
        [decision(mdl, row[train_idx[pos]][None, :])[0] for mdl, pos in zip(model.models, model.pair_positions)]
        for row in q
    ]
    return reference_vote(model, decisions)


class TestPredictTies:
    def test_matches_per_row_reference(self, rng):
        # each pair decides by q[:, j] - q[:, i] + bias on values in steps of 1/2, so
        # decisions of 0 (a vote for the smaller class), vote ties and margin ties are common
        params = SvmParams()
        classes = [2, 5, 7, 9]
        pairs = list(combinations(classes, 2))
        models = [
            SvmModel(np.ones(2), float(bias), np.array([-1.0, 1.0]), params, True)
            for bias in rng.choice([-0.5, 0.0, 0.5], size=len(pairs))
        ]
        positions = [np.array([2 * n, 2 * n + 1]) for n in range(len(pairs))]
        model = MulticlassModel(classes, pairs, models, positions, params)
        train_idx = rng.permutation(2 * len(pairs))
        q = rng.choice([0.0, 0.5, 1.0], size=(2000, train_idx.size))
        expected = reference_predict(model, q, train_idx)
        assert np.array_equal(predict(model, q[:, train_idx]), expected)  # the block of the training columns
        assert set(expected) == set(classes)
        votes = np.zeros((q.shape[0], len(classes)), dtype=int)
        for (a, b), mdl, pos in zip(pairs, models, positions):
            f = decision(mdl, q[:, train_idx[pos]])
            votes[np.arange(q.shape[0]), np.where(f > 0, classes.index(b), classes.index(a))] += 1
        assert (np.sum(votes == votes.max(axis=1, keepdims=True), axis=1) > 1).mean() > 0.2

    def test_vote_on_zero_and_nan_decisions_matches_per_row_reference(self, rng):
        # a decision of 0.0 or -0.0 is a vote for the smaller class with a margin of +0.0,
        # and a NaN one a vote for the smaller class whose margin sum turns NaN
        params = SvmParams()
        classes = [2, 5, 7, 9]
        pairs = list(combinations(classes, 2))
        models = [SvmModel(np.ones(2), 0.0, np.array([-1.0, 1.0]), params, True) for _ in pairs]
        positions = [np.array([2 * n, 2 * n + 1]) for n in range(len(pairs))]
        model = MulticlassModel(classes, pairs, models, positions, params)
        decisions = rng.choice([0.0, -0.0, np.nan, 0.5, -0.5, 1.0], size=(4000, len(pairs)))
        assert np.signbit(decisions[decisions == 0.0]).any() and np.isnan(decisions).any()
        expected = reference_vote(model, decisions)
        assert np.array_equal(_vote(model, decisions), expected)
        assert set(expected) == set(classes)
        for value in (0.0, -0.0, np.nan):  # each alone: every pair's smaller class wins
            assert np.array_equal(_vote(model, np.full((1, len(pairs)), value)), reference_vote(model, [[value] * len(pairs)]))

    @pytest.mark.parametrize("shuffled", [False, True], ids=["pairs-in-order", "pairs-shuffled"])
    def test_vote_sums_margins_in_pair_order(self, rng, shuffled):
        # 1 + 2**-53 rounds back to 1, so a margin of 1, 2**-53, 2**-53 depends on the order of
        # its terms; vote ties are common with 5 classes, and the reference adds in pair order
        params = SvmParams()
        classes = [1, 3, 4, 6, 8]
        pairs = list(combinations(classes, 2))
        if shuffled:  # a model read from a file may list its pairs in any order
            pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        model = MulticlassModel(classes, pairs, [None] * len(pairs), [None] * len(pairs), params)
        sizes = rng.choice([1.0, 0.5, 2.0**-53, 2.0**-52, 3 * 2.0**-53], size=(6000, len(pairs)))
        decisions = sizes * rng.choice([-1.0, 1.0], size=sizes.shape)
        assert np.array_equal(_vote(model, decisions), reference_vote(model, decisions))

    def test_empty_query_gives_empty_prediction(self, rng):
        k, labels = three_class_clusters(rng)
        idx = np.arange(labels.size)
        model = train_multiclass(k, labels, idx, SvmParams())
        assert predict(model, np.zeros((0, idx.size))).shape == (0,)


def run_shaped_bank(noise_views):
    """The benchmark's bank shapes at m = 180: the two XOR views of xor-small,
    plus the standard-normal noise views of wide-bank."""
    views, labels = xor_views(60, seed=1)
    rng = np.random.default_rng([7, 0])
    views += [rng.standard_normal((labels.size, 2)) for _ in range(noise_views)]
    return build_bank(views)[0], labels


def assert_matches_the_numpy_loop(k, y, params, seed):
    """train_binary against oracles.numpy_platt_smo: alphas, bias and flag bit for bit."""
    mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    model = train_binary(k, y, params, mine)
    alpha, bias, converged = numpy_platt_smo(k, y, params.c, params.kkt_tol, params.max_passes, params.eps, ref)
    assert model.alpha.tobytes() == alpha.tobytes()  # the sign of a zero too
    assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes()
    assert model.converged == converged
    return model


class TestNumpyReference:
    """train_binary runs Platt's loop on Python floats; its iterates are the
    numpy formulation's (oracles.numpy_platt_smo) bit for bit, on PSD blocks and
    on the indefinite ones whose pair directions can curve the wrong way (eta < 0)."""

    @settings(max_examples=150)
    @given(
        p=st.integers(2, 30),
        duplicates=st.integers(0, 5),
        indefinite=st.booleans(),
        asymmetry=st.sampled_from([0.0, 0.5 * SYMMETRY_TOL]),
        normalized=st.booleans(),
        log_c=st.floats(-2.0, 4.0),
        max_passes=st.sampled_from([0, 1, 2, 500]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_numpy_loop_bitwise(
        self, p, duplicates, indefinite, asymmetry, normalized, log_c, max_passes, seed
    ):
        draw = np.random.default_rng(seed)
        k = random_psd(p, draw, normalized)
        if indefinite:  # a symmetric block with negative eigenvalues, where many pairs have eta < 0
            g = draw.standard_normal((p, p))
            k = 0.5 * (g + g.T)
        for _ in range(duplicates):  # a repeated point makes a flat pair direction, eta = 0
            a, b = draw.integers(0, p, size=2)
            k[b, :] = k[a, :]
            k[:, b] = k[:, a]
        # a raw array that stays within SYMMETRY_TOL of symmetric, which the solver
        # reads as given: k[i, j] and column j keep their own bits
        k = k + np.triu(draw.uniform(-asymmetry, asymmetry, (p, p)), 1)
        y = np.where(draw.random(p) < 0.5, -1.0, 1.0)
        y[0] = -y[1]
        assert_matches_the_numpy_loop(k, y, SvmParams(c=10.0**log_c, max_passes=max_passes), seed + 1)

    def test_negative_eta_steps_to_a_clip_end(self):
        # eta = 1 + 1 - 2 * 2 = -2: the dual is convex along the pair's direction, so only
        # the eta <= 0 branch, which compares the objective at both clip ends, can move it;
        # the dual grows without bound there, so both alphas reach C
        k, y = np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([-1.0, 1.0])
        model = assert_matches_the_numpy_loop(k, y, SvmParams(c=3.0), seed=5)
        assert model.alpha.tolist() == [3.0, 3.0] and model.converged


def kkt_case(draw, p: int, c: float, free: bool, sides: str, eps: float = 1e-12):
    """alpha, g, y of length p for the KKT test: alphas at 0, at C, within eps of either
    bound and (if free) strictly inside; gradients that hit y exactly (margin +0.0) or
    are +-0.0.  Without free alphas, sides picks which bounds of b are present: "both",
    "lower" (alpha 0 with y = +1, alpha C with y = -1) or "upper" (the other two)."""
    y = np.where(draw.random(p) < 0.5, -1.0, 1.0)
    at_zero = draw.random(p) < 0.5
    if sides == "lower":
        at_zero = y > 0
    elif sides == "upper":
        at_zero = y < 0
    alpha = np.where(at_zero, draw.choice([0.0, 0.5 * eps, eps], p), draw.choice([c, c - 0.5 * eps, c - eps], p))
    if free:
        inside = draw.random(p) < 0.7
        inside[draw.integers(0, p)] = True
        alpha = np.where(inside, draw.uniform(2 * eps, c - 2 * eps, p), alpha)
    g = y + draw.normal(0.0, draw.choice([1e-4, 1e-2, 1.0]), p)
    g = np.where(draw.random(p) < 0.2, y, g)  # margin y - g = +0.0, and y (g + b - y) = +-0.0 at b = 0
    g = np.where(draw.random(p) < 0.1, draw.choice([0.0, -0.0], p), g)
    return alpha, g, y


class TestKktOnLists:
    """train_binary's convergence test runs on its lists of Python floats; the bias and
    the violators it finds are the numpy formulation's (oracles.numpy_final_bias,
    numpy_violators) bit for bit.  p runs from 1 to 130, past the sizes (8 and 128) at
    which numpy's pairwise sum, which np.mean uses, changes its blocking."""

    @pytest.mark.parametrize("case", ["free", "both", "lower", "upper"])
    def test_bias_then_violators_match_numpy(self, case):
        draw = np.random.default_rng(["free", "both", "lower", "upper"].index(case))
        eps = 1e-12
        for p in range(1, 131):
            for c in (0.1, 1.0, 10.0, 100.0, float(draw.uniform(0.01, 50.0))):
                alpha, g, y = kkt_case(draw, p, c, case == "free", "both" if case == "free" else case, eps)
                b = svm_mod._final_bias(alpha.tolist(), g.tolist(), y.tolist(), c, eps)
                ref = numpy_final_bias(alpha, g, y, c, eps)
                assert np.float64(b).tobytes() == np.float64(ref).tobytes(), (case, p, c)
                for tol in (1e-3, 1e-5):
                    for bias in (b, 0.0, -0.0):
                        mine = svm_mod._violators(alpha.tolist(), g.tolist(), bias, y.tolist(), c, tol, eps)
                        assert mine == _violators(alpha, g, bias, y, c, tol, eps).tolist(), (case, p, c, bias)

    def test_bound_sides(self):
        # with no free alpha, b is the midpoint of the bounds present, or the one bound
        alpha, y = [0.0, 0.0], [1.0, -1.0]
        assert svm_mod._final_bias(alpha, [0.5, -0.25], y, 1.0, 1e-12) == 0.5 * ((1.0 - 0.5) + (-1.0 + 0.25))
        assert svm_mod._final_bias([0.0], [0.5], [1.0], 1.0, 1e-12) == 0.5
        assert svm_mod._final_bias([0.0], [0.5], [-1.0], 1.0, 1e-12) == -1.5
        assert np.float64(svm_mod._final_bias([0.0, 1.0], [1.0, 1.0], [1.0, 1.0], 1.0, 1e-12)).tobytes() == (
            np.float64(0.0).tobytes()
        )


class TestPartnerBlocks:
    """The numpy stream property train_binary's block draws rest on: the rows of
    Generator.permuted are successive Generator.permutation draws."""

    @pytest.mark.parametrize("height", [1, 37, _PERM_BLOCK], ids=["one-row", "partial", "full"])
    def test_block_rows_are_successive_permutations(self, height):
        for p in range(2, 81):
            blocks, draws = np.random.default_rng([p, height]), np.random.default_rng([p, height])
            rows = np.broadcast_to(np.arange(p), (height, p))
            for _ in range(2):  # a second block goes on where the first left the stream
                expected = np.array([draws.permutation(p) for _ in range(height)])
                assert np.array_equal(blocks.permuted(rows, axis=1), expected), p


class TestOracleAtRunSizes:
    """SMO against the interior-point oracle on the class-pair problems a run
    solves: pools of 10, 20 and 40 per class give p = 20, 40 and 80."""

    # kkt_tol = 1e-3 stops SMO with every KKT residual within 1e-3, which leaves
    # a relative shortfall of that order in the objective (at most 3e-4 here)
    SHORTFALL = 1e-3

    def test_oracle_matches_brute_force_on_small_problems(self, rng):
        for trial in range(6):
            k, y = random_binary_problem(rng, max_points=4)
            c = (0.1, 1.0, 10.0)[trial % 3]
            grid, _ = brute_force_dual_max(k, y, c)
            optimum, alpha, gap = interior_point_dual_max(k, y, c)
            assert np.all((alpha > 0) & (alpha < c)) and abs(alpha @ y) <= 1e-9
            assert grid - 1e-9 <= optimum + gap and optimum == pytest.approx(grid, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize(
        "noise_views,exprs,pools,max_unconverged",
        [
            (0, ["(* K1 K2)", "(+ K1 K2)"], (10, 20, 40), 0),
            # the Platt loop stops at max_passes on four of these problems, all at
            # p = 40 and C >= 10; the model says so and fit_predict refuses it
            (4, ["(+ K3 (* K1 K2))", "(* (+ K1 K4) K2)"], (10, 20), 4),
        ],
        ids=["xor-small-shaped", "wide-bank-shaped"],
    )
    def test_smo_reaches_the_oracle_optimum(self, noise_views, exprs, pools, max_unconverged):
        bank, labels = run_shaped_bank(noise_views)
        solved, unconverged = 0, 0
        for pool in pools:
            split = make_splits(labels, pool, 1, 1, 7)[0]
            fit = np.asarray(split.train_idx + split.val_idx)
            for text in exprs:
                gram = evaluate(parse_expr(text), bank)
                for c in C_GRID:
                    params = SvmParams(c=c)
                    multi = train_multiclass(gram, labels, fit, params, seed=0)
                    for (a, b), pos, model in zip(multi.pairs, multi.pair_positions, multi.models):
                        k = gram.values[np.ix_(fit[pos], fit[pos])]
                        y = model.train_labels
                        mine, ref = derived_rng(0, "pair", a, b), derived_rng(0, "pair", a, b)
                        raw = train_binary(k, y, params, mine)
                        assert np.array_equal(raw.alpha, model.alpha) and raw.bias == model.bias
                        assert raw.converged == model.converged
                        # bit for bit the numpy formulation, over many partner blocks per problem
                        alpha, bias, converged = numpy_platt_smo(k, y, c, params.kkt_tol, params.max_passes, params.eps, ref)
                        assert raw.alpha.tobytes() == alpha.tobytes(), (text, c, pool)
                        assert np.float64(raw.bias).tobytes() == np.float64(bias).tobytes(), (text, c, pool)
                        assert raw.converged == converged
                        g = k @ (model.alpha * y)
                        violators = _violators(model.alpha, g, model.bias, y, c, params.kkt_tol, params.eps)
                        solved += 1
                        if not model.converged:
                            assert violators.size > 0
                            unconverged += 1
                            continue
                        assert violators.size == 0
                        optimum, _, gap = interior_point_dual_max(k, y, c)
                        smo = dual_objective(k, y, model.alpha)
                        scale = max(1.0, abs(optimum))
                        assert optimum - self.SHORTFALL * scale <= smo <= optimum + gap + 1e-9 * scale, (text, c, pool)
        assert solved == 3 * len(pools) * len(exprs) * len(C_GRID)
        assert unconverged <= max_unconverged


class TestFitPredict:
    def test_equals_train_then_predict(self, rng):
        k, labels = three_class_clusters(rng)
        fit, held = np.arange(0, labels.size, 2), np.arange(1, labels.size, 2)
        gram = GramMatrix(k, "K1")
        pred, model, decisions = fit_predict_rows(gram, labels, fit, submatrix(gram, held, fit), SvmParams(), seed=4)
        reference = train_multiclass(k, labels, fit, SvmParams(), seed=4)
        assert np.array_equal(pred, predict(reference, k[np.ix_(held, fit)]))
        assert all(np.array_equal(a.alpha, b.alpha) for a, b in zip(model.models, reference.models))
        # one column per pair, in model.pairs order: the decision the vote read
        q = k[np.ix_(held, fit)]
        expected = [decision(mdl, q[:, pos]) for mdl, pos in zip(reference.models, reference.pair_positions)]
        assert decisions.tobytes() == np.stack(expected, axis=1).tobytes()

    def test_block_prediction_equals_full_rows_and_training_indices(self, rng):
        # predict reads the held x fit block; the oracle maps columns through the training indices
        k, labels = three_class_clusters(rng, per_class=8)
        fit = rng.permutation(labels.size)[: labels.size // 2]
        model = train_multiclass(k, labels, fit, SvmParams(), seed=2)
        held = np.setdiff1d(np.arange(labels.size), fit)
        assert np.array_equal(predict(model, k[np.ix_(held, fit)]), reference_predict(model, k[held], fit))

    def test_unconverged_model_raises(self, rng):
        k, labels = three_class_clusters(rng)
        idx = np.arange(labels.size)
        with pytest.raises(NumericalError, match="kernel 'K1' did not converge"):
            gram = GramMatrix(k, "K1")
            fit_predict_rows(gram, labels, idx, submatrix(gram, idx, idx), SvmParams(max_passes=0), seed=0)


class TestPredictWidth:
    """predict reads a held x fit block exactly as wide as the training set, 1 + max pair
    position, and refuses any other width, on a trained model and on one read back from its file."""

    @pytest.mark.parametrize("width_change", [1, -1], ids=["one-column-too-many", "one-column-too-few"])
    def test_other_widths_raise(self, rng, tmp_path, width_change):
        k, labels = three_class_clusters(rng)
        fit, held = np.arange(0, labels.size, 2), np.arange(1, labels.size, 2)
        trained = train_multiclass(k, labels, fit, SvmParams(), seed=1)
        save_multiclass(tmp_path / "model.json", trained)
        rows = k[np.ix_(held, fit)]
        wrong = np.hstack([rows, rows[:, :1]]) if width_change > 0 else rows[:, :-1]
        for model in (trained, load_multiclass(tmp_path / "model.json")):
            assert predict(model, rows).tolist() == predict(trained, rows).tolist()
            message = f"{fit.size + width_change} columns; the model was trained on {fit.size} points"
            with pytest.raises(ShapeError, match=message):
                predict(model, wrong)


class TestAccuracy:
    def test_identical(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_fully_mismatched(self):
        assert accuracy([1, 1], [2, 2]) == 0.0

    def test_three_of_four(self):
        assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            accuracy([1, 2], [1, 2, 3])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            accuracy([], [])


class TestSerialization:
    def test_round_trip_decisions_exact(self, rng, tmp_path):
        k, labels = three_class_clusters(rng)
        idx = np.arange(labels.size)
        model = train_multiclass(k, labels, idx, SvmParams(), seed=3)
        path = tmp_path / "model.json"
        save_multiclass(path, model)
        loaded = load_multiclass(path)
        assert loaded.class_labels == model.class_labels
        assert loaded.pairs == model.pairs
        for a, b in zip(loaded.models, model.models):
            assert np.array_equal(a.alpha, b.alpha)
            assert a.bias == b.bias
            assert np.array_equal(a.support_idx, b.support_idx)
        q = rng.standard_normal((3, labels.size))
        for a, b, pos in zip(loaded.models, model.models, model.pair_positions):
            cols = idx[pos]
            assert np.max(np.abs(decision(a, q[:, cols]) - decision(b, q[:, cols]))) <= 1e-12
        assert np.array_equal(predict(loaded, k), predict(model, k))

    def test_dict_round_trip_preserves_doc(self, rng):
        k, labels = three_class_clusters(rng)
        model = train_multiclass(k, labels, np.arange(labels.size), SvmParams())
        doc = multiclass_to_dict(model)
        again = multiclass_to_dict(multiclass_from_dict(json.loads(json.dumps(doc))))
        assert again == doc


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def multiclass_models(draw):
    """Arbitrary well-formed models: any finite alphas, biases and positions."""
    classes = sorted(draw(st.sets(st.integers(-5, 5), min_size=2, max_size=4)))
    params = SvmParams(
        c=draw(st.floats(1e-3, 1e3)),
        kkt_tol=draw(st.floats(1e-6, 0.1)),
        max_passes=draw(st.integers(0, 1000)),
        eps=draw(st.floats(1e-15, 1e-6)),
    )
    pairs, models, positions = [], [], []
    for pair in combinations(classes, 2):
        n = draw(st.integers(1, 5))
        vectors = st.lists(finite, min_size=n, max_size=n)
        labels = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
        model = SvmModel(np.array(draw(vectors)), draw(finite), np.array(labels), params, draw(st.booleans()))
        pairs.append(pair)
        models.append(model)
        positions.append(np.array(draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))))
    return MulticlassModel(classes, pairs, models, positions, params)


class TestModelDocument:
    @given(multiclass_models())
    def test_round_trip(self, model):
        doc = multiclass_to_dict(model)
        again = multiclass_from_dict(json.loads(json.dumps(doc)))
        assert multiclass_to_dict(again) == doc
        assert again.pairs == model.pairs and again.params == model.params

    @given(multiclass_models(), st.data())
    def test_corruption_rejected(self, model, data):
        doc = corrupted(data, json.loads(json.dumps(multiclass_to_dict(model))))
        with pytest.raises(DataError):
            multiclass_from_dict(doc)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["pairs"][0].pop("bias"),  # missing key
            lambda doc: doc["params"].update(gamma=1.0),  # unknown params key
            lambda doc: doc["params"].update(c="10"),  # string C
            lambda doc: doc["params"].update(c=-1.0),  # C out of range
            lambda doc: doc["pairs"][0].update(converged="yes"),
            lambda doc: doc["pairs"][0]["labels"].append(1.0),  # lengths disagree
            lambda doc: doc["pairs"][0].update(classes=[0, 7]),  # class not in class_labels
            lambda doc: doc.update(schema="kf-model-0"),
        ],
    )
    def test_malformed_file_is_data_error(self, rng, tmp_path, corrupt):
        k, labels = three_class_clusters(rng)
        doc = multiclass_to_dict(train_multiclass(k, labels, np.arange(labels.size), SvmParams()))
        corrupt(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_multiclass(path)

    @pytest.mark.parametrize("text", [b"{", b"\xff\xfe\x00", b"[]", None])
    def test_undecodable_file_is_data_error(self, tmp_path, text):
        path = tmp_path / "model.json"
        if text is not None:  # None: no file at all
            path.write_bytes(text)
        with pytest.raises(DataError, match="^" + re.escape(f"{path}: ")):
            load_multiclass(path)
