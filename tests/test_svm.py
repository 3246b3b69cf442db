import json
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernelforge import (
    DataError,
    GramMatrix,
    NumericalError,
    ParameterError,
    ShapeError,
    SvmParams,
    accuracy,
    decision,
    dual_objective,
    fit_predict,
    predict,
    train_binary,
    train_multiclass,
)
from kernelforge.expr import evaluate, parse_expr
from kernelforge.gram import build_bank
from kernelforge.harness import C_GRID, make_splits
from kernelforge.rng import derived_rng
from kernelforge.svm import (
    MulticlassModel,
    SvmModel,
    _violators,
    load_multiclass,
    multiclass_from_dict,
    multiclass_to_dict,
    save_multiclass,
)
from kernelforge.synthetic import xor_views

from jsondocs import corrupted
from oracles import brute_force_dual_max, interior_point_dual_max, random_psd

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
        with pytest.raises(DataError):
            train_binary(np.eye(3), np.ones(3), SvmParams())

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
        block = GramMatrix(k, "K1").restrict(idx)
        y = np.where(labels[idx] == 0, -1.0, 1.0)
        raw = train_binary(np.array(block.values), y, SvmParams(), np.random.default_rng(3))
        symmetry_passes.clear()
        checked = train_binary(block, y, SvmParams(), np.random.default_rng(3))
        assert symmetry_passes == []  # the block keeps the check of the matrix it was cut from
        assert np.array_equal(checked.alpha, raw.alpha) and checked.bias == raw.bias
        assert checked.converged == raw.converged

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


def reference_predict(model, q, train_idx):
    """predict as a loop over rows: most votes, then the largest margin sum
    among the tied classes, then the first of those in class_labels."""
    out = []
    for row in q:
        votes = dict.fromkeys(model.class_labels, 0)
        margins = dict.fromkeys(model.class_labels, 0.0)
        for (a, b), mdl, pos in zip(model.pairs, model.models, model.pair_positions):
            f = decision(mdl, row[train_idx[pos]][None, :])[0]
            winner = b if f > 0 else a
            votes[winner] += 1
            margins[winner] += abs(f)
        tied = [c for c in model.class_labels if votes[c] == max(votes.values())]
        out.append(next(c for c in tied if margins[c] == max(margins[t] for t in tied)))
    return np.array(out)


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
                        raw = train_binary(k, y, params, derived_rng(0, "pair", a, b))
                        assert np.array_equal(raw.alpha, model.alpha) and raw.bias == model.bias
                        assert raw.converged == model.converged
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
        pred, model = fit_predict(GramMatrix(k, "K1"), labels, fit, held, SvmParams(), seed=4)
        reference = train_multiclass(k, labels, fit, SvmParams(), seed=4)
        assert np.array_equal(pred, predict(reference, k[np.ix_(held, fit)]))
        assert all(np.array_equal(a.alpha, b.alpha) for a, b in zip(model.models, reference.models))

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
            fit_predict(GramMatrix(k, "K1"), labels, idx, idx, SvmParams(max_passes=0), seed=0)


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

    @pytest.mark.parametrize("text", [b"{", b"\xff\xfe\x00", b"[]"])
    def test_undecodable_file_is_data_error(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_bytes(text)
        with pytest.raises(DataError):
            load_multiclass(path)
