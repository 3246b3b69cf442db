import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kernelforge.harness as harness_mod
import kernelforge.svm as svm_mod
from kernelforge import (
    Add,
    ComparisonReport,
    DataError,
    DatasetSplit,
    ExprSyntaxError,
    GpParams,
    GramMatrix,
    KernelBank,
    Leaf,
    NumericalError,
    ParameterError,
    ProtocolConfig,
    ShapeError,
    SplitFitness,
    SvmParams,
    accuracy,
    best_single_kernel,
    build_bank,
    build_index,
    evaluate,
    evolve,
    load_index,
    make_splits,
    parse_expr,
    report_from_json,
    report_to_json,
    run_comparison,
    save_index,
    submatrix,
    summarize,
)
from kernelforge.cli import main as cli_main
from kernelforge.gram import SYMMETRY_TOL
from kernelforge.harness import METHODS, _addition_expr, _select_c, fit_expr, run_repeat, write_comparison_outputs
from kernelforge.rng import derive_seed
from kernelforge.synthetic import xor_bank, xor_views

from jsondocs import corrupted
from oracles import decision, random_psd


def bank_of(matrices):
    grams = tuple(GramMatrix(m) for m in matrices)
    return KernelBank(grams)


class TestMakeSplits:
    def test_pool_split_counts(self):
        labels = np.repeat([0, 1, 2], 30)
        split = make_splits(labels, per_class_train=15, per_class_val=5, repeats=1, seed=0)[0]
        for c in (0, 1, 2):
            cls = np.flatnonzero(labels == c)
            assert sum(i in cls for i in split.train_idx) == 10
            assert sum(i in cls for i in split.val_idx) == 5
            assert sum(i in cls for i in split.test_idx) == 15

    def test_disjoint_and_stratified(self):
        labels = np.repeat([0, 1], 20)
        split = make_splits(labels, 8, 3, 1, seed=1)[0]
        sets = [set(split.train_idx), set(split.val_idx), set(split.test_idx)]
        assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])

    def test_repeats_mostly_distinct(self):
        labels = np.repeat([0, 1], 25)
        splits = make_splits(labels, 10, 3, repeats=10, seed=2)
        distinct = {split.train_idx for split in splits}
        assert len(distinct) >= 9

    def test_same_seed_same_splits(self):
        labels = np.repeat([0, 1, 2], 12)
        a = make_splits(labels, 6, 2, 5, seed=9)
        b = make_splits(labels, 6, 2, 5, seed=9)
        assert a == b

    def test_small_class_named_in_error(self):
        labels = np.array([0] * 20 + [1] * 5)
        with pytest.raises(DataError, match="class 1"):
            make_splits(labels, per_class_train=10, per_class_val=3, repeats=1, seed=0)

    def test_validation_must_leave_training_points(self):
        labels = np.repeat([0, 1], 20)
        with pytest.raises(ParameterError):
            make_splits(labels, per_class_train=5, per_class_val=5, repeats=1, seed=0)

    @pytest.mark.parametrize(
        "sizes",
        [{"repeats": 0}, {"per_class_val": 0}, {"per_class_train": 5, "per_class_val": 5}],
        ids=["no-repeats", "no-validation", "no-training"],
    )
    def test_protocol_checks_its_sizes(self, sizes):
        # checked where the protocol is made, so compare rejects them before it loads the bank
        with pytest.raises(ParameterError):
            ProtocolConfig(**sizes)

    def test_split_rejects_overlap(self):
        with pytest.raises(DataError):
            DatasetSplit((0, 1), (1, 2), (3,), seed=0)


def addition_kernel(bank):
    """The addition baseline's kernel: the bank folded by ``_addition_expr``."""
    return evaluate(_addition_expr(len(bank)), bank)


class TestAdditionKernel:
    def test_single_kernel_bank(self, rng):
        k = random_psd(4, rng)
        assert np.array_equal(addition_kernel(bank_of([k])).values, k)

    def test_five_identities(self):
        bank = bank_of([np.eye(3)] * 5)
        assert np.array_equal(addition_kernel(bank).values, 5 * np.eye(3))

    def test_matches_left_deep_chain(self):
        assert _addition_expr(4) == Add(Add(Add(Leaf(0), Leaf(1)), Leaf(2)), Leaf(3))


class TestBestSingleKernel:
    def test_single_member_bank(self, rng):
        bank, labels = xor_bank(n_per_class=9, seed=1)
        solo = KernelBank((bank.kernels[0],))
        split = make_splits(labels, 6, 2, 1, seed=3)[0]
        idx, acc = best_single_kernel(solo, labels, split, SvmParams())
        assert idx == 0

    def test_informative_kernel_wins(self, rng):
        # K2 mirrors the labels; the identity kernels carry no signal at all
        labels = np.repeat([0, 1], 10)
        same = labels[:, None] == labels[None, :]
        informative = np.where(same, 1.0, 0.05)
        np.fill_diagonal(informative, 1.0)
        bank = bank_of([np.eye(20), informative, np.eye(20)])
        split = make_splits(labels, 6, 2, 1, seed=4)[0]
        idx, acc = best_single_kernel(bank, labels, split, SvmParams())
        assert idx == 1
        assert acc == 1.0

    def test_tie_goes_to_smaller_index(self, rng):
        labels = np.repeat([0, 1], 8)
        same = labels[:, None] == labels[None, :]
        k = np.where(same, 1.0, 0.05)
        np.fill_diagonal(k, 1.0)
        bank = bank_of([k, k.copy()])
        split = make_splits(labels, 5, 2, 1, seed=5)[0]
        idx, _ = best_single_kernel(bank, labels, split, SvmParams())
        assert idx == 0


class TestFitAndScore:
    """fit_expr's final fit: train on train+validation, score once on test."""

    def test_final_test_accuracy_uses_held_out_points(self, monkeypatch):
        bank, labels = xor_bank(n_per_class=12, seed=5)
        split = make_splits(labels, per_class_train=8, per_class_val=3, repeats=1, seed=9)[0]
        params = GpParams(population_size=12, max_generations=8, stagnation_limit=3)
        score = SplitFitness(bank, labels, split)
        result = evolve(score, params, SvmParams(), seed=3)
        calls, real = [], harness_mod.fit_predict_rows

        def fit_predict_rows(fit, fit_labels, fit_idx, rows, *args):
            calls.append((fit, fit_labels, fit_idx.tolist(), rows))
            return real(fit, fit_labels, fit_idx, rows, *args)

        monkeypatch.setattr(harness_mod, "fit_predict_rows", fit_predict_rows)
        acc, _, _ = fit_expr(result.best_expr, score, SvmParams(), grid_search_c=False)
        [(fit, fit_labels, fit_positions, rows)] = calls
        # the fit block's rows and columns are split.fit_idx, train then validation, and
        # the held rows are the test rows: the same cuts of the whole fold, bit for bit
        whole = evaluate(result.best_expr, bank)
        fit_rows, test_rows = [*split.train_idx, *split.val_idx], list(split.test_idx)
        assert fit_rows == split.fit_idx.tolist() and fit_positions == list(range(len(fit_rows)))
        assert fit.values.tobytes() == submatrix(whole, fit_rows, fit_rows).tobytes()
        assert rows.tobytes() == submatrix(whole, test_rows, fit_rows).tobytes()
        assert fit_labels.tolist() == labels[fit_rows].tolist()
        assert not set(fit_rows) & set(split.test_idx)
        assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("grid_search_c", [False, True])
    def test_final_fits_fold_no_m_by_m_array(self, monkeypatch, grid_search_c):
        import kernelforge.expr as expr_mod

        bank, labels = xor_bank(n_per_class=80, seed=4)  # m = 240
        split = make_splits(labels, per_class_train=15, per_class_val=5, repeats=1, seed=2)[0]
        score = SplitFitness(bank, labels, split)
        shapes, real = [], expr_mod._fold

        def fold(node, arrays):
            out = real(node, arrays)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(expr_mod, "_fold", fold)  # the fold's recursion looks _fold up by name
        for text in ("(+ K1 K2)", "K2", "(* (+ K1 K2) (* K1 K2))"):
            fit_expr(parse_expr(text), score, SvmParams(), grid_search_c)
        n_fit, n_test = split.fit_idx.size, len(split.test_idx)
        assert (n_fit + n_test, n_fit) in shapes
        assert max(math.prod(shape) for shape in shapes) <= (n_fit + n_test) * n_fit < bank.size**2

    def test_unconverged_final_model_raises(self):
        bank, labels = xor_bank(n_per_class=12, seed=5)
        split = make_splits(labels, per_class_train=8, per_class_val=3, repeats=1, seed=9)[0]
        with pytest.raises(NumericalError, match="did not converge"):
            fit_expr(Leaf(0), SplitFitness(bank, labels, split), SvmParams(max_passes=0), grid_search_c=False)

    def test_fit_idx_is_read_only(self):
        split = DatasetSplit((4, 0), (2,), (1, 3), seed=0)
        assert split.fit_idx.tolist() == [4, 0, 2]
        with pytest.raises(AttributeError):
            split.fit_idx = np.arange(3)


def near_symmetric_bank():
    """xor_bank's kernels, each raised 0.9 SYMMETRY_TOL above its diagonal: just inside
    the entry check, while their sums and products are further off."""
    built, labels = xor_bank(n_per_class=12, seed=2)
    near = [k.values + np.triu(np.full(k.values.shape, 0.9 * SYMMETRY_TOL), 1) for k in built.kernels]
    return KernelBank(tuple(GramMatrix(v, k.source_tag) for v, k in zip(near, built.kernels))), labels


def small_protocol(repeats=2, seed=21, **kw):
    return ProtocolConfig(per_class_train=8, per_class_val=3, repeats=repeats, seed=seed, **kw)


def small_gp(**kw):
    defaults = dict(population_size=14, max_generations=5, stagnation_limit=3)
    defaults.update(kw)
    return GpParams(**defaults)


def cut_and_decide(model, kernel, labels, split):
    """Each pair's test accuracy as run_comparison once computed it: cut the test x fit
    block again, and decide each pair anew on the test rows of its two classes."""
    out = {}
    test_idx = np.asarray(split.test_idx, dtype=int)
    rows, test_labels = submatrix(kernel, test_idx, split.fit_idx), labels[test_idx]
    for (a, b), mdl, pos in zip(model.pairs, model.models, model.pair_positions):
        sel = np.flatnonzero(np.isin(test_labels, (a, b)))
        if sel.size == 0:
            continue
        f = decision(mdl, rows[np.ix_(sel, pos)])
        out[f"{a}|{b}"] = accuracy(np.where(f > 0, b, a), test_labels[sel])
    return out


class TestPairAccuracies:
    """binary_problems reads each pair's column of the decisions the final fit voted
    with; at run size (m = 180, pools of 15/5) it equals the cut-and-decide reference."""

    @pytest.mark.parametrize("grid_search_c", [False, True])
    def test_binary_problems_equal_the_cut_and_decide_reference(self, grid_search_c):
        bank, labels = xor_bank(n_per_class=60, seed=1)
        protocol = ProtocolConfig(15, 5, repeats=2, seed=3, grid_search_c=grid_search_c)
        report, results = run_comparison(bank, labels, protocol, small_gp(), SvmParams())
        for r, split in enumerate(make_splits(labels, 15, 5, protocol.repeats, protocol.seed)):
            score = SplitFitness(bank, labels, split)
            exprs = (_addition_expr(len(bank)), Leaf(report.best_single_indices[r]), results[r].best_expr)
            for method, expr in zip(METHODS, exprs):
                _, model, _ = fit_expr(expr, score, SvmParams(), grid_search_c)
                reference = cut_and_decide(model, evaluate(expr, bank), labels, split)
                assert {pair: series[r] for pair, series in report.binary_problems[method].items()} == reference
                assert len(reference) == 3  # three classes, each with test points


class TestRunComparison:
    def test_identical_kernels_make_methods_agree(self, rng):
        labels = np.repeat([0, 1], 16)
        same = labels[:, None] == labels[None, :]
        k = np.where(same, 0.9, 0.1)
        np.fill_diagonal(k, 1.0)
        bank = bank_of([k, k.copy(), k.copy()])
        report, _ = run_comparison(bank, labels, small_protocol(), small_gp(), SvmParams())
        accs = [report.mean[m] for m in METHODS]
        spread = max(accs) - min(accs)
        assert spread <= max(max(report.std.values()), 1e-9)

    def test_product_signal_dataset_orders_methods(self):
        bank, labels = xor_bank(n_per_class=18, seed=13)
        report, results = run_comparison(
            bank, labels, small_protocol(repeats=2, seed=5), small_gp(), SvmParams()
        )
        assert report.mean["evolved"] > report.mean["addition"]
        assert report.mean["evolved"] > report.mean["best_single"]
        assert len(results) == 2
        assert all(len(r.per_generation) >= 1 for r in results)

    def test_evolved_dominates_best_single_within_noise(self):
        bank, labels = xor_bank(n_per_class=15, seed=3)
        report, _ = run_comparison(bank, labels, small_protocol(repeats=3, seed=8), small_gp(), SvmParams())
        floor = report.mean["best_single"] - 2.0 * report.std["best_single"]
        assert report.mean["evolved"] >= floor

    def test_report_shape(self):
        bank, labels = xor_bank(n_per_class=12, seed=2)
        protocol = small_protocol(repeats=3, seed=4)
        report, _ = run_comparison(bank, labels, protocol, small_gp(), SvmParams())
        for m in METHODS:
            assert len(report.methods[m]) == 3
        assert len(report.best_exprs) == 3
        assert len(report.best_single_indices) == 3
        assert len(report.generations) == 3
        # three classes -> three binary problems, each scored every repeat
        for m in METHODS:
            assert set(report.binary_problems[m]) == {"0|1", "0|2", "1|2"}
            assert all(len(v) == 3 for v in report.binary_problems[m].values())

    def test_means_recomputable_from_per_repeat_values(self):
        bank, labels = xor_bank(n_per_class=12, seed=2)
        report, _ = run_comparison(bank, labels, small_protocol(), small_gp(), SvmParams())
        for m in METHODS:
            assert report.mean[m] == float(np.mean(report.methods[m]))
            assert report.std[m] == float(np.std(report.methods[m], ddof=1))

    def test_deterministic_under_master_seed(self):
        bank, labels = xor_bank(n_per_class=12, seed=2)
        a, _ = run_comparison(bank, labels, small_protocol(), small_gp(), SvmParams())
        b, _ = run_comparison(bank, labels, small_protocol(), small_gp(), SvmParams())
        assert report_to_json(a) == report_to_json(b)

    def test_each_final_model_is_trained_once(self, final_trainings):
        bank, labels = xor_bank(n_per_class=12, seed=2)
        run_comparison(bank, labels, small_protocol(repeats=2), small_gp(), SvmParams())
        assert len(final_trainings) == len(METHODS) * 2

    @pytest.mark.parametrize("grid_search_c", [False, True])
    def test_each_fitness_key_is_scored_once_per_repeat(self, fitness_calls, grid_search_c):
        bank, labels = xor_bank(n_per_class=10, seed=6)
        protocol = small_protocol(repeats=2, seed=7, grid_search_c=grid_search_c)
        run_comparison(bank, labels, protocol, small_gp(max_generations=2), SvmParams())
        assert len(fitness_calls) == len(set(fitness_calls))
        # best-leaf selection, evolve's seed leaves and C selection at the base C all ask for these
        leaves = [key for key in fitness_calls if key[0] in ("K1", "K2") and key[2] == SvmParams()]
        assert len(leaves) == len(bank) * protocol.repeats

    @pytest.mark.parametrize("mode", ["validation", "leave_one_out"])
    def test_a_mode_that_reads_no_folds_scores_alike_at_any_n_folds(self, monkeypatch, fitness_calls, mode):
        # only k_fold reads n_folds, so evolve's scores share their keys and plan with best-leaf
        # and C selection, which score at the default 5, whatever gp.n_folds is
        import kernelforge.gp as gp_mod

        builds, real = [], gp_mod.SplitFitness._plan

        def plan(self, *args):
            before = len(self._plans)
            out = real(self, *args)
            builds.extend([args] * (len(self._plans) - before))
            return out

        monkeypatch.setattr(gp_mod.SplitFitness, "_plan", plan)
        bank, labels = xor_bank(n_per_class=10, seed=6)
        protocol = small_protocol(repeats=2, seed=7, grid_search_c=True)
        runs = []
        for n_folds in (3, 5):
            fitness_calls.clear()
            builds.clear()
            gp = small_gp(max_generations=2, fitness_mode=mode, n_folds=n_folds)
            report, _ = run_comparison(bank, labels, protocol, gp, SvmParams())
            runs.append((len(fitness_calls), len(builds), report_to_json(report)))
        assert runs[0] == runs[1]
        assert runs[0][1] == protocol.repeats * (1 if mode == "validation" else 2)

    def test_each_evaluated_kernel_is_checked_once(self, monkeypatch, symmetry_passes):
        # the bank was checked where it entered; every kernel a comparison folds from it
        # (fitness plans' pair blocks and the final fits' row blocks), and the class-pair
        # blocks cut from those, is derived and not scanned
        import kernelforge.gp as gp_mod
        import kernelforge.harness as harness_mod

        bank, labels = xor_bank(n_per_class=10, seed=6)
        symmetry_passes.clear()
        folds, pair_problems = [], []

        def counted(calls, real):
            return lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs)

        monkeypatch.setattr(gp_mod, "_folded", counted(folds, gp_mod._folded))
        monkeypatch.setattr(harness_mod, "_folded", counted(folds, harness_mod._folded))
        monkeypatch.setattr(svm_mod, "train_binary", counted(pair_problems, svm_mod.train_binary))
        run_comparison(bank, labels, small_protocol(repeats=2, seed=7), small_gp(max_generations=2), SvmParams())
        assert len(pair_problems) == 3 * len(folds) > 0  # three classes
        leaves = [expr for expr, *_ in folds if isinstance(expr, Leaf)]
        assert 0 < len(leaves) < len(folds)
        assert symmetry_passes == []

    def test_kernels_near_the_symmetry_tolerance_combine(self):
        # each kernel enters 0.9 SYMMETRY_TOL from symmetric; the sums and products made of
        # them are further off, and are derived, so they are not held to the entry tolerance
        bank, labels = near_symmetric_bank()
        report, _ = run_comparison(bank, labels, small_protocol(), small_gp(max_generations=2), SvmParams())
        assert set(report.mean) == set(METHODS)
        for text in ("(+ K1 K2)", "(+ (* K1 K2) K1)"):
            v = evaluate(parse_expr(text), bank).values
            assert np.max(np.abs(v - v.T)) > SYMMETRY_TOL
            assert build_index(parse_expr(text), bank, range(bank.size)).size == bank.size

    @pytest.mark.parametrize("text", ["(* K1 K2)", "(+ (* K1 K2) K1)"])
    def test_an_index_over_kernels_near_the_symmetry_tolerance_loads_back(self, text, tmp_path, capsys):
        # the normalized matrix mirrors its upper triangle, so it passes the loader's check
        bank, _ = near_symmetric_bank()
        index = build_index(parse_expr(text), bank, [f"item{i}" for i in range(bank.size)])
        path = tmp_path / "index.kgm"
        save_index(path, index)
        assert np.array_equal(load_index(path).matrix.values, index.matrix.values)
        assert np.array_equal(index.matrix.values, index.matrix.values.T)
        assert cli_main(["retrieve", "--index", str(path), "--item", "item0", "--k", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    @pytest.mark.filterwarnings("ignore:fitness of")
    def test_unconverged_final_model_fails_the_repeat(self):
        bank, labels = xor_bank(n_per_class=12, seed=2)
        with pytest.raises(NumericalError, match="repeat 0 failed: .*did not converge"):
            run_comparison(
                bank, labels, small_protocol(), small_gp(max_generations=1), SvmParams(max_passes=0)
            )

    @pytest.mark.parametrize(
        "error",
        [ParameterError("bad value"), DataError("bad data"), ShapeError("bad shape"), ExprSyntaxError("bad text", 3)],
        ids=lambda exc: type(exc).__name__,
    )
    def test_config_and_data_errors_keep_their_class(self, monkeypatch, error):
        def evolve(*args):
            raise error

        monkeypatch.setattr(harness_mod, "evolve", evolve)
        bank, labels = xor_bank(n_per_class=12, seed=2)
        message = f"repeat 0 failed: {error}"
        with pytest.raises(type(error)) as info:
            run_comparison(bank, labels, small_protocol(), small_gp(), SvmParams())
        assert type(info.value) is type(error) and str(info.value) == message

    def test_grid_search_c_runs(self):
        bank, labels = xor_bank(n_per_class=10, seed=6)
        protocol = small_protocol(repeats=1, seed=7, grid_search_c=True)
        report, _ = run_comparison(bank, labels, protocol, small_gp(max_generations=2), SvmParams())
        assert all(len(report.methods[m]) == 1 for m in METHODS)


class TestClaimOverFeatureSeeds:
    """The paper's claim at four feature seeds, not one: on xor_bank (3 classes, pool 15/5,
    3 repeats, population 40, 12 generations, stagnation 4) the evolved kernel beats both
    baselines by at least 10 test-accuracy points.  The seeds (the first four of 1-8) and
    the bound were fixed from a measurement before this gate: over seeds 1-8 the margin
    read 29.9-41.0 points over addition and 69.4-70.4 over the best single kernel.  They
    are not to be retuned to let a change pass."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_evolved_beats_both_baselines_by_ten_points(self, seed):
        bank, labels = xor_bank(n_per_class=60, n_classes=3, seed=seed)
        protocol = ProtocolConfig(per_class_train=15, per_class_val=5, repeats=3, seed=seed)
        gp_params = GpParams(population_size=40, max_generations=12, stagnation_limit=4)
        report, _ = run_comparison(bank, labels, protocol, gp_params, SvmParams())
        for baseline in ("addition", "best_single"):
            margin = 100.0 * (report.mean["evolved"] - report.mean[baseline])
            assert margin >= 10.0, (seed, baseline, margin)


class TestRunRepeat:
    def test_each_split_fitness_cuts_its_fit_block_once(self, monkeypatch, fitness_calls):
        # one plan build per (split, mode): in validation mode a build sorts the split's
        # training labels into class pairs once, and nothing else in gp does
        import kernelforge.gp as gp_mod

        builds, real = [], gp_mod._class_pairs

        def class_pairs(labels):
            builds.append(labels.tolist())
            return real(labels)

        monkeypatch.setattr(gp_mod, "_class_pairs", class_pairs)
        bank, labels = xor_bank(n_per_class=12, seed=2)
        protocol = small_protocol(grid_search_c=True)
        score, _, _ = run_repeat(bank, labels, protocol, small_gp(), SvmParams(), 1)
        assert builds == [labels[list(score.split.train_idx)].tolist()]
        assert len(fitness_calls) > 10  # every evaluation of the search and of C selection
        run_comparison(bank, labels, protocol, small_gp(), SvmParams())
        assert len(builds) == 1 + protocol.repeats

    def test_scoring_fitness_never_builds_final_rows(self, monkeypatch):
        # the final fits' (fit, then test) x fit rows are cut on first use in fit_expr, so
        # best-leaf selection, evolve and C selection, and best_single_kernel, skip the gather
        import kernelforge.gp as gp_mod

        bank, labels = xor_bank(n_per_class=12, seed=2)
        split = make_splits(labels, 8, 3, 1, seed=21)[0]
        score = SplitFitness(bank, labels, split)
        evolve(score, small_gp(max_generations=1), SvmParams(), seed=1)
        harness_mod._best_leaf(score, SvmParams())
        _select_c(Leaf(0), score, SvmParams())
        assert "final_rows" not in vars(score)
        fit_expr(Leaf(0), score, SvmParams(), grid_search_c=False)
        assert len(vars(score)["final_rows"]) == len(bank)

        def submatrix(*args):
            raise AssertionError("final rows were cut")

        monkeypatch.setattr(gp_mod, "submatrix", submatrix)
        assert best_single_kernel(bank, labels, split, SvmParams()) == harness_mod._best_leaf(score, SvmParams())

    def test_evolve_gets_the_repeats_gp_seed(self, monkeypatch):
        seen, real = [], harness_mod.evolve

        def evolve(score, params, svm_params, seed=0):
            seen.append((params, seed))
            return real(score, params, svm_params, seed)

        monkeypatch.setattr(harness_mod, "evolve", evolve)
        bank, labels = xor_bank(n_per_class=12, seed=2)
        protocol, gp_params = small_protocol(seed=21), small_gp(max_generations=1)
        for r in (0, 2):
            run_repeat(bank, labels, protocol, gp_params, SvmParams(), r)
        assert seen == [(gp_params, derive_seed(21, "gp", 0)), (gp_params, derive_seed(21, "gp", 2))]


class TestLabelsMatchTheBank:
    """One label per item of the bank, checked where a split's fitness is set up.
    Three labels short still leaves every class more than 8 points, so the
    splits are drawn and the check is what fails; 9 extra labels used to index
    past the bank (a bare IndexError)."""

    CASES = {"short": lambda labels: labels[3:], "long": lambda labels: np.concatenate([labels, labels[:9]])}

    @pytest.mark.parametrize("case", CASES)
    def test_run_comparison_rejects_a_mismatch(self, case):
        bank, labels = xor_bank(n_per_class=12, seed=2)
        labels = self.CASES[case](labels)
        message = f"repeat 0 failed: {labels.size} labels for a bank of 36 items"
        with pytest.raises(ShapeError) as info:
            run_comparison(bank, labels, small_protocol(), small_gp(), SvmParams())
        assert str(info.value) == message

    @pytest.mark.parametrize("case", CASES)
    def test_evolve_rejects_a_mismatch(self, case):
        bank, labels = xor_bank(n_per_class=12, seed=2)
        labels = self.CASES[case](labels)
        split = make_splits(labels, 8, 3, 1, seed=21)[0]
        with pytest.raises(ShapeError, match=f"^{labels.size} labels for a bank of 36 items$"):
            evolve(SplitFitness(bank, labels, split), small_gp(), SvmParams())


class TestSelectC:
    """Grid search on the workspace bank of test_config_cli.py, split seed 10: the
    addition kernel scores 0, 0, 4/9, 4/9 on validation at C = 0.1, 1, 10, 100."""

    @staticmethod
    def setting():
        views, labels = xor_views(n_per_class=12, seed=3)
        bank, _ = build_bank(views, names=["view1", "view2"])
        return bank, labels, make_splits(labels, 8, 3, 1, 10)[0]

    def test_best_validation_fitness_wins_and_ties_go_to_smaller_c(self):
        bank, labels, split = self.setting()
        assert _select_c(Add(Leaf(0), Leaf(1)), SplitFitness(bank, labels, split), SvmParams(c=1.0)).c == 10.0

    def test_unconverged_trial_is_never_chosen(self, monkeypatch):
        bank, labels, split = self.setting()
        real = svm_mod.train_binary

        def train_binary(kernel, y, params, rng=None):
            model = real(kernel, y, params, rng)
            model.converged = model.converged and params.c != 10.0
            return model

        monkeypatch.setattr(svm_mod, "train_binary", train_binary)
        with pytest.warns(UserWarning, match=r"fitness of \(\+ K1 K2\) set to 0: .*did not converge"):
            assert _select_c(Add(Leaf(0), Leaf(1)), SplitFitness(bank, labels, split), SvmParams(c=1.0)).c == 100.0
        # without the check the C = 10 models would win the grid and then fail the final fit
        protocol = ProtocolConfig(8, 3, 1, seed=10, grid_search_c=True)
        with pytest.warns(UserWarning, match="did not converge"):
            report, _ = run_comparison(bank, labels, protocol, small_gp(max_generations=1), SvmParams(c=1.0))
        assert len(report.methods["addition"]) == 1


class TestSummarize:
    def make_report(self, repeats=1):
        bank, labels = xor_bank(n_per_class=10, seed=6)
        protocol = small_protocol(repeats=repeats, seed=7)
        return run_comparison(bank, labels, protocol, small_gp(max_generations=2), SvmParams())

    def test_single_repeat_reports_zero_std(self):
        report, _ = self.make_report(repeats=1)
        assert all(report.std[m] == 0.0 for m in METHODS)
        text = summarize(report)
        assert "±0.00" in text

    def test_summary_rows_are_percent_mean_plus_minus_std(self):
        import re

        report, _ = self.make_report(repeats=2)
        lines = summarize(report).splitlines()
        assert [line.split(":")[0].strip() for line in lines] == list(METHODS)
        for line in lines:
            assert re.search(r"\d+\.\d{2}±\d+\.\d{2}$", line)

    def test_json_round_trip(self):
        report, _ = self.make_report(repeats=2)
        again = report_from_json(report_to_json(report))
        assert again == report
        assert report_to_json(again) == report_to_json(report)

    def test_csv_emissions(self, tmp_path):
        report, results = self.make_report(repeats=2)
        write_comparison_outputs(report, results, tmp_path)
        iterations = (tmp_path / "iterations.csv").read_text().splitlines()
        assert iterations[0] == "repeat,addition,best_single,evolved"
        assert len(iterations) == 1 + 2  # header + one row per repeat
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + len(METHODS)
        generations = (tmp_path / "generations.csv").read_text().splitlines()
        assert generations[0] == "repeat,generation,best_fitness,mean_fitness"
        assert len(generations) == 1 + sum(len(r.per_generation) for r in results)
        pairs = (tmp_path / "binary_problems.csv").read_text().splitlines()
        assert pairs[0] == "pair,addition,best_single,evolved"
        assert (tmp_path / "logs" / "evolution_r0.csv").exists()
        assert (tmp_path / "logs" / "evolution_r1.csv").exists()
        saved = report_from_json((tmp_path / "report.json").read_text())
        assert saved == report


probability = st.floats(0.0, 1.0)


@st.composite
def reports(draw):
    """Arbitrary well-formed comparison reports."""
    repeats = draw(st.integers(1, 3))
    per_repeat = st.lists(probability, min_size=repeats, max_size=repeats)
    pair_keys = draw(st.lists(st.sampled_from(["0|1", "0|2", "1|2"]), unique=True))
    row = st.tuples(st.integers(0, 30), probability, probability).map(list)
    echo = st.dictionaries(st.text(max_size=8), st.one_of(st.integers(), st.text(max_size=8), st.booleans()), max_size=3)
    return ComparisonReport(
        methods={m: draw(per_repeat) for m in METHODS},
        mean={m: draw(probability) for m in METHODS},
        std={m: draw(probability) for m in METHODS},
        best_exprs=draw(st.lists(st.sampled_from(["K1", "(+ K1 K2)", "(* K1 K2)"]), min_size=repeats, max_size=repeats)),
        best_single_indices=draw(st.lists(st.integers(0, 5), min_size=repeats, max_size=repeats)),
        generations=draw(st.lists(st.lists(row, min_size=1, max_size=4), min_size=repeats, max_size=repeats)),
        binary_problems={m: {key: draw(per_repeat) for key in pair_keys} for m in METHODS},
        config=draw(echo),
    )


@functools.cache
def small_report_json():
    bank, labels = xor_bank(n_per_class=10, seed=6)
    report, _ = run_comparison(bank, labels, small_protocol(repeats=1, seed=7), small_gp(max_generations=2), SvmParams())
    return report_to_json(report)


class TestReportDocument:
    @given(reports())
    def test_round_trip(self, report):
        again = report_from_json(report_to_json(report))
        assert again == report
        assert report_to_json(again) == report_to_json(report)

    @given(reports(), st.data())
    def test_corruption_rejected(self, report, data):
        doc = corrupted(
            data,
            json.loads(report_to_json(report)),
            free=lambda path: path[:1] == ("config",),  # the config echo is free-form
            mapping=lambda path: path[:1] == ("binary_problems",) and len(path) == 2,
        )
        with pytest.raises(DataError):
            report_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc.pop("std"),  # missing key
            lambda doc: doc.update(notes="x"),  # unknown key
            lambda doc: doc["methods"]["addition"].append(0.5),  # one repeat too many
            lambda doc: doc["methods"].update(evolved=["0.5"]),
            lambda doc: doc["generations"][0].append([1, 0.5]),
            lambda doc: doc["best_single_indices"].append(True),
        ],
    )
    def test_malformed_report_is_data_error(self, corrupt):
        doc = json.loads(small_report_json())
        corrupt(doc)
        with pytest.raises(DataError):
            report_from_json(json.dumps(doc))

    def test_undecodable_report_is_data_error(self):
        with pytest.raises(DataError):
            report_from_json("{")
