import numpy as np
import pytest

from kernelforge import (
    Add,
    ComparisonError,
    DataError,
    DatasetSplit,
    GpParams,
    GramMatrix,
    KernelBank,
    Leaf,
    NumericalError,
    ParameterError,
    ProtocolConfig,
    SvmParams,
    addition_kernel,
    best_single_kernel,
    evaluate,
    evolve,
    fit_and_score,
    make_splits,
    report_from_json,
    report_to_json,
    run_comparison,
    summarize,
)
from kernelforge.harness import METHODS, write_comparison_outputs
from kernelforge.synthetic import xor_bank

from oracles import random_psd


def bank_of(matrices):
    grams = tuple(GramMatrix(m) for m in matrices)
    return KernelBank(grams, tuple(f"k{i}" for i in range(len(grams))))


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

    def test_split_rejects_overlap(self):
        with pytest.raises(DataError):
            DatasetSplit((0, 1), (1, 2), (3,), seed=0)


class TestAdditionKernel:
    def test_single_kernel_bank(self, rng):
        k = random_psd(4, rng)
        assert np.array_equal(addition_kernel(bank_of([k])).values, k)

    def test_five_identities(self):
        bank = bank_of([np.eye(3)] * 5)
        assert np.array_equal(addition_kernel(bank).values, 5 * np.eye(3))

    def test_matches_left_deep_chain(self, rng):
        bank = bank_of([random_psd(4, rng) for _ in range(4)])
        chain = Leaf(0)
        for i in range(1, 4):
            chain = Add(chain, Leaf(i))
        assert np.array_equal(addition_kernel(bank).values, evaluate(chain, bank).values)
        assert addition_kernel(bank).source_tag == evaluate(chain, bank).source_tag


class TestBestSingleKernel:
    def test_single_member_bank(self, rng):
        bank, labels = xor_bank(n_per_class=9, seed=1)
        solo = KernelBank((bank.kernels[0],), ("only",))
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
    def test_final_test_accuracy_uses_held_out_points(self):
        bank, labels = xor_bank(n_per_class=12, seed=5)
        split = make_splits(labels, per_class_train=8, per_class_val=3, repeats=1, seed=9)[0]
        params = GpParams(population_size=12, max_generations=8, rng_seed=3, stagnation_limit=3)
        result = evolve(bank, labels, split, params, SvmParams())
        acc, _, fit_idx = fit_and_score(evaluate(result.best_expr, bank), labels, split, SvmParams())
        assert fit_idx.tolist() == [*split.train_idx, *split.val_idx]
        assert not set(fit_idx.tolist()) & set(split.test_idx)
        assert 0.0 <= acc <= 1.0

    def test_unconverged_final_model_raises(self):
        bank, labels = xor_bank(n_per_class=12, seed=5)
        split = make_splits(labels, per_class_train=8, per_class_val=3, repeats=1, seed=9)[0]
        with pytest.raises(NumericalError, match="did not converge"):
            fit_and_score(bank.kernels[0], labels, split, SvmParams(max_passes=0))


def small_protocol(repeats=2, seed=21, **kw):
    return ProtocolConfig(per_class_train=8, per_class_val=3, repeats=repeats, seed=seed, **kw)


def small_gp(**kw):
    defaults = dict(population_size=14, max_generations=5, stagnation_limit=3)
    defaults.update(kw)
    return GpParams(**defaults)


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

    @pytest.mark.filterwarnings("ignore:fitness of")
    def test_unconverged_final_model_fails_the_repeat(self):
        bank, labels = xor_bank(n_per_class=12, seed=2)
        with pytest.raises(ComparisonError, match="repeat 0 failed: .*did not converge"):
            run_comparison(
                bank, labels, small_protocol(), small_gp(max_generations=1), SvmParams(max_passes=0)
            )

    def test_grid_search_c_runs(self):
        bank, labels = xor_bank(n_per_class=10, seed=6)
        protocol = small_protocol(repeats=1, seed=7, grid_search_c=True)
        report, _ = run_comparison(bank, labels, protocol, small_gp(max_generations=2), SvmParams())
        assert all(len(report.methods[m]) == 1 for m in METHODS)


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
