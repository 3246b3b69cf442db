import logging
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kernelforge.gp as gp_mod
from kernelforge import (
    Add,
    DataError,
    DatasetSplit,
    GpParams,
    GramMatrix,
    KernelBank,
    Leaf,
    Mul,
    ParameterError,
    SplitFitness,
    SvmParams,
    accuracy,
    build_bank,
    canonical_string,
    crossover,
    depth,
    evaluate,
    evolve,
    fitness,
    mutate,
    predict,
    tournament_select,
    train_multiclass,
)
from kernelforge.gp import _random_tree
from kernelforge.harness import make_splits, write_evolution_log
from kernelforge.rng import derive_seed, derived_rng
from kernelforge.synthetic import or_bank, xor_bank


def bank_of(matrices):
    grams = tuple(GramMatrix(m) for m in matrices)
    return KernelBank(grams, tuple(f"k{i}" for i in range(len(grams))))


def two_cluster_bank(rng, per_class=3, gap=6.0):
    """Bank of one Gaussian kernel over two tight, far-apart 1-d clusters."""
    x = np.concatenate([rng.normal(0.0, 0.05, per_class), rng.normal(gap, 0.05, per_class)])
    labels = np.repeat([0, 1], per_class)
    diff = x[:, None] - x[None, :]
    return bank_of([np.exp(-(diff**2))]), labels


class TestRandomTree:
    def test_depth_one_range_gives_leaf(self, rng):
        for _ in range(20):
            assert isinstance(_random_tree(4, 1, 1, rng), Leaf)

    def test_full_depth_two_single_kernel(self):
        seen = set()
        for seed in range(40):
            tree = _random_tree(1, 2, 2, np.random.default_rng(seed))
            assert isinstance(tree, (Add, Mul))
            assert tree.left == Leaf(0) and tree.right == Leaf(0)
            seen.add(type(tree))
        assert seen == {Add, Mul}

    def test_seed_determinism(self):
        a = _random_tree(5, 2, 4, np.random.default_rng(99))
        b = _random_tree(5, 2, 4, np.random.default_rng(99))
        assert a == b

    def test_range_exceeding_max_depth_rejected(self):
        with pytest.raises(ParameterError):
            GpParams(max_depth=3, init_depth_range=(2, 4))

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 6))
    def test_depth_within_range(self, seed, n):
        tree = _random_tree(n, 2, 4, np.random.default_rng(seed))
        assert 2 <= depth(tree) <= 4
        assert all(leaf.index < n for leaf, _ in gp_mod.iter_nodes(tree) if isinstance(leaf, Leaf))


class TestCrossover:
    def test_single_leaf_parents_swap(self, rng):
        assert crossover(Leaf(1), Leaf(4), rng, max_depth=6) == Leaf(4)

    def test_depth_guard_returns_parent(self):
        deep = Add(Add(Add(Leaf(0), Leaf(1)), Leaf(0)), Leaf(1))  # depth 4
        # max_depth 4 means grafting deep anywhere below the root busts the cap
        for seed in range(30):
            rng = np.random.default_rng(seed)
            assert depth(crossover(deep, deep, rng, max_depth=4)) <= 4

    def test_seed_determinism(self):
        a = Add(Leaf(0), Mul(Leaf(1), Leaf(2)))
        b = Mul(Leaf(2), Leaf(0))
        out1 = crossover(a, b, np.random.default_rng(7), max_depth=6)
        out2 = crossover(a, b, np.random.default_rng(7), max_depth=6)
        assert out1 == out2


class TestMutate:
    def leaf_branch_rng(self):
        # branch draw is the first integers() call; seed 0 yields branch 0
        for seed in range(100):
            if np.random.default_rng(seed).integers(0, 3) == 0:
                return lambda: np.random.default_rng(seed)
        raise AssertionError("no seed found")

    def test_leaf_mutation_without_alternative_is_identity(self):
        make_rng = self.leaf_branch_rng()
        params = GpParams()
        assert mutate(Leaf(0), make_rng(), params, n=1) == Leaf(0)

    def test_leaf_mutation_changes_index(self):
        make_rng = self.leaf_branch_rng()
        params = GpParams()
        for _ in range(10):
            out = mutate(Leaf(0), make_rng(), params, n=3)
            assert out in (Leaf(1), Leaf(2))

    def test_operator_swap(self):
        # find a seed whose branch draw is 1 (operator swap)
        params = GpParams()
        expr = Add(Leaf(0), Leaf(1))
        for seed in range(200):
            rng = np.random.default_rng(seed)
            if np.random.default_rng(seed).integers(0, 3) == 1:
                assert mutate(expr, rng, params, n=2) == Mul(Leaf(0), Leaf(1))
                return
        raise AssertionError("no operator-swap seed found")

    @given(seed=st.integers(0, 10**6))
    def test_mutation_keeps_trees_legal(self, seed):
        rng = np.random.default_rng(seed)
        params = GpParams(max_depth=5, init_depth_range=(2, 4))
        tree = _random_tree(3, *params.init_depth_range, rng)
        out = mutate(tree, rng, params, n=3)
        assert depth(out) <= 5
        assert all(n.index < 3 for n, _ in gp_mod.iter_nodes(out) if isinstance(n, Leaf))


def test_variation_fuzz_keeps_invariants():
    """10^4 random tree operations stay within depth and index bounds."""
    params = GpParams(max_depth=6, init_depth_range=(2, 4))
    rng = np.random.default_rng(2024)
    pool = [_random_tree(4, *params.init_depth_range, rng) for _ in range(50)]
    for step in range(10_000):
        op = step % 3
        if op == 0:
            tree = _random_tree(4, *params.init_depth_range, rng)
        elif op == 1:
            a, b = rng.integers(0, len(pool), size=2)
            tree = crossover(pool[a], pool[b], rng, params.max_depth)
        else:
            tree = mutate(pool[int(rng.integers(0, len(pool)))], rng, params, n=4)
        assert depth(tree) <= params.max_depth
        assert all(n.index < 4 for n, _ in gp_mod.iter_nodes(tree) if isinstance(n, Leaf))
        pool[int(rng.integers(0, len(pool)))] = tree


class TestTournament:
    def test_full_size_is_argmax(self, rng):
        fits = [0.1, 0.9, 0.4]
        assert tournament_select(fits, 3, rng) == 1

    def test_size_one_returns_valid_index(self):
        fits = [0.5, 0.2, 0.8, 0.1]
        seen = {tournament_select(fits, 1, np.random.default_rng(s)) for s in range(50)}
        assert seen == {0, 1, 2, 3}

    def test_all_equal_full_size_prefers_smaller_tree(self, rng):
        fits = [0.5, 0.5, 0.5]
        assert tournament_select(fits, 3, rng, node_counts=[5, 1, 3]) == 1

    def test_fitness_tie_then_node_tie_prefers_lower_index(self, rng):
        assert tournament_select([0.5, 0.5], 2, rng, node_counts=[3, 3]) == 0

    def test_bad_sizes(self, rng):
        with pytest.raises(ParameterError):
            tournament_select([], 1, rng)
        with pytest.raises(ParameterError):
            tournament_select([0.1], 2, rng)


def full_bank_fitness(expr, bank, labels, split, svm_params, mode, n_folds):
    """fitness computed on the whole m x m fold, predicting from held x fit blocks cut from it."""
    kernel = evaluate(expr, bank)
    train_idx, val_idx = np.asarray(split.train_idx), np.asarray(split.val_idx)
    seed = derive_seed(split.seed, canonical_string(expr))
    if mode == "validation":
        model = train_multiclass(kernel, labels, train_idx, svm_params, seed=seed)
        assert model.converged
        return accuracy(predict(model, kernel.values[np.ix_(val_idx, train_idx)]), labels[val_idx])
    if mode == "leave_one_out":
        folds = [np.array([pos]) for pos in range(train_idx.size)]
    else:
        folds = np.array_split(derived_rng(split.seed, "folds").permutation(train_idx.size), n_folds)
    correct = 0
    for fold in folds:
        held, rest = train_idx[fold], np.delete(train_idx, fold)
        model = train_multiclass(kernel, labels, rest, svm_params, seed=seed)
        assert model.converged
        correct += int(np.sum(predict(model, kernel.values[np.ix_(held, rest)]) == labels[held]))
    return correct / train_idx.size


class TestFitness:
    def test_perfectly_separable_validation(self, rng):
        bank, labels = two_cluster_bank(rng)
        split = DatasetSplit((0, 1, 3, 4), (2, 5), (), seed=1)
        assert fitness(Leaf(0), SplitFitness(bank, labels, split), SvmParams()) == 1.0

    def test_all_ones_kernel_predicts_majority_class(self):
        bank = bank_of([np.ones((10, 10))])
        labels = np.array([0, 0, 0, 0, 1, 1, 2, 2, 1, 2])
        # train: four 0s, two 1s, two 2s; validation: one 1, one 2 -> majority class 0
        split = DatasetSplit((0, 1, 2, 3, 4, 5, 6, 7), (8, 9), (), seed=1)
        majority_rate = float(np.mean(labels[list(split.val_idx)] == 0))
        assert fitness(Leaf(0), SplitFitness(bank, labels, split), SvmParams()) == majority_rate

    def test_failure_degrades_to_zero_with_warning(self, rng):
        bank, labels = two_cluster_bank(rng)
        # single-class training data is an SVM input error, not a crash
        split = DatasetSplit((0, 1, 2), (3, 4), (), seed=1)
        with pytest.warns(UserWarning):
            assert fitness(Leaf(0), SplitFitness(bank, labels, split), SvmParams()) == 0.0

    def test_leave_one_out_mode(self, rng):
        bank, labels = two_cluster_bank(rng, per_class=4)
        split = DatasetSplit((0, 1, 2, 4, 5, 6), (3, 7), (), seed=1)
        acc = fitness(Leaf(0), SplitFitness(bank, labels, split), SvmParams(), mode="leave_one_out")
        assert acc == 1.0

    def test_k_fold_mode(self, rng):
        bank, labels = two_cluster_bank(rng, per_class=4)
        split = DatasetSplit((0, 1, 2, 4, 5, 6), (3, 7), (), seed=1)
        acc = fitness(Leaf(0), SplitFitness(bank, labels, split), SvmParams(), mode="k_fold", n_folds=3)
        assert acc == 1.0

    @pytest.mark.parametrize(
        "split, mode",
        [
            (DatasetSplit((0, 1, 3, 4), (), (), seed=1), "validation"),
            (DatasetSplit((), (0, 1, 3, 4), (), seed=1), "leave_one_out"),
        ],
    )
    def test_nothing_held_out_scores_zero_with_warning(self, rng, split, mode):
        bank, labels = two_cluster_bank(rng)
        with pytest.warns(UserWarning, match="fitness of K1 set to 0"):
            assert fitness(Leaf(0), SplitFitness(bank, labels, split), SvmParams(), mode=mode) == 0.0

    def test_unconverged_fold_scores_zero_with_warning(self, rng):
        bank, labels = two_cluster_bank(rng, per_class=4)
        split = DatasetSplit((0, 1, 2, 4, 5, 6), (3, 7), (), seed=1)
        for mode in ("validation", "k_fold", "leave_one_out"):
            with pytest.warns(UserWarning, match="did not converge"):
                assert fitness(Leaf(0), SplitFitness(bank, labels, split), SvmParams(max_passes=0), mode=mode, n_folds=3) == 0.0

    @pytest.mark.parametrize("mode", ["validation", "k_fold", "leave_one_out"])
    def test_restricted_bank_equals_full_bank(self, mode):
        rng = np.random.default_rng(2024)
        labels = np.arange(36) % 3
        centers = rng.standard_normal((3, 2))
        bank, _ = build_bank([centers[labels] + 1.5 * rng.standard_normal((36, 2)) for _ in range(3)])
        perm = rng.permutation(36)  # unsorted, interleaved train / validation / test items
        split = DatasetSplit(tuple(perm[:15]), tuple(perm[15:24]), tuple(perm[24:]), seed=5)
        svm_params = SvmParams(max_passes=200)
        exprs = [Leaf(0), Leaf(2), Mul(Leaf(0), Leaf(1)), Add(Leaf(2), Mul(Leaf(1), Leaf(2))), Add(Leaf(0), Leaf(1))]
        score = SplitFitness(bank, labels, split)
        got = [fitness(e, score, svm_params, mode=mode, n_folds=3) for e in exprs]
        want = [full_bank_fitness(e, bank, labels, split, svm_params, mode, 3) for e in exprs]
        assert got == want
        assert len(set(want)) > 1  # the scores discriminate between kernels


class TestFitnessPlan:
    """Fitness folds each chromosome over the blocks its mode reads, cut once per split:
    per fold and class pair, the train x train and held x train blocks of each base kernel."""

    SPLIT = DatasetSplit((0, 1, 3, 4), (2, 5), (), seed=1)

    @staticmethod
    def bank_with(entries, value=1e200):
        """two_cluster_bank's kernel with each (i, j) of entries, and (j, i), set to value."""
        bank, labels = two_cluster_bank(np.random.default_rng(7))
        k = bank.kernels[0].values.copy()
        for i, j in entries:
            k[i, j] = k[j, i] = value
        return bank_of([k]), labels

    def test_an_overflow_in_an_entry_fitness_reads_raises(self):
        bank, labels = self.bank_with([(2, 0)])  # validation x training
        with pytest.raises(DataError, match="non-finite"):
            fitness(Mul(Leaf(0), Leaf(0)), SplitFitness(bank, labels, self.SPLIT), SvmParams())

    @pytest.mark.parametrize("mode", ["validation", "k_fold", "leave_one_out"])
    def test_an_overflow_only_in_a_validation_pair_entry_is_not_read(self, mode):
        bank, labels = self.bank_with([(2, 5)])  # validation x validation
        plain, _ = self.bank_with([])
        expr = Mul(Leaf(0), Leaf(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fitness(expr, SplitFitness(bank, labels, self.SPLIT), SvmParams(), mode=mode, n_folds=2)
        assert got == fitness(expr, SplitFitness(plain, labels, self.SPLIT), SvmParams(), mode=mode, n_folds=2)

    def test_a_k_fold_fold_that_loses_a_class_scores_zero_with_the_warning(self, rng):
        bank, labels = two_cluster_bank(rng, per_class=4)
        split = DatasetSplit((0, 1, 2, 4), (3, 5), (), seed=1)  # one training point of class 1
        message = "fitness of K1 set to 0: need training points from at least 2 classes"
        with pytest.warns(UserWarning, match=f"^{re.escape(message)}$"):
            assert fitness(Leaf(0), SplitFitness(bank, labels, split), SvmParams(), mode="k_fold", n_folds=2) == 0.0


class TestSplitFitness:
    SETTINGS = [
        (SvmParams(), "validation", 5),
        (SvmParams(c=1.0), "validation", 5),
        (SvmParams(), "leave_one_out", 5),
        (SvmParams(), "k_fold", 3),
        (SvmParams(), "k_fold", 4),
    ]

    def test_key_is_canonical_expression_params_mode_and_folds(self, rng, fitness_calls):
        bank, labels = two_cluster_bank(rng, per_class=4)
        bank = KernelBank(bank.kernels * 2, ("k0", "k1"))
        split = DatasetSplit((0, 1, 2, 4, 5, 6), (3, 7), (), seed=1)
        score = SplitFitness(bank, labels, split)
        expr, reordered = Add(Leaf(0), Mul(Leaf(1), Leaf(0))), Add(Mul(Leaf(0), Leaf(1)), Leaf(0))
        first = [score.score_all([expr], *setting)[0] for setting in self.SETTINGS]
        assert [score.score_all([reordered], *setting)[0] for setting in self.SETTINGS] == first
        assert fitness_calls == [(canonical_string(expr), 1, *setting) for setting in self.SETTINGS]
        assert first == [fitness(expr, score, *setting) for setting in self.SETTINGS]

    @pytest.mark.parametrize("bad", [-1, 8])
    @pytest.mark.parametrize("field, name", [(0, "train"), (1, "validation"), (2, "test")])
    def test_out_of_range_ids_are_an_index_error(self, rng, bad, field, name):
        # the message is the id check's, not numpy's: a negative id would wrap, an id >= m read past the labels
        bank, labels = two_cluster_bank(rng, per_class=4)
        ids = [[0, 1, 4, 5], [2, 6], [3]]
        ids[field] = ids[field] + [bad]
        with pytest.raises(IndexError, match=f"^{name} index out of range for size 8$"):
            SplitFitness(bank, labels, DatasetSplit(*ids, seed=1))

    def test_score_all_scores_misses_in_first_seen_order_once_each(self, rng, fitness_calls):
        bank, labels = two_cluster_bank(rng, per_class=4)
        bank = KernelBank(bank.kernels * 2, ("k0", "k1"))
        score = SplitFitness(bank, labels, DatasetSplit((0, 1, 2, 4, 5, 6), (3, 7), (), seed=1))
        a, b, c = Add(Leaf(0), Leaf(1)), Mul(Leaf(0), Leaf(1)), Leaf(1)
        got = score.score_all([b, a, Add(Leaf(1), Leaf(0)), c, b], SvmParams())
        assert [expr for expr, *_ in fitness_calls] == ["(* K1 K2)", "(+ K1 K2)", "K2"]
        assert score.counts == (3, 2, 0)
        assert got == [fitness(e, score, SvmParams()) for e in (b, a, a, c, b)]
        assert score.score_all([c, Leaf(0), a], SvmParams()) == [got[3], fitness(Leaf(0), score, SvmParams()), got[1]]
        assert score.counts == (1, 2, 0) and len(fitness_calls) == 4
        # one SvmParams per expression, as C selection asks
        grid = [SvmParams(c=1.0), SvmParams(c=100.0)]
        assert score.score_all([c, c], grid) == [fitness(c, score, params) for params in grid]
        assert fitness_calls[4:] == [("K2", 1, params, "validation", 5) for params in grid]

    def test_a_failure_is_counted_when_its_repeated_warning_is_dropped(self, rng):
        bank, labels = two_cluster_bank(rng)
        split = DatasetSplit((0, 1, 3, 4), (2, 5), (), seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")  # Python's default: a repeated message from one place shows once
            for _ in range(2):
                score = SplitFitness(bank, labels, split)
                assert score.score_all([Leaf(0)], SvmParams(max_passes=0)) == [0.0]
                assert score.counts == (1, 0, 1) and score.failed == 1
        assert len(caught) == 1

    def test_debug_line_counts_match_the_fitness_calls(self, caplog, fitness_calls):
        bank, labels = xor_bank(n_per_class=6, seed=3)
        split = make_splits(labels, 5, 2, 1, 4)[0]
        params = GpParams(population_size=8, max_generations=3, stagnation_limit=5)
        line = re.compile(r"generation (\d+): best \S+, mean \S+, (\d+) evaluated, (\d+) memo hits, (\d+) failed, (\d+) memo entries$")
        with warnings.catch_warnings(record=True) as caught, caplog.at_level(logging.DEBUG, logger="kernelforge.gp"):
            warnings.simplefilter("always")
            evolve(SplitFitness(bank, labels, split), params, SvmParams(max_passes=8), seed=2)
        rows = [tuple(map(int, line.match(r.getMessage()).groups())) for r in caplog.records if r.name == "kernelforge.gp"]
        assert [gen for gen, *_ in rows] == [0, 1, 2, 3]
        assert all(evaluated + hits == params.population_size for _, evaluated, hits, _, _ in rows)
        assert sum(evaluated for _, evaluated, *_ in rows) == len(fitness_calls) == rows[-1][-1]
        failures = [w for w in caught if str(w.message).startswith("fitness of")]
        assert sum(failed for *_, failed, _ in rows) == len(failures)
        assert 0 < len(failures) < len(fitness_calls)


def quick_params(**kw):
    defaults = dict(population_size=12, max_generations=5, stagnation_limit=3)
    defaults.update(kw)
    return GpParams(**defaults)


class TestEvolve:
    def test_single_kernel_single_depth(self, rng):
        bank, labels = two_cluster_bank(rng)
        split = DatasetSplit((0, 1, 3, 4), (2, 5), (), seed=1)
        params = quick_params(max_depth=1, init_depth_range=(1, 1))
        result = evolve(SplitFitness(bank, labels, split), params, SvmParams(), seed=3)
        assert result.best_expr == Leaf(0)
        bests = [b for _, b, _ in result.per_generation]
        assert len(set(bests)) == 1

    def test_best_fitness_is_max_of_history(self, rng):
        bank, labels = xor_bank(n_per_class=9, seed=5)
        split = make_splits(labels, 6, 2, 1, seed=2)[0]
        result = evolve(SplitFitness(bank, labels, split), quick_params(), SvmParams(), seed=3)
        assert result.best_fitness == max(b for _, b, _ in result.per_generation)

    def test_monotone_best_with_elitism(self, rng):
        bank, labels = xor_bank(n_per_class=9, seed=8)
        split = make_splits(labels, 6, 2, 1, seed=4)[0]
        result = evolve(SplitFitness(bank, labels, split), quick_params(elitism=1), SvmParams(), seed=3)
        bests = [b for _, b, _ in result.per_generation]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_determinism(self, rng):
        bank, labels = xor_bank(n_per_class=9, seed=5)
        split = make_splits(labels, 6, 2, 1, seed=2)[0]
        a = evolve(SplitFitness(bank, labels, split), quick_params(), SvmParams(), seed=3)
        b = evolve(SplitFitness(bank, labels, split), quick_params(), SvmParams(), seed=3)
        assert a == b

    def test_sum_signal_dataset_reaches_perfect_fitness(self):
        bank, labels = or_bank(n_per_class=24, seed=11)
        split = make_splits(labels, per_class_train=12, per_class_val=4, repeats=1, seed=6)[0]
        # the additive combination is the only depth<=2 chromosome at 1.0
        scores = {
            canonical_string(e): fitness(e, SplitFitness(bank, labels, split), SvmParams())
            for e in (Leaf(0), Leaf(1), Add(Leaf(0), Leaf(1)), Mul(Leaf(0), Leaf(1)))
        }
        assert scores["(+ K1 K2)"] == 1.0
        assert scores["K1"] < 1.0 and scores["K2"] < 1.0
        params = quick_params(initial_exprs=("(+ K1 K2)",))
        result = evolve(SplitFitness(bank, labels, split), params, SvmParams(), seed=3)
        assert result.best_fitness == 1.0

    def test_duplicate_chromosomes_hit_the_cache(self, rng, fitness_calls):
        bank, labels = two_cluster_bank(rng)
        split = DatasetSplit((0, 1, 3, 4), (2, 5), (), seed=1)
        params = quick_params(max_depth=1, init_depth_range=(1, 1), max_generations=4)
        evolve(SplitFitness(bank, labels, split), params, SvmParams(), seed=3)
        assert [expr for expr, *_ in fitness_calls] == ["K1"]  # every individual canonicalizes to the same key

    def test_seed_expression_validation(self, rng):
        bank, labels = two_cluster_bank(rng)
        split = DatasetSplit((0, 1, 3, 4), (2, 5), (), seed=1)
        with pytest.raises(ParameterError):
            evolve(SplitFitness(bank, labels, split), quick_params(initial_exprs=("(+ K1 K9)",)), SvmParams(), seed=3)

    @pytest.mark.parametrize("text", ["(+ K1", "K1 K2", "(+ K1 (* K1 K2))"])
    def test_malformed_or_deep_seed_expression_is_rejected_by_the_params(self, text):
        with pytest.raises(ParameterError, match="initial_exprs"):
            GpParams(max_depth=2, init_depth_range=(1, 2), initial_exprs=(text,))

    @pytest.mark.parametrize("mode,kw", [("leave_one_out", {}), ("k_fold", {"n_folds": 3})])
    def test_cross_validation_fitness_modes(self, rng, mode, kw):
        bank, labels = two_cluster_bank(rng, per_class=4)
        split = DatasetSplit((0, 1, 2, 4, 5, 6), (3, 7), (), seed=1)
        params = quick_params(max_generations=2, fitness_mode=mode, **kw)
        result = evolve(SplitFitness(bank, labels, split), params, SvmParams(), seed=3)
        assert result.best_fitness == 1.0


# (params over PINNED_BASE, best_expr, best_fitness, per_generation,
# generation_best_exprs) on a noisy xor_bank at GP seed 1, captured when evolve still scored
# generation 0 ahead of its loop.  The best improves at generation 3, and at
# generation 1 a smaller tree ties it on fitness and takes its place.
PINNED_BASE = dict(population_size=12, max_generations=5, stagnation_limit=3)
PINNED_EVOLUTIONS = [
    (
        {},
        "(* K1 K2)",
        0.8333333333333334,
        [
            (0, 0.6666666666666666, 0.3055555555555555),
            (1, 0.6666666666666666, 0.4861111111111111),
            (2, 0.6666666666666666, 0.6250000000000001),
            (3, 0.8333333333333334, 0.5972222222222222),
            (4, 0.8333333333333334, 0.5694444444444444),
            (5, 0.8333333333333334, 0.47222222222222215),
        ],
        [
            "(* (* (* K1 K2) (+ K1 K1)) (* (* K1 K2) (+ K1 K2)))",
            "(* (* (* K1 K2) (+ K1 K1)) K2)",
            "(* (* (* K1 K2) (+ K1 K1)) K2)",
            "(* K1 K2)",
            "(* K1 K2)",
            "(* K1 K2)",
        ],
    ),
    (
        {"max_generations": 0},
        "(* (* (* K1 K2) (+ K1 K1)) (* (* K1 K2) (+ K1 K2)))",
        0.6666666666666666,
        [
            (0, 0.6666666666666666, 0.3055555555555555),
        ],
        [
            "(* (* (* K1 K2) (+ K1 K1)) (* (* K1 K2) (+ K1 K2)))",
        ],
    ),
    (
        {"elitism": 0},
        "(* K1 K2)",
        0.8333333333333334,
        [
            (0, 0.6666666666666666, 0.3055555555555555),
            (1, 0.6666666666666666, 0.4444444444444445),
            (2, 0.6666666666666666, 0.5),
            (3, 0.8333333333333334, 0.5277777777777778),
            (4, 0.6666666666666666, 0.5694444444444444),
            (5, 0.8333333333333334, 0.6249999999999999),
        ],
        [
            "(* (* (* K1 K2) (+ K1 K1)) (* (* K1 K2) (+ K1 K2)))",
            "(* (* (* K1 K2) (+ K1 K1)) K2)",
            "(* (* (* K2 K2) K1) K1)",
            "(* K1 K2)",
            "(* (* (* K2 K2) K1) K1)",
            "(* K1 K2)",
        ],
    ),
    (
        {"elitism": 2},
        "(* (* (* K1 K2) K2) K1)",
        0.6666666666666666,
        [
            (0, 0.6666666666666666, 0.3055555555555555),
            (1, 0.6666666666666666, 0.4861111111111111),
            (2, 0.6666666666666666, 0.5972222222222222),
            (3, 0.6666666666666666, 0.486111111111111),
        ],
        [
            "(* (* (* K1 K2) (+ K1 K1)) (* (* K1 K2) (+ K1 K2)))",
            "(* (* (* K1 K2) (+ K1 K1)) K2)",
            "(* (* (* K1 K2) K2) K1)",
            "(* (* (* K1 K2) K2) K1)",
        ],
    ),
    (
        {"stagnation_limit": 1},
        "(* (* (* K1 K2) (+ K1 K1)) K2)",
        0.6666666666666666,
        [
            (0, 0.6666666666666666, 0.3055555555555555),
            (1, 0.6666666666666666, 0.4861111111111111),
        ],
        [
            "(* (* (* K1 K2) (+ K1 K1)) (* (* K1 K2) (+ K1 K2)))",
            "(* (* (* K1 K2) (+ K1 K1)) K2)",
        ],
    ),
    (
        {"tournament_size": 12},
        "(* K1 K2)",
        0.8333333333333334,
        [
            (0, 0.6666666666666666, 0.3055555555555555),
            (1, 0.6666666666666666, 0.6111111111111112),
            (2, 0.6666666666666666, 0.6250000000000001),
            (3, 0.8333333333333334, 0.5555555555555555),
            (4, 0.8333333333333334, 0.4583333333333333),
            (5, 0.8333333333333334, 0.3194444444444444),
        ],
        [
            "(* (* (* K1 K2) (+ K1 K1)) (* (* K1 K2) (+ K1 K2)))",
            "(* (* (* K1 K2) (+ K1 K1)) (* (* K1 K2) (+ K1 K2)))",
            "(* (* (* K1 K2) (+ K1 K2)) K1)",
            "(* K1 K2)",
            "(* K1 K2)",
            "(* K1 K2)",
        ],
    ),
    (
        {"seed_leaves": False},
        "(* K1 K2)",
        0.8333333333333334,
        [
            (0, 0.8333333333333334, 0.36111111111111116),
            (1, 0.8333333333333334, 0.5138888888888888),
            (2, 0.8333333333333334, 0.5555555555555556),
            (3, 0.8333333333333334, 0.5416666666666667),
        ],
        [
            "(* K1 K2)",
            "(* K1 K2)",
            "(* K1 K2)",
            "(* K1 K2)",
        ],
    ),
]


@pytest.mark.parametrize("kw,best_expr,best_fitness,per_generation,best_exprs", PINNED_EVOLUTIONS)
def test_evolve_results_are_pinned(kw, best_expr, best_fitness, per_generation, best_exprs):
    bank, labels = xor_bank(n_per_class=9, noise=6.0, seed=5)
    split = make_splits(labels, 6, 2, 1, seed=4)[0]
    result = evolve(SplitFitness(bank, labels, split), GpParams(**{**PINNED_BASE, **kw}), SvmParams(), seed=1)
    assert canonical_string(result.best_expr) == best_expr
    assert result.best_fitness == best_fitness
    assert result.per_generation == per_generation
    assert result.generation_best_exprs == best_exprs


class TestEvolutionLog:
    def test_csv_format(self, rng, tmp_path):
        bank, labels = two_cluster_bank(rng)
        split = DatasetSplit((0, 1, 3, 4), (2, 5), (), seed=1)
        result = evolve(SplitFitness(bank, labels, split), quick_params(max_generations=3), SvmParams(), seed=3)
        path = tmp_path / "log.csv"
        write_evolution_log(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == "generation,best_fitness,mean_fitness,best_expr"
        assert len(lines) == 1 + len(result.per_generation)
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == result.generation_best_exprs[0]
