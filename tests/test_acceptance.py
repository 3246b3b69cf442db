"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines and
per-criterion timing.
"""

import time
from contextlib import contextmanager

import numpy as np

from kernelforge import (
    Add,
    GpParams,
    GramMatrix,
    KernelBank,
    Leaf,
    SplitFitness,
    SvmParams,
    best_single_kernel,
    build_bank,
    build_index,
    canonical_string,
    evaluate,
    evolve,
    fitness,
    make_splits,
    normalize,
    query,
    run_comparison,
    train_binary,
)
from kernelforge.cli import main as cli_main
from kernelforge.gram import add as gram_add
from kernelforge.gram import multiply as gram_multiply
from kernelforge.harness import ProtocolConfig, _addition_expr
from kernelforge.kernel_io import save_feature_csv
from kernelforge.synthetic import xor_bank, xor_views

from oracles import brute_force_dual_max, check_psd, dual_objective, enumerate_trees, random_psd
from oracles import numpy_violators as _violators


@contextmanager
def criterion(number: int, name: str):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS ({time.time() - start:.1f}s)")


def random_expr(n, max_depth, rng):
    if max_depth == 1 or rng.random() < 0.3:
        return Leaf(int(rng.integers(0, n)))
    op = Add if rng.integers(0, 2) == 0 else __import__("kernelforge").Mul
    return op(random_expr(n, max_depth - 1, rng), random_expr(n, max_depth - 1, rng))


def test_01_smo_matches_brute_force_oracle():
    with criterion(1, "SMO-vs-oracle"):
        rng = np.random.default_rng(1001)
        start = time.time()
        for trial in range(50):
            p = int(rng.integers(2, 7))
            kernel = random_psd(p, rng)
            labels = np.where(rng.random(p) < 0.5, -1.0, 1.0)
            if np.all(labels == labels[0]):
                labels[int(rng.integers(0, p))] *= -1.0
            c = (1.0, 10.0)[trial % 2]
            params = SvmParams(c=c, kkt_tol=1e-5, max_passes=2000)
            model = train_binary(kernel, labels, params, np.random.default_rng(trial))

            # feasibility and KKT invariants
            assert model.converged
            assert np.all(model.alpha >= 0.0) and np.all(model.alpha <= c)
            assert abs(float(np.sum(model.alpha * labels))) <= 1e-8
            g = kernel @ (model.alpha * labels)
            assert _violators(model.alpha, g, model.bias, labels, c, params.kkt_tol, params.eps).size == 0

            smo_obj = dual_objective(kernel, labels, model.alpha)
            oracle_obj, _ = brute_force_dual_max(kernel, labels, c)
            assert smo_obj >= oracle_obj - 1e-3, f"trial {trial}: {smo_obj} < {oracle_obj} - 1e-3"
        assert time.time() - start < 60.0


def test_02_kernel_algebra_closure():
    with criterion(2, "kernel-algebra closure"):
        rng = np.random.default_rng(2002)
        start = time.time()
        for trial in range(1000):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(2, 7))
            mats = [random_psd(m, rng) for _ in range(n)]
            bank = KernelBank(tuple(GramMatrix(v) for v in mats), tuple(f"k{i}" for i in range(n)))
            expr = random_expr(n, 6, rng)
            result = evaluate(expr, bank)
            assert check_psd(result, 1e-8)
            if not isinstance(expr, Leaf):
                left = evaluate(expr.left, bank)
                right = evaluate(expr.right, bank)
                op = gram_add if isinstance(expr, Add) else gram_multiply
                assert np.array_equal(result.values, op(left, right).values)
        assert time.time() - start < 60.0


def test_03_synthetic_three_way_comparison():
    with criterion(3, "synthetic three-way comparison"):
        start = time.time()
        bank, labels = xor_bank(n_per_class=60, n_classes=3, seed=7)
        protocol = ProtocolConfig(per_class_train=15, per_class_val=5, repeats=10, seed=7)
        gp_params = GpParams(population_size=40, max_generations=12, stagnation_limit=4)
        report, _ = run_comparison(bank, labels, protocol, gp_params, SvmParams())

        evolved = report.mean["evolved"]
        margin_addition = (evolved - report.mean["addition"]) * 100.0
        margin_best = (evolved - report.mean["best_single"]) * 100.0
        print(
            f"  evolved {evolved * 100:.2f} vs addition {report.mean['addition'] * 100:.2f}"
            f" vs best_single {report.mean['best_single'] * 100:.2f}"
        )
        assert margin_addition >= 10.0, f"margin over addition kernel only {margin_addition:.1f}"
        assert margin_best >= 10.0, f"margin over best single kernel only {margin_best:.1f}"
        # qualitative ordering: evolved above both baselines on the aggregate
        assert evolved > report.mean["addition"] and evolved > report.mean["best_single"]
        assert report.mean["evolved"] >= report.mean["best_single"] - 2.0 * report.std["best_single"]
        assert time.time() - start < 600.0


def test_04_dominance_floor_over_best_single():
    with criterion(4, "evolved dominates best single kernel"):
        rng = np.random.default_rng(4004)
        gp_params = GpParams(population_size=10, max_generations=2, stagnation_limit=2, seed_leaves=True)
        svm_params = SvmParams(max_passes=200)
        for trial in range(20):
            n = int(rng.integers(2, 5))
            n_classes = int(rng.integers(2, 4))
            per_class = 12
            m = n_classes * per_class
            views = [rng.standard_normal((m, 2)) for _ in range(n)]
            labels = np.repeat(np.arange(n_classes), per_class)
            bank, _ = build_bank(views)
            split = make_splits(labels, 8, 3, 1, seed=trial)[0]
            _, best_single_acc = best_single_kernel(bank, labels, split, svm_params)
            result = evolve(SplitFitness(bank, labels, split), gp_params, svm_params)
            assert result.best_fitness >= best_single_acc, (
                f"trial {trial}: {result.best_fitness} < {best_single_acc}"
            )


def test_05_compare_rerun_deterministic(tmp_path):
    with criterion(5, "rerun determinism of compare"):
        views, labels = xor_views(n_per_class=12, seed=3)
        for i, view in enumerate(views, start=1):
            save_feature_csv(tmp_path / f"view{i}.csv", view, labels)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "seed = 11",
                    'data.features = ["view1.csv", "view2.csv"]',
                    "output_dir = kernels",
                    "protocol.per_class_train = 8",
                    "protocol.per_class_val = 3",
                    "protocol.repeats = 2",
                    "gp.population_size = 12",
                    "gp.max_generations = 4",
                ]
            )
            + "\n"
        )
        assert cli_main(["gram", "--config", str(cfg)]) == 0
        common = [
            "compare", "--config", str(cfg),
            "--set", "data.manifest=kernels/manifest.json",
            "--output", "runs",
        ]
        assert cli_main([*common, "--set", "run_dir=serial"]) == 0
        serial = (tmp_path / "runs" / "serial" / "report.json").read_bytes()
        assert cli_main([*common, "--set", "run_dir=serial2"]) == 0
        assert (tmp_path / "runs" / "serial2" / "report.json").read_bytes() == serial


def test_06_evolve_matches_exhaustive_enumeration():
    with criterion(6, "exhaustive-enumeration equivalence"):
        rng = np.random.default_rng(6006)
        trees = enumerate_trees(2, 3)
        assert len(trees) == 202
        gp_params = GpParams(
            population_size=60,
            max_generations=20,
            max_depth=3,
            init_depth_range=(1, 3),
            mutation_rate=0.3,
            stagnation_limit=20,
        )
        svm_params = SvmParams(max_passes=200)
        for trial in range(10):
            m = 24
            views = [rng.standard_normal((m, 2)) for _ in range(2)]
            labels = np.repeat([0, 1], m // 2)
            bank, _ = build_bank(views)
            split = make_splits(labels, 8, 3, 1, seed=100 + trial)[0]

            score = SplitFitness(bank, labels, split)
            by_canon: dict[str, float] = {}
            for tree in trees:
                canon = canonical_string(tree)
                if canon not in by_canon:
                    by_canon[canon] = fitness(tree, score, svm_params)
            optimum = max(by_canon.values())

            result = evolve(SplitFitness(bank, labels, split), gp_params, svm_params)
            assert result.best_fitness == optimum, (
                f"trial {trial}: GP best {result.best_fitness} != enumerated optimum {optimum}"
            )


def test_07_retrieval_consistency():
    with criterion(7, "retrieval consistency"):
        rng = np.random.default_rng(7007)
        mats = [random_psd(8, rng) for _ in range(5)]
        bank = KernelBank(tuple(GramMatrix(v) for v in mats), tuple(f"k{i}" for i in range(5)))
        chain = Leaf(0)
        for i in range(1, 5):
            chain = Add(chain, Leaf(i))
        ids = [f"item{i}" for i in range(8)]
        index = build_index(chain, bank, ids)
        expected = normalize(evaluate(_addition_expr(len(bank)), bank))
        assert np.max(np.abs(index.matrix.values - expected.values)) <= 1e-12

        for i in range(index.size):
            row = np.delete(index.matrix.values[i], i)
            if len(set(row.tolist())) != len(row):
                continue
            forward = query(index, i, index.size - 1, order="similarity")
            backward = query(index, i, index.size - 1, order="paper-min")
            assert forward == backward[::-1]
