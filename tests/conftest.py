import os
import platform

import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile("suite", deadline=None, max_examples=40)
hypothesis.settings.load_profile("suite")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pytest_report_header(config):
    """What the pinned bits depend on: the numpy release (its random streams and
    kernels; the pins were taken on numpy 2.4.6), the Python release, and the BLAS
    thread setting, since a large ``x @ x.T``'s bits depend on how many threads
    BLAS splits it over."""
    blas = " ".join(f"{var}={os.environ.get(var, '(unset)')}" for var in BLAS_THREAD_VARS)
    return [
        f"numpy {np.__version__}; python {platform.python_version()}",
        f"blas threads: {blas}; os.cpu_count()={os.cpu_count()}",
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def final_trainings(monkeypatch):
    """List that gains one entry per train_multiclass call: one per final fit.

    svm.fit_predict_rows (the final fits) is the package's one
    caller of train_multiclass; gp.fitness trains through svm's pair core on
    views of its split's plan, never through train_multiclass
    (tests/test_solver_structure.py), so no fitness call is counted.
    """
    import kernelforge.svm as svm_mod

    calls, real = [], svm_mod.train_multiclass

    def train(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(svm_mod, "train_multiclass", train)
    return calls


@pytest.fixture
def fitness_calls(monkeypatch):
    """List that gains one (canonical expression, split seed, SVM params, mode,
    n_folds) entry per gp.fitness call."""
    import kernelforge.gp as gp_mod
    from kernelforge import canonical_string

    calls, real = [], gp_mod.fitness

    def fitness(expr, score, svm_params, mode="validation", n_folds=5):
        calls.append((canonical_string(expr), score.split.seed, svm_params, mode, n_folds))
        return real(expr, score, svm_params, mode, n_folds)

    monkeypatch.setattr(gp_mod, "fitness", fitness)
    return calls


@pytest.fixture
def symmetry_passes(monkeypatch):
    """List that gains the shape of each array gram._max_asymmetry scans: one
    entry per symmetry check, wherever it is made."""
    import kernelforge.gram as gram_mod

    shapes, real = [], gram_mod._max_asymmetry

    def max_asymmetry(v):
        shapes.append(v.shape)
        return real(v)

    monkeypatch.setattr(gram_mod, "_max_asymmetry", max_asymmetry)
    return shapes


@pytest.fixture
def two_workers(monkeypatch):
    """build_bank sees two usable CPUs, so from gram._POOL_MIN_ITEMS items up it
    builds its views on two worker threads, on any host."""
    import kernelforge.gram as gram_mod

    monkeypatch.setattr(gram_mod, "_usable_cpus", lambda: 2)
