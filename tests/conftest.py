import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile("suite", deadline=None, max_examples=40)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def final_trainings(monkeypatch):
    """List that gains one entry per train_multiclass call made outside gp.fitness.

    svm.fit_predict is the one caller of train_multiclass, so the count is
    taken at svm's module attribute; gp.fitness is wrapped wherever it is bound.
    """
    import kernelforge.gp as gp_mod
    import kernelforge.harness as harness_mod
    import kernelforge.svm as svm_mod

    calls, inside = [], [0]
    real_train, real_fitness = svm_mod.train_multiclass, gp_mod.fitness

    def train(*args, **kwargs):
        if not inside[0]:
            calls.append(args)
        return real_train(*args, **kwargs)

    def fitness(*args, **kwargs):
        inside[0] += 1
        try:
            return real_fitness(*args, **kwargs)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(svm_mod, "train_multiclass", train)
    for module in (gp_mod, harness_mod):
        monkeypatch.setattr(module, "fitness", fitness)
    return calls
