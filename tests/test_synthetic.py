"""The synthetic datasets, pinned bit for bit: the sha256 of every view, the
labels and every kernel of the banks built from them.  The tests, the scripts
and the benchmark all draw their data here, so a change that moves one draw
or reorders the points fails here first.  At m <= 180 and d = 2 the kernels
have the same bits at 1 and 2 BLAS threads."""

import hashlib

import numpy as np
import pytest

from kernelforge.synthetic import or_bank, or_views, xor_bank, xor_views


def sha(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


XOR_60_LABELS = "4eca77d823923a99f15a01d44aeb1956f6e32b7c964f5fba617a9d656b6f9ab8"
OR_24_LABELS = "bc419abe9d473348a83fdc97fd3a7f8572d5866a26c09dcf615f5ad503abb5a6"

# (call, rows, view hashes, label hash)
PINNED_VIEWS = {
    "xor_views(60, seed=1)": (
        lambda: xor_views(60, seed=1),
        180,
        (
            "1a41290e8426dae035c490ef3eeff7819533a2e3bb0060cb26882e3156c1de8f",
            "2fc08f3263c22d6d41ddc4ccb375e51f03ae395b020f2a4611181ad245d21f65",
        ),
        XOR_60_LABELS,
    ),
    "xor_views(12, n_classes=4, seed=3)": (
        lambda: xor_views(12, n_classes=4, seed=3),
        48,
        (
            "003fded5b6229c4b9699e37c3f068d9dd98e1a0d5381104eedd9868bc2d8eb22",
            "d10dece8b65ec0a37b6b6d1ca2feb63bf3e477b83e437a215067cd04e4a1795f",
        ),
        "08fa48be57d4676a4bc7258efd33771de7480fb4e4988250846e5cfc8053b7d2",
    ),
    "or_views(24, seed=11)": (
        lambda: or_views(24, seed=11),
        48,
        (
            "1ec58bb879337830e3a03c9d17cef18431a1f3149970e4fa9088d1f28bdeb046",
            "bc1f1c5709decdb0b84819b7e39c7ccb0ee5de44aa1aeabbc85837ce40c7ce7a",
        ),
        OR_24_LABELS,
    ),
}

# (call, kernel hashes, label hash)
PINNED_BANKS = {
    "xor_bank(n_per_class=12, seed=2)": (
        lambda: xor_bank(n_per_class=12, seed=2),
        (
            "bb22f5318a7c929f772d84f580d499bd3c9cf277ab59283cc373f66a19ce9e96",
            "e894ce8d6d6023de921b1945dcf89dd90acd6900d26060d34cd9794902c5e6d9",
        ),
        "6e2e8cacc19f69eeb5e2a655df0ef40c42894557b2b9b54caa8324d0f7b9d769",
    ),
    # the benchmark's xor-small set-up at seed 1 (tests/test_benchmark_reports.py)
    "xor_bank(60, seed=1)": (
        lambda: xor_bank(60, seed=1),
        (
            "5a80ed8c3dcf68f9b70a19e14721ecbd0dae52f871001294bee86b128a48a63a",
            "2641b0cbfc6367721d2008861593debe98a6bd3ea98224e085326eec2034eeb3",
        ),
        XOR_60_LABELS,
    ),
    "or_bank(24, seed=11)": (
        lambda: or_bank(24, seed=11),
        (
            "302589bfa09a13e71cdfc022349bb2a8fd444e46e95db70657179cffcd3368cd",
            "206ee98eb10c52264a5a54e73303625c8d07a344f20e0faa4e5418faa4e5dcbf",
        ),
        OR_24_LABELS,
    ),
}


@pytest.mark.parametrize("name", PINNED_VIEWS)
def test_views_and_labels_are_pinned(name):
    make, rows, view_hashes, label_hash = PINNED_VIEWS[name]
    views, labels = make()
    assert [v.shape for v in views] == [(rows, 2)] * 2
    assert all(v.dtype == np.float64 and v.flags.c_contiguous for v in views)
    assert labels.shape == (rows,) and labels.dtype == np.dtype(int)
    assert tuple(sha(v) for v in views) == view_hashes
    assert sha(labels) == label_hash


@pytest.mark.parametrize("name", PINNED_BANKS)
def test_bank_kernels_are_pinned(name):
    make, kernel_hashes, label_hash = PINNED_BANKS[name]
    bank, labels = make()
    assert tuple(k.source_tag for k in bank.kernels) == ("view1", "view2")
    assert tuple(sha(k.values) for k in bank.kernels) == kernel_hashes
    assert sha(labels) == label_hash
