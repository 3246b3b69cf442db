import numpy as np
import pytest

from kernelforge import DataError, GramMatrix
from kernelforge.kernel_io import (
    load_feature_csv,
    load_labels_csv,
    read_kernel,
    read_kernel_csv,
    read_manifest,
    save_feature_csv,
    save_labels_csv,
    write_kernel,
    write_kernel_csv,
    write_manifest,
)

from oracles import random_psd


class TestKernelBinary:
    def test_round_trip_exact(self, rng, tmp_path):
        g = GramMatrix(random_psd(6, rng), "view/with unicode é")
        path = tmp_path / "k.kgm"
        write_kernel(path, g)
        back = read_kernel(path)
        assert back.source_tag == g.source_tag
        assert np.array_equal(back.values, g.values)

    def test_layout(self, tmp_path):
        g = GramMatrix(np.eye(2), "ab")
        path = tmp_path / "k.kgm"
        write_kernel(path, g)
        blob = path.read_bytes()
        assert blob[:4] == b"KGM1"
        assert int.from_bytes(blob[4:8], "little") == 2
        assert len(blob) == 4 + 4 + 8 * 4 + 4 + 2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.kgm"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError):
            read_kernel(path)

    @pytest.mark.parametrize(
        "corrupt",
        [lambda blob: blob[:-3], lambda blob: blob + b"\x00", lambda blob: blob[:6]],
        ids=["truncated-name", "trailing-bytes", "truncated-header"],
    )
    def test_length_disagreeing_with_header_rejected(self, tmp_path, corrupt):
        path = tmp_path / "k.kgm"
        write_kernel(path, GramMatrix(np.eye(2), "(* K1 K2)"))
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(DataError):
            read_kernel(path)

    def test_name_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "k.kgm"
        write_kernel(path, GramMatrix(np.eye(2), "ab"))
        path.write_bytes(path.read_bytes()[:-1] + b"\xff")
        with pytest.raises(DataError, match="UTF-8"):
            read_kernel(path)

    def test_rewrite_is_byte_identical(self, rng, tmp_path):
        g = GramMatrix(random_psd(4, rng), "k")
        a, b = tmp_path / "a.kgm", tmp_path / "b.kgm"
        write_kernel(a, g)
        write_kernel(b, g)
        assert a.read_bytes() == b.read_bytes()


class TestKernelCsv:
    def test_round_trip(self, rng, tmp_path):
        g = GramMatrix(random_psd(5, rng))
        path = tmp_path / "k.csv"
        write_kernel_csv(path, g)
        back = read_kernel_csv(path, name="restored")
        assert back.source_tag == "restored"
        assert np.allclose(back.values, g.values, atol=1e-15)


class TestFeatureCsv:
    def test_round_trip_without_header(self, rng, tmp_path):
        features = rng.standard_normal((5, 3))
        labels = np.array([0, 1, 0, 2, 1])
        path = tmp_path / "f.csv"
        save_feature_csv(path, features, labels)
        x, y = load_feature_csv(path)
        assert np.array_equal(x, features)
        assert np.array_equal(y, labels)

    def test_header_flag(self, rng, tmp_path):
        features = rng.standard_normal((4, 2))
        labels = np.array([1, 1, 0, 0])
        path = tmp_path / "f.csv"
        save_feature_csv(path, features, labels, header=["a", "b", "label"])
        x, y = load_feature_csv(path, header=True)
        assert np.array_equal(x, features)
        assert np.array_equal(y, labels)

    def test_non_integer_labels_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0.0,1.5\n1.0,2.5\n")
        with pytest.raises(DataError):
            load_feature_csv(path)

    def test_single_row_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0.0,1.0,0\n")
        with pytest.raises(DataError):
            load_feature_csv(path)


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        labels = np.array([2, 0, 1, 1])
        path = tmp_path / "labels.csv"
        save_labels_csv(path, labels)
        assert np.array_equal(load_labels_csv(path), labels)


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [{"name": "v1", "file": "k_v1.kgm", "gamma": 0.25}]
        write_manifest(tmp_path / "manifest.json", 10, entries, "labels.csv")
        doc = read_manifest(tmp_path / "manifest.json")
        assert doc["m"] == 10
        assert doc["kernels"] == entries
        assert doc["labels_file"] == "labels.csv"

    def test_unknown_schema_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"schema": "other", "m": 1}')
        with pytest.raises(DataError):
            read_manifest(tmp_path / "manifest.json")
