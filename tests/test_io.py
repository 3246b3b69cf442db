import io
import json
import os
import re
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kernelforge.kernel_io as kernel_io
from kernelforge import ConfigError, DataError, GramMatrix, ShapeError
from kernelforge.kernel_io import (
    MAGIC,
    MANIFEST_SCHEMA,
    load_feature_csv,
    load_labels_csv,
    read_kernel,
    read_manifest,
    save_feature_csv,
    save_labels_csv,
    write_kernel,
    write_manifest,
)

from jsondocs import corrupted
from oracles import random_psd

SPLIT = kernel_io._SPLIT_MIN_ITEMS  # read_kernel reads and checks on two threads from here up
SPLITS = hasattr(os, "preadv")  # and only where positional reads exist


class TestKernelBinary:
    def test_round_trip_exact(self, rng, tmp_path):
        g = GramMatrix(random_psd(6, rng), "view/with unicode é")
        path = tmp_path / "k.kgm"
        write_kernel(path, g)
        back = read_kernel(path)
        assert back.source_tag == g.source_tag
        assert np.array_equal(back.values, g.values)

    @pytest.mark.parametrize(
        "m, host, helpers",
        [
            (SPLIT - 1, "two cpus", 0),
            (SPLIT, "two cpus", SPLITS),
            (SPLIT + 1, "two cpus", SPLITS),  # odd: the halves differ by a row
            (SPLIT, "one cpu", 0),
            (SPLIT, "no preadv", 0),
        ],
    )
    def test_round_trip_on_either_side_of_the_split(self, rng, tmp_path, monkeypatch, thread_starts, m, host, helpers):
        monkeypatch.setattr(kernel_io, "_usable_cpus", lambda: 1 if host == "one cpu" else 2)
        if host == "no preadv":
            monkeypatch.delattr(os, "preadv", raising=False)
        g = GramMatrix(random_psd(m, rng), "view/with unicode é")
        path = tmp_path / "k.kgm"
        write_kernel(path, g)
        threads = threading.active_count()
        back = read_kernel(path)
        assert len(thread_starts) == helpers and threading.active_count() == threads
        assert back.source_tag == g.source_tag
        assert back.values.tobytes() == g.values.tobytes()

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


class Trickle(io.FileIO):
    """A raw reader whose every ``readinto``, and every ``os.preadv`` through ``preadv``, returns at most 4096
    bytes, standing in for Linux, where one read returns at most about 2 GiB; ``reads`` counts the calls.  Each
    call runs ``before_read`` first, under a lock, since read_kernel's helper thread reads too."""

    reads = 0
    lock = threading.Lock()

    @classmethod
    def before_read(cls):
        with cls.lock:
            cls.reads += 1

    def readinto(self, buffer):
        self.before_read()
        return super().readinto(memoryview(buffer)[:4096])

    @classmethod
    def preadv(cls, fd, buffers, offset, _real=getattr(os, "preadv", None)):
        cls.before_read()
        return _real(fd, [memoryview(buffers[0])[:4096]], offset)


HALF = 8 * SPLIT * (SPLIT // 2)  # the bytes of the rows the caller reads at m = SPLIT
needs_preadv = pytest.mark.skipif(not SPLITS, reason="no os.preadv, so read_kernel reads on the caller alone")


class TestShortReads:
    """``read_kernel`` continues short reads until the array is full, and stops at the end of the file, on
    the caller alone and, from ``_SPLIT_MIN_ITEMS`` items up, on two threads, each reading half the rows."""

    @staticmethod
    def read_through(monkeypatch, reader, path):
        reader.reads = 0
        monkeypatch.setattr(kernel_io, "open", lambda file, mode, buffering: reader(file, mode), raising=False)
        monkeypatch.setattr(os, "preadv", reader.preadv, raising=False)
        monkeypatch.setattr(kernel_io, "_usable_cpus", lambda: 2)
        return read_kernel(path)

    def test_short_reads_give_the_same_bytes(self, rng, monkeypatch, tmp_path):
        g = GramMatrix(random_psd(60, rng), "short reads")
        path = tmp_path / "k.kgm"
        write_kernel(path, g)
        back = self.read_through(monkeypatch, Trickle, path)
        assert Trickle.reads == -(-8 * 60 * 60 // 4096)  # 28,800 bytes in 4096-byte reads
        assert back.values.tobytes() == g.values.tobytes() and back.source_tag == g.source_tag

    def test_a_file_that_shrinks_while_it_is_read_is_truncated(self, rng, monkeypatch, tmp_path):
        class Shrinking(Trickle):
            def readinto(self, buffer):
                os.truncate(self.name, 8 + 4096 + 100)  # after the size check, as another process might
                return super().readinto(buffer)

        path = tmp_path / "k.kgm"
        write_kernel(path, GramMatrix(random_psd(60, rng), "k"))
        with pytest.raises(DataError, match=re.escape(f"{path}: truncated kernel file")):
            self.read_through(monkeypatch, Shrinking, path)
        assert Shrinking.reads == 3  # 4096 bytes, 100 bytes, then the end of the file

    @needs_preadv
    def test_short_positional_reads_give_the_same_bytes(self, rng, monkeypatch, tmp_path):
        g = GramMatrix(random_psd(SPLIT, rng), "short reads")
        path = tmp_path / "k.kgm"
        write_kernel(path, g)
        threads = threading.active_count()
        back = self.read_through(monkeypatch, Trickle, path)
        assert threading.active_count() == threads
        assert Trickle.reads == -(-HALF // 4096) + -(-(8 * SPLIT * SPLIT - HALF) // 4096)  # each half in its own
        assert back.values.tobytes() == g.values.tobytes() and back.source_tag == g.source_tag

    @needs_preadv
    @pytest.mark.parametrize(
        "kept, reads",
        [
            # the caller's 4096 and 100 bytes and the end of the file; the helper's rows start past it
            pytest.param(4096 + 100, 4, id="first half"),
            # the caller's whole half, and the helper's 4096 and 100 bytes and the end of the file
            pytest.param(HALF + 4096 + 100, -(-HALF // 4096) + 3, id="second half"),
        ],
    )
    def test_a_file_that_shrinks_in_either_half_is_truncated(self, rng, monkeypatch, tmp_path, kept, reads):
        path = tmp_path / "k.kgm"

        class Shrinking(Trickle):
            @classmethod
            def before_read(cls):
                with cls.lock:  # so each thread reads after the truncation
                    cls.reads += 1
                    os.truncate(path, 8 + kept)  # after the size check, as another process might

        write_kernel(path, GramMatrix(random_psd(SPLIT, rng), "k"))
        threads = threading.active_count()
        with pytest.raises(DataError, match=re.escape(f"{path}: truncated kernel file")):
            self.read_through(monkeypatch, Shrinking, path)
        assert threading.active_count() == threads
        assert Shrinking.reads == reads

    @needs_preadv
    @pytest.mark.parametrize("half", ["first", "second"])
    def test_a_half_read_short_is_truncated_though_the_file_grows_back(self, rng, monkeypatch, tmp_path, half):
        # rewritten in place while it is read: the tail is whole again, so only the half's short count tells
        path = tmp_path / "k.kgm"
        write_kernel(path, GramMatrix(random_psd(SPLIT, rng), "k"))
        whole = path.read_bytes()
        end = 8 + (0 if half == "first" else HALF) + 4096  # the offset of that half's second read

        class Rewritten(Trickle):
            rewriting = threading.Lock()  # every read sees the whole file but the one at ``end``

            @classmethod
            def preadv(cls, fd, buffers, offset):
                with cls.rewriting:
                    if offset != end:
                        return super().preadv(fd, buffers, offset)
                    os.truncate(path, end)
                    n = super().preadv(fd, buffers, offset)
                    path.write_bytes(whole)
                    return n

        threads = threading.active_count()
        with pytest.raises(DataError, match=re.escape(f"{path}: truncated kernel file")):
            self.read_through(monkeypatch, Rewritten, path)
        assert threading.active_count() == threads


@needs_preadv
def test_concurrent_loads_under_fast_thread_switching_give_the_same_bytes(rng, tmp_path, monkeypatch):
    # four callers, each with its own helper: eight threads on however few cores, switching every microsecond
    monkeypatch.setattr(kernel_io, "_usable_cpus", lambda: 2)
    g = GramMatrix(random_psd(SPLIT + 1, rng), "k")
    path = tmp_path / "k.kgm"
    write_kernel(path, g)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            loads = [callers.submit(read_kernel, path) for _ in range(12)]
            backs = [load.result(timeout=60) for load in loads]
    finally:
        sys.setswitchinterval(interval)
    assert all(back.values.tobytes() == g.values.tobytes() for back in backs)
    assert threading.active_count() == threads


class TestReplacingAFile:
    """Every writer of the package replaces its file: what is at the path is unlinked, then the file is made anew."""

    def test_a_reader_of_the_old_file_reads_it_to_the_end(self, rng, tmp_path):
        path = tmp_path / "k.kgm"
        write_kernel(path, GramMatrix(np.eye(3), "old"))
        old = path.read_bytes()
        new = GramMatrix(random_psd(5, rng), "new")
        with open(path, "rb") as fh:
            head = fh.read(8)
            write_kernel(path, new)
            assert head + fh.read() == old
        back = read_kernel(path)
        assert back.source_tag == "new" and np.array_equal(back.values, new.values)

    def test_a_symlink_is_replaced_and_its_target_left_as_it_was(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "labels.csv"
        target.write_text("kept\n")
        link.symlink_to(target)
        save_labels_csv(link, [1, 2])
        assert not link.is_symlink() and link.read_text() == "1\n2\n"
        assert target.read_text() == "kept\n"

    def test_a_replaced_file_gets_the_default_mode(self, tmp_path):
        fresh, path = tmp_path / "fresh.csv", tmp_path / "labels.csv"
        save_labels_csv(fresh, [1])
        save_labels_csv(path, [1])
        mode = os.stat(fresh).st_mode
        path.chmod(mode ^ 0o001)
        save_labels_csv(path, [2])
        assert os.stat(path).st_mode == mode

    def test_a_directory_in_the_way_is_a_config_error_naming_the_path(self, tmp_path):
        path = tmp_path / "k.kgm"
        path.mkdir()
        with pytest.raises(ConfigError, match=re.escape(f"cannot write {path}: ")):
            write_kernel(path, GramMatrix(np.eye(2), "k"))
        assert path.is_dir()


# any finite float, with signed zeros and subnormals drawn often
ENTRIES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3]
)
NAMES = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12) | st.sampled_from(
    ["é", "视图 K1", "(* K1 K2) κ🙂"]
)


@st.composite
def symmetric_matrices(draw, max_m=12):
    m = draw(st.integers(1, max_m))
    upper = np.triu_indices(m)
    v = np.zeros((m, m))
    v[upper] = v.T[upper] = draw(st.lists(ENTRIES, min_size=upper[0].size, max_size=upper[0].size))
    return v


def kgm_bytes(values, name: str) -> bytes:
    """A kernel file laid out by hand, so the entries skip GramMatrix's checks."""
    name_bytes = name.encode("utf-8")
    return (
        MAGIC
        + struct.pack("<I", values.shape[0])
        + np.ascontiguousarray(values, "<f8").tobytes()
        + struct.pack("<I", len(name_bytes))
        + name_bytes
    )


class TestKernelBinaryProperties:
    @given(values=symmetric_matrices(), name=NAMES)
    def test_round_trip_is_bitwise(self, tmp_path_factory, values, name):
        path = tmp_path_factory.mktemp("kgm") / "k.kgm"
        write_kernel(path, GramMatrix(values, name))
        assert path.read_bytes() == kgm_bytes(values, name)
        back = read_kernel(path)
        assert back.values.tobytes() == values.tobytes()
        assert back.source_tag == name
        assert not back.values.flags.writeable

    @given(values=symmetric_matrices(max_m=3), name=NAMES)
    def test_every_truncation_and_one_extra_byte_rejected(self, tmp_path_factory, values, name):
        path = tmp_path_factory.mktemp("kgm") / "k.kgm"
        blob = kgm_bytes(values, name)
        for corrupt in [blob[:cut] for cut in range(len(blob))] + [blob + b"\x00"]:
            path.write_bytes(corrupt)
            with pytest.raises(DataError):
                read_kernel(path)

    def test_header_promising_more_than_the_file_holds_rejected(self, tmp_path):
        # 2**32 - 1 rows would not even fit an address space; the file size check comes first
        path = tmp_path / "k.kgm"
        path.write_bytes(MAGIC + struct.pack("<I", 2**32 - 1) + bytes(12))
        with pytest.raises(DataError, match="truncated"):
            read_kernel(path)

    @given(
        values=symmetric_matrices(max_m=5),
        where=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def test_non_finite_entry_is_data_error(self, tmp_path_factory, values, where, bad):
        m = values.shape[0]
        values[where[0] % m, where[1] % m] = bad
        path = tmp_path_factory.mktemp("kgm") / "k.kgm"
        path.write_bytes(kgm_bytes(values, "k"))
        with pytest.raises(DataError, match="non-finite") as raised:
            read_kernel(path)
        assert raised.type is DataError

    @given(values=symmetric_matrices(max_m=5).filter(lambda v: v.shape[0] > 1), data=st.data())
    def test_asymmetric_entry_is_shape_error(self, tmp_path_factory, values, data):
        m = values.shape[0]
        i = data.draw(st.integers(0, m - 2))
        j = data.draw(st.integers(i + 1, m - 1))
        # on Python floats the gap of two near-max entries overflows to inf, not to a RuntimeWarning
        mirror = float(values[j, i])
        values[i, j] = data.draw(ENTRIES.filter(lambda x: abs(x - mirror) > 1e-9))
        path = tmp_path_factory.mktemp("kgm") / "k.kgm"
        path.write_bytes(kgm_bytes(values, "k"))
        with pytest.raises(ShapeError, match="asymmetric"):
            read_kernel(path)


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

    @pytest.mark.parametrize("text", ["0 1\n", "0 1\n1 0\n2 2\n"])
    def test_more_than_one_column_is_data_error(self, tmp_path, text):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="labels.csv: need one label per line, got 2 columns"):
            load_labels_csv(path)


def manifests():
    entry = st.fixed_dictionaries(
        {"name": st.text(), "file": st.text(), "gamma": st.floats(allow_nan=False, allow_infinity=False)}
    )
    return st.fixed_dictionaries(
        {
            "schema": st.just(MANIFEST_SCHEMA),
            "m": st.integers(0, 2**63 - 1),
            "kernels": st.lists(entry, max_size=3),
            "labels_file": st.text(),
        }
    )


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

    @given(manifests())
    def test_round_trip_property(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("manifest") / "manifest.json"
        write_manifest(path, doc["m"], doc["kernels"], doc["labels_file"])
        if doc["kernels"]:
            assert read_manifest(path) == doc
        else:  # a manifest that lists no kernel is refused where it is read
            with pytest.raises(DataError, match="manifest.json.kernels: need at least one kernel"):
                read_manifest(path)

    @given(manifests(), st.data())
    def test_corruption_rejected(self, tmp_path_factory, doc, data):
        path = tmp_path_factory.mktemp("manifest") / "manifest.json"
        path.write_text(json.dumps(corrupted(data, doc)))
        with pytest.raises(DataError):
            read_manifest(path)
