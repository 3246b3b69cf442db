"""Loading a similarity index opens each of its two files once, unbuffered.

``retrieval.load_index`` reads the kernel file through ``kernel_io.read_kernel``,
straight into the kept array, and the ``.ids`` sidecar as one byte read decoded
as UTF-8.  A buffered open costs a buffer, and a text-mode one a
``TextIOWrapper`` too, on every load: at m = 180 about a quarter of it.  Every
open goes through ``io.open`` (``builtins.open`` is the same function, and
``pathlib`` calls ``io.open``), so recording it sees each file a load opens and
how."""

import builtins
import io
import os

import numpy as np

from kernelforge import GramMatrix, Leaf, SimilarityIndex, load_index, save_index


def opens_during(monkeypatch, call) -> list[tuple[str, str, int]]:
    """(path, mode, buffering) of each file opened through ``io.open`` while call() runs."""
    opened, real = [], io.open

    def recording_open(file, mode="r", buffering=-1, *args, **kwargs):
        opened.append((os.fspath(file), mode, buffering))
        return real(file, mode, buffering, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", recording_open)
        patch.setattr(io, "open", recording_open)
        call()
    return opened


def test_load_index_opens_each_file_once_unbuffered(tmp_path, monkeypatch):
    path = tmp_path / "sims.kgm"
    save_index(path, SimilarityIndex(GramMatrix(np.eye(3)), ("a", "b", "c"), Leaf(0)))
    opened = opens_during(monkeypatch, lambda: load_index(path))
    assert opened == [(str(path), "rb", 0), (f"{path}.ids", "rb", 0)]


def test_the_recorder_sees_a_buffered_text_read(tmp_path, monkeypatch):
    path = tmp_path / "sims.kgm.ids"
    path.write_text("a\n")
    assert opens_during(monkeypatch, path.read_text) == [(str(path), "r", -1)]
