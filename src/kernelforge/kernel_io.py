"""File formats (kernel binaries, which only ``read_kernel`` reads; feature and label CSVs; manifests), the
bank loader, ``reading``, where input files' errors are typed and named, ``_write_file``, the one writer of every
file the package writes, ``_check_writable``, which finds a directory in the way of an output file before any
work, ``_make_dir``, which makes every output directory, and the shape check of JSON documents.

Binary kernel layout (little-endian throughout):
    magic "KGM1" | u32 m | m*m float64 entries, row-major | u32 name length | name utf-8

Write rule: an output file is replaced, never rewritten in place.  ``_write_file`` unlinks whatever is at the
path, then creates the file anew.  Reopening an existing file with ``O_TRUNC`` waits for the disk write that
the previous ``close()`` started: on ext4 mounted with ``discard`` (2 cores), one m = 990 kernel took
7.8-10.1 ms to write over an existing file (6-7 ms of it in ``open``) and 3.0 ms after an unlink, and at
m = 180 0.3-0.5 ms against 0.07-0.19 ms.  A temporary file renamed over the path is no faster (8.5-8.8 ms),
since ext4 also forces allocation when a rename replaces a file.

Read rule: a kernel file, and a similarity index's ``.ids`` sidecar, are each read through one unbuffered open
(``buffering=0``), with no ``Path`` built on the way.  ``read_kernel`` reads the body straight into the kept
array and continues short reads until it is full: Linux returns at most about 2 GiB per ``read``, so a kernel
of m >= 16384 arrives in several.  The sidecar is one byte read, decoded as UTF-8 and split by
``str.splitlines``, which splits at "\\r\\n" and "\\r" as a text-mode read's newline translation did, so it reads
to the same ids.  A buffered open adds a buffer, and a text-mode one a ``TextIOWrapper``, to every load:
on 2 cores (Python 3.11), ``retrieval.load_index`` at m = 180 took a median 135 us in process with them and
105 us without, and at m = 990 2.50 ms against 2.26 ms.

Read rule on two threads: from ``_SPLIT_MIN_ITEMS`` = 800 items up, where the process may run on two CPUs and
``os.preadv`` exists, ``read_kernel`` reads and checks on two threads: the caller and one helper of a
``ThreadPoolExecutor``, which is joined before it returns or raises.  Each reads half the rows by positional
reads on the one open descriptor, continuing short reads, so both halves come from one inode even if the path is
replaced meanwhile; a half that the file ends short of is a truncated file.  Then they scan alternate strips of
the symmetry check (``gram._max_asymmetry``), whose result, and so every error and bit, is the serial path's.  An
error of the helper's reaches the caller through its future.  The second core pays where a load faults in the
array's fresh pages and where the scan runs: on 2 cores (Python 3.11, numpy 2.4.6), median in-process
``read_kernel`` on the caller alone against on two threads, into fresh pages (the heap trimmed before each load),
m = 384 0.92 against 1.41 ms, 640 3.66 against 3.28, 768-896 a tie, 990 5.41 against 4.51 and 2001 25.4 against
14.9; back to back into pages the heap still maps, m = 640 1.02-1.10 against 1.41-1.51 ms, 768-990 up to 14 %
slower on two threads and 2001 16.8-17.1 against 11.0-11.2 ms.  The threshold lies where a load into fresh pages
gains and one into mapped pages loses little: in perfbench, whose loads sit between the two, wide-bank's 990-item
index loaded in a median 3.08 ms before the split and the scan's tiles, and in 2.55 ms with them.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .gram import GramMatrix, KernelBank, _usable_cpus, require_psd, validate_features

MAGIC = b"KGM1"
MANIFEST_SCHEMA = "kf-manifest-1"
_SPLIT_MIN_ITEMS = 800  # read_kernel's helper thread starts here (see the Read rule)


def check_json(value, template, where: str) -> None:
    """Raise DataError unless a decoded JSON value has the template's shape.

    A template is a type (``float`` means a finite number, ints included, and
    ``int`` one that fits int64; neither takes a bool), a string the value must
    equal, ``[t]`` for a list of ``t``, ``{str: t}`` for an object with any keys
    mapping to ``t``, or a dict of exactly the keys an object must have.
    """
    if isinstance(template, str):
        ok = value == template
    elif isinstance(template, list):
        ok = isinstance(value, list)
        for i, item in enumerate(value if ok else ()):
            check_json(item, template[0], f"{where}[{i}]")
    elif isinstance(template, dict):
        ok = isinstance(value, dict)
        if ok and str not in template and set(value) != set(template):
            raise DataError(f"{where}: missing or unknown keys {sorted(set(value) ^ set(template))}")
        for key, item in value.items() if ok else ():
            check_json(item, template.get(str, template.get(key)), f"{where}.{key}")
    elif template is int or template is float:
        kinds, limit = (int, 2**63 - 1) if template is int else ((int, float), sys.float_info.max)
        ok = isinstance(value, kinds) and not isinstance(value, bool) and abs(value) <= limit
    else:
        ok = isinstance(value, template)
    if not ok:
        raise DataError(f"{where}: unexpected value {value!r:.60}")


def parse_json(text, template, where: str):
    """json.loads (str or UTF bytes), then check_json; input that does not decode raises DataError too."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise DataError(f"{where}: invalid JSON: {exc}") from exc
    check_json(doc, template, where)
    return doc


def dump_json(doc) -> str:
    """The layout of every JSON file the package writes: two-space indent, sorted keys, a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_file(path, *chunks) -> None:
    """Replace the file at path with one holding the chunks: each str as UTF-8, each bytes-like object as it is.

    Whatever is at the path is unlinked first (a missing file is fine), and the file is created anew, so a
    reader that opened the old file still reads the old bytes to the end, a symlink is replaced by a regular
    file and its target is left as it was, and the new file gets the default mode, not the old file's.  No
    fsync is called, as none was when files were rewritten in place.  An OSError (a directory in the way, no
    permission, a full disk) is a ConfigError naming the path and the reason.
    """
    try:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        with open(path, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(paths) -> None:
    """Raise, before any work, the ConfigError ``_write_file`` would raise after it for the first path that a
    directory is in the way of.  Nothing is made, so a run that fails leaves nothing behind; a symlink is no
    obstacle, since ``_write_file`` replaces it."""
    for path in paths:
        if os.path.isdir(path) and not os.path.islink(path):
            raise ConfigError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")


def _make_dir(path) -> None:
    """Make the directory at path and its parents, if missing, as every output directory is made.  An OSError
    (a file in the way, no permission) is a ConfigError naming the path and the reason, as in ``_write_file``."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make directory {path}: {exc.strerror or exc}") from exc


def write_kernel(path, gram: GramMatrix) -> None:
    name = gram.source_tag.encode("utf-8")
    head = MAGIC + struct.pack("<I", gram.size)
    values = np.ascontiguousarray(gram.values, dtype="<f8")  # the array's own buffer
    _write_file(path, head, values, struct.pack("<I", len(name)) + name)


@contextmanager
def reading(path, what: str):
    """The one place an input file's errors are typed and named: a DataError raised inside keeps its
    class, with ``{path}: `` before its message; an OSError or ValueError is a DataError naming both."""
    try:
        yield
    except DataError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {what} is not valid UTF-8: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: cannot read {what}: {exc}") from exc


def read_kernel(path) -> GramMatrix:
    """The kernel in a binary kernel file, read through one unbuffered open straight into the kept array,
    short reads continued until it is full, and checked there; from ``_SPLIT_MIN_ITEMS`` items up, the
    reads and the check are split between the caller and one helper thread."""
    with reading(path, "kernel file"), open(path, "rb", buffering=0) as fh:
        head = fh.read(8)
        if head[:4] != MAGIC:
            raise DataError(f"not a kernel file (bad magic {head[:4]!r})")
        if len(head) < 8:
            raise DataError("truncated kernel file")
        (m,) = struct.unpack_from("<I", head, 4)
        body = 8 + 8 * m * m
        if os.fstat(fh.fileno()).st_size < body + 4:  # before m x m floats are allocated
            raise DataError("truncated kernel file")
        values = np.empty((m, m), "<f8")
        split = m >= _SPLIT_MIN_ITEMS and _usable_cpus() > 1 and hasattr(os, "preadv")
        with ThreadPoolExecutor(1) if split else nullcontext() as pool:  # its thread is joined on the way out
            missing = _read_body(fh, values, pool)
            tail = fh.read()
            if missing or len(tail) < 4:  # the file shrank after the size check
                raise DataError("truncated kernel file")
            (name_len,) = struct.unpack_from("<I", tail)
            if len(tail) != 4 + name_len:
                raise DataError(f"{body + len(tail)} bytes, but the header promises {body + 4 + name_len}")
            return GramMatrix._adopt(values, tail[4:].decode("utf-8"), pool)


def _read_body(fh, values: np.ndarray, pool: ThreadPoolExecutor | None) -> int:
    """Read the m x m floats after the header into ``values``, and leave ``fh`` at the end of them; the number
    of bytes the file ended short of them.  Without a ``pool`` they are read from ``fh``'s position; with one,
    its thread reads the second half of the rows while the caller reads the first, by positional reads on
    ``fh``'s descriptor."""
    rest = values.reshape(-1).view(np.uint8)
    if pool is None:
        while rest.size and (n := fh.readinto(rest)):  # Linux reads at most about 2 GiB at a time
            rest = rest[n:]
        return rest.size
    cut = len(values) // 2 * values.strides[0]
    helper = pool.submit(_pread_into, fh.fileno(), rest[cut:], 8 + cut)
    missing = _pread_into(fh.fileno(), rest[:cut], 8)
    missing += helper.result()
    fh.seek(8 + rest.size)
    return missing


def _pread_into(fd: int, buffer: np.ndarray, offset: int) -> int:
    """Fill the byte array ``buffer`` from the file at ``offset`` by positional reads, continuing short reads;
    the number of bytes the file ended short of it."""
    while buffer.size and (n := os.preadv(fd, [buffer], offset)):
        buffer, offset = buffer[n:], offset + n
    return buffer.size


def load_feature_csv(path, header: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Feature CSV: one row per item, last column = integer class label."""
    with reading(path, "feature CSV"), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)  # the checks name the file
        table = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
        if table.shape[1] < 2:
            raise DataError("need at least one feature column plus a label column")
        features = table[:, :-1]
        raw_labels = table[:, -1]
        if not np.all(np.isfinite(raw_labels)) or np.any(raw_labels != np.round(raw_labels)):
            raise DataError("last column must hold integer class labels")
        validate_features(features)
    return features, raw_labels.astype(int)


def save_feature_csv(path, features, labels, header: list[str] | None = None) -> None:
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    lines = [] if header is None else [",".join(header) + "\n"]
    for row, label in zip(features, labels):
        lines.append(",".join([repr(float(v)) for v in row] + [str(int(label))]) + "\n")
    _write_file(path, "".join(lines))


def load_labels_csv(path) -> np.ndarray:
    """One integer class label per line; a line of more than one column raises DataError."""
    with reading(path, "labels file"), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)  # the checks name the file
        table = np.loadtxt(path, dtype=float, ndmin=2)
        if table.shape[1] != 1:
            raise DataError(f"need one label per line, got {table.shape[1]} columns")
        raw = table[:, 0]
        if not np.all(np.abs(raw) < 2.0**63) or np.any(raw != np.round(raw)):
            raise DataError("labels must be integers that fit int64")
    return raw.astype(int)


def save_labels_csv(path, labels) -> None:
    _write_file(path, "".join(f"{int(label)}\n" for label in np.asarray(labels, dtype=int)))


def write_manifest(path, m: int, kernel_entries: list[dict], labels_file: str) -> None:
    """kernel_entries: [{"name": ..., "file": ..., "gamma": ...}, ...]; paths relative to the manifest."""
    doc = {
        "schema": MANIFEST_SCHEMA,
        "m": int(m),
        "kernels": kernel_entries,
        "labels_file": labels_file,
    }
    _write_file(path, dump_json(doc))


_MANIFEST_DOC = {
    "schema": MANIFEST_SCHEMA,
    "m": int,
    "kernels": [{"name": str, "file": str, "gamma": float}],
    "labels_file": str,
}


def read_manifest(path) -> dict:
    """The manifest document; anything but UTF JSON of write_manifest's shape, with at least one kernel, raises DataError."""
    path = Path(path)
    with reading(path, "manifest"):
        doc = parse_json(path.read_bytes(), _MANIFEST_DOC, path.name)
        if not doc["kernels"]:
            raise DataError(f"{path.name}.kernels: need at least one kernel")
    return doc


def load_bank(files, labels_path, m=None) -> tuple[KernelBank, np.ndarray]:
    """The bank of the kernel files (each named by its own tag) and its labels, each error naming its file: every
    kernel holds m items (default: the first file's) and is PSD, so all derived ones are too; the labels number m."""
    files, kernels = [Path(p) for p in files], []
    for path in files:
        kernel = read_kernel(path)
        m = kernel.size if m is None else m
        if kernel.size != m:
            raise ShapeError(f"{path}: {kernel.size} items, but the bank holds {m}")
        require_psd(kernel, f"kernel file {path}")
        kernels.append(kernel)
    bank = KernelBank(kernels)
    labels = load_labels_csv(labels_path)
    if labels.shape[0] != bank.size:
        raise ShapeError(f"{labels_path}: {labels.shape[0]} labels for a bank of {bank.size} items")
    return bank, labels


def load_bank_from_manifest(path) -> tuple[KernelBank, np.ndarray, dict]:
    """Read the manifest, then the bank and labels it points at (``load_bank`` at the manifest's m; names unread)."""
    path = Path(path)
    doc = read_manifest(path)
    files = [path.parent / entry["file"] for entry in doc["kernels"]]
    bank, labels = load_bank(files, path.parent / doc["labels_file"], doc["m"])
    return bank, labels, doc
