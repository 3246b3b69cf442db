"""Seeded mutation gate: a malformed input file never crashes the CLI.

Each file kind that a command reads gets 50 mutants, each one random edit of
the file (a bit flip, a truncation, an inserted or deleted byte, or an appended
token), drawn from a ``random.Random`` seeded with the kind's name.  Every
mutant runs through ``cli.main`` on a 40-item bank with ``gp.max_generations =
0``, and must end with a documented exit code (0, 2, 3 or 4); a failure ends
stderr with the JSON error document, and a data error raised while the files
were read names the file.  An exit 0 is no defect: a changed id character or a
diagonal entry that stays PSD is a valid file."""

import contextlib
import io
import json
import random
import traceback
from pathlib import Path

import pytest

import kernelforge.cli as cli
from kernelforge.expr import parse_expr
from kernelforge.kernel_io import load_bank_from_manifest, save_feature_csv
from kernelforge.retrieval import build_index, save_index
from kernelforge.synthetic import xor_views

MUTANTS = 50
TOKENS = [b"nan", b"1e400", b"-1", b"\xff\xfe", b"\n", b" x", b"0"]
# the modules and functions that read input files: an error raised below one of them was raised while reading
READERS = {"kernel_io.py", "load_index", "cmd_inspect"}
# a file that points at others may fail on a file it points at, so its errors name some input file
POINTERS = {"manifest", "config"}


def mutate(blob: bytes, rng: random.Random) -> tuple[str, bytes]:
    op = rng.choice(["flip", "truncate", "insert", "delete", "append"])
    at = rng.randrange(len(blob) + (op == "insert"))
    if op == "flip":
        return op, blob[:at] + bytes([blob[at] ^ 1 << rng.randrange(8)]) + blob[at + 1 :]
    if op == "truncate":
        return op, blob[:at]
    if op == "insert":
        return op, blob[:at] + bytes([rng.randrange(256)]) + blob[at:]
    if op == "delete":
        return op, blob[:at] + blob[at + 1 :]
    return op, blob + rng.choice(TOKENS)


def run(argv) -> tuple[int, str, Exception | None]:
    """Exit code, stderr and the error ``cli.main`` reported, if any."""
    failed, report = [], cli._fail
    err = io.StringIO()
    cli._fail = lambda exc, code: failed.append(exc) or report(exc, code)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
    finally:
        cli._fail = report
    return code, err.getvalue(), failed[0] if failed else None


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Two feature CSVs of 40 items, the kernels ``gram`` made of them, an index,
    an expression file and a config; and, per file kind, the file and the command."""
    ws = tmp_path_factory.mktemp("mutants")
    views, labels = xor_views(n_per_class=20, n_classes=2, seed=3)
    for i, view in enumerate(views, start=1):
        save_feature_csv(ws / f"view{i}.csv", view, labels)
    features = ["--set", f"data.features={json.dumps([str(ws / 'view1.csv'), str(ws / 'view2.csv')])}"]
    assert run(["gram", "--seed", 5, *features, "--output", ws / "kernels"])[0] == 0
    kernels = ws / "kernels"
    bank, _, _ = load_bank_from_manifest(kernels / "manifest.json")
    save_index(ws / "index.kgm", build_index(parse_expr("(* K1 K2)"), bank, [f"item{i}" for i in range(40)]))
    (ws / "expr.txt").write_text("(+ (* K1 K2) K1)\n")
    split = ["protocol.per_class_train = 8", "protocol.per_class_val = 3"]
    (ws / "run.cfg").write_text("\n".join(["seed = 5", f'data.manifest = "{kernels / "manifest.json"}"', *split, ""]))
    search = ["--set", "gp.max_generations=0", "--set", "gp.population_size=6", "--set", "gp.tournament_size=2"]
    evolve = ["evolve", "--seed", 5, *(a for s in split for a in ("--set", s.replace(" ", ""))), *search]
    evolve += ["--output", ws / "runs", "--set", "run_dir=run"]
    files = json.dumps([str(kernels / "k_view1.kgm"), str(kernels / "k_view2.kgm")])
    by_files = [*evolve, "--set", f"data.kernels={files}", "--set", f"data.labels={kernels / 'labels.csv'}"]
    retrieve = ["retrieve", "--index", ws / "index.kgm", "--item", "item0", "--k", 3]
    kinds = {
        "kernel": (kernels / "k_view1.kgm", by_files),
        "labels": (kernels / "labels.csv", by_files),
        "manifest": (kernels / "manifest.json", [*evolve, "--set", f"data.manifest={kernels / 'manifest.json'}"]),
        "config": (ws / "run.cfg", [*evolve, "--config", ws / "run.cfg"]),
        "index": (ws / "index.kgm", retrieve),
        "sidecar": (ws / "index.kgm.ids", retrieve),
        "expression": (ws / "expr.txt", ["inspect", ws / "expr.txt"]),
        "features": (ws / "view1.csv", ["gram", "--seed", 5, *features, "--output", ws / "gram"]),
    }
    return ws, kinds


KINDS = ["kernel", "labels", "manifest", "config", "index", "sidecar", "expression", "features"]


@pytest.mark.parametrize("kind", KINDS)
def test_every_mutant_fails_typed_and_names_the_file_it_read(workspace, kind):
    ws, kinds = workspace
    path, argv = kinds[kind]
    assert run(argv)[0] == 0  # the unmutated files run
    named = str(ws if kind in POINTERS else path)
    pristine, rng, defects = path.read_bytes(), random.Random(kind), []
    for n in range(MUTANTS):
        op, blob = mutate(pristine, rng)
        path.write_bytes(blob)
        try:
            code, err, exc = run(argv)
        except Exception as crash:  # exit 1: a traceback instead of a typed error
            defects.append(f"mutant {n} ({op}) crashed: {crash!r}")
            continue
        finally:
            path.write_bytes(pristine)
        if code not in (0, 2, 3, 4):
            defects.append(f"mutant {n} ({op}) exited {code}")
        if code == 0:
            continue
        doc = json.loads(err.splitlines()[-1])
        if doc != {"error": type(exc).__name__, "message": str(exc), "exit_code": code}:
            defects.append(f"mutant {n} ({op}): stderr ends with {err.splitlines()[-1]!r}")
        frames = traceback.extract_tb(exc.__traceback__)
        read = any(f.name in READERS or Path(f.filename).name in READERS for f in frames)
        if code == 3 and read and named not in doc["message"]:
            defects.append(f"mutant {n} ({op}): {doc['message']!r} does not name {named}")
    assert defects == []
