"""Command-line entry point: gram, evolve, compare, retrieve, inspect.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
``evolve`` is ``harness.run_repeat`` at r = 0: ``compare``'s first repeat by construction.
KF_LOG=debug|info|warning|error sets the level of the ``kernelforge`` logger
(default warning; any other value exits 2); at info, gram, evolve and compare
log one line per phase to stderr, and at debug the search also logs one line per
generation and per repeat.  Every command is
deterministic given the same config and seed; timestamps appear only in
run-directory names, never inside output files.
"""

from __future__ import annotations

import argparse
import difflib
import json
import logging
import os
import sys
from datetime import datetime
from pathlib import Path

import numpy as np

from . import kernel_io
from .config import RunConfig, build_run_config, load_config_file, parse_overrides, require_paths
from .errors import ConfigError, DataError, KernelForgeError, ParameterError
from .expr import Leaf, canonical_string, depth, node_count, parse_expr
from .gram import KernelBank, build_bank
from .harness import run_comparison, run_repeat, write_comparison_outputs, write_evolution_log
from .retrieval import ORDERS, load_index, query
from .svm import save_multiclass

LOG_LEVELS = ("debug", "info", "warning", "error")
log = logging.getLogger("kernelforge")


def _setup_logging() -> None:
    level = (os.environ.get("KF_LOG") or "warning").lower()
    if level not in LOG_LEVELS:
        raise ConfigError(f"KF_LOG must be one of {', '.join(LOG_LEVELS)}, got {level!r}")
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level.upper())


def _load_run_config(args) -> RunConfig:
    values = load_config_file(args.config) if args.config else {}
    values.update(parse_overrides(args.set))
    if args.seed is not None:
        values["seed"] = args.seed
    if args.output is not None:
        values["output_dir"] = args.output
    return build_run_config(values, Path(args.config).resolve().parent if args.config else Path.cwd())


def _output_dir(path: Path) -> Path:
    """An output directory, checked but not made: a file where it or a parent should
    be is a config error before any work, and a run that fails leaves nothing behind."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output directory {path} cannot be made: a file is in the way")
    return path


def _run_dir(config: RunConfig) -> Path:
    return _output_dir(config.output_dir / (config.run_dir or f"run-{datetime.now():%Y%m%d-%H%M%S}-s{config.seed}"))


def _load_bank(config: RunConfig) -> tuple[KernelBank, np.ndarray]:
    """The bank and labels from data.manifest or data.kernels, read and checked by ``kernel_io.load_bank``."""
    if config.manifest is not None:
        require_paths([config.manifest])
        return kernel_io.load_bank_from_manifest(config.manifest)[:2]
    if not config.kernels:
        raise ConfigError("set data.manifest or data.kernels to locate the kernel bank")
    if config.labels is None:
        raise ConfigError("data.kernels input needs data.labels")
    require_paths([*config.kernels, config.labels])
    return kernel_io.load_bank(config.kernels, config.labels)


def cmd_gram(args) -> int:
    config = _load_run_config(args)
    if not config.features:
        raise ConfigError("gram needs data.features (one CSV per descriptor)")
    require_paths(config.features)
    outdir = _output_dir(config.output_dir)

    feature_sets, label_sets = [], []
    for path in config.features:
        features, labels = kernel_io.load_feature_csv(path, header=config.header)
        feature_sets.append(features)
        label_sets.append(labels)
    sizes = {x.shape[0] for x in feature_sets}
    if len(sizes) != 1:
        detail = ", ".join(f"{p.name}: {x.shape[0]} rows" for p, x in zip(config.features, feature_sets))
        raise DataError(f"descriptor files disagree on row count ({detail})")
    for path, labels in zip(config.features[1:], label_sets[1:]):
        if not np.array_equal(labels, label_sets[0]):
            raise DataError(f"labels in {path.name} disagree with {config.features[0].name}")

    names = [p.stem for p in config.features]
    log.info("loaded %d descriptor files of %d items", len(feature_sets), len(label_sets[0]))
    bank, gammas = build_bank(feature_sets, names=names, gammas=config.gamma)

    kernel_io._make_dir(outdir)
    entries = []
    for kernel, name, gamma in zip(bank.kernels, names, gammas):
        filename = f"k_{name}.kgm"
        kernel_io.write_kernel(outdir / filename, kernel)
        entries.append({"name": name, "file": filename, "gamma": gamma})
    kernel_io.save_labels_csv(outdir / "labels.csv", label_sets[0])
    kernel_io.write_manifest(outdir / "manifest.json", bank.size, entries, "labels.csv")
    log.info("wrote %d kernels to %s", len(entries), outdir)
    print(f"wrote {len(entries)} kernels (m={bank.size}) and manifest to {outdir}")
    return 0


def cmd_evolve(args) -> int:
    config = _load_run_config(args)
    rundir = _run_dir(config)
    bank, labels = _load_bank(config)
    log.info("loaded %d kernels of %d items", len(bank), bank.size)
    _, result, (test_acc, model, _) = run_repeat(bank, labels, config.protocol, config.gp, config.svm, 0)
    best_text = canonical_string(result.best_expr)
    log.info("search finished after %d generations: %s", len(result.per_generation), best_text)

    kernel_io._make_dir(rundir)
    kernel_io._write_file(rundir / "best_expr.txt", best_text + "\n")
    write_evolution_log(rundir / "evolution.csv", result)
    doc = {
        "schema": "kf-evolve-1",
        "best_expr": best_text,
        "best_fitness": result.best_fitness,
        "final_test_accuracy": test_acc,
        "generations": [[g, b, m] for g, b, m in result.per_generation],
        "config": config.echo(),
    }
    kernel_io._write_file(rundir / "result.json", kernel_io.dump_json(doc))
    save_multiclass(rundir / "model.json", model)
    log.info("wrote outputs to %s", rundir)
    print(f"best expression: {best_text}")
    print(f"test accuracy: {100.0 * test_acc:.2f}")
    print(f"outputs in {rundir}")
    return 0


def cmd_compare(args) -> int:
    config = _load_run_config(args)
    rundir = _run_dir(config)
    _output_dir(rundir / "logs")
    bank, labels = _load_bank(config)
    log.info("loaded %d kernels of %d items", len(bank), bank.size)
    report, results = run_comparison(bank, labels, config.protocol, config.gp, config.svm, config_echo=config.echo())
    log.info("search finished: %d repeats", len(results))
    text = write_comparison_outputs(report, results, rundir)
    log.info("wrote outputs to %s", rundir)
    print(text)
    print(f"outputs in {rundir}")
    return 0


def cmd_retrieve(args) -> int:
    index = load_index(args.index)
    item = args.item
    if item in index.item_ids:
        i = index.item_ids.index(item)
    elif item.isdecimal():
        i = int(item)
        if i >= index.size:
            raise DataError(f"item index {i} out of range for {index.size} items")
    else:
        close = difflib.get_close_matches(item, index.item_ids, n=3)
        hint = f"; closest ids: {', '.join(close)}" if close else ""
        raise DataError(f"unknown item id {item!r}{hint}")
    print("rank,item_id,score")
    for rank, (j, score) in enumerate(query(index, i, args.k, args.order), start=1):
        print(f"{rank},{index.item_ids[j]},{score:.6f}")
    return 0


def cmd_inspect(args) -> int:
    path = Path(args.expr_file)
    with kernel_io.reading(path, "expression file"):
        expr = parse_expr(path.read_text(encoding="utf-8").strip())
    print("\n".join(_render(expr, "")))
    print(f"depth={depth(expr)} nodes={node_count(expr)}")
    print(f"canonical: {canonical_string(expr)}")
    return 0


def _render(node, indent: str) -> list[str]:
    """One line per node, children indented two spaces under their operator."""
    if isinstance(node, Leaf):
        return [f"{indent}K{node.index + 1}"]
    symbol = "+" if type(node).__name__ == "Add" else "*"
    return [f"{indent}({symbol})", *_render(node.left, indent + "  "), *_render(node.right, indent + "  ")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelforge",
        description="Evolve non-linear combinations of base kernels and compare them against"
        " the addition-kernel and best-single-kernel baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
        ("gram", cmd_gram, "build normalized Gaussian kernels from feature CSVs"),
        ("evolve", cmd_evolve, "evolve a kernel combination on one split"),
        ("compare", cmd_compare, "repeated-split comparison: addition vs best single vs evolved"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="key=value config file with dotted keys")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--seed", type=int, help="master seed (overrides the config file)")
        p.add_argument("--output", help="output directory (overrides the config file)")
        p.set_defaults(func=func)

    p = sub.add_parser("retrieve", help="query a similarity index for the most similar items")
    p.add_argument("--index", required=True, help="index file written by retrieval.save_index")
    p.add_argument("--item", required=True, help="item id, or a numeric item index")
    p.add_argument("--k", type=int, required=True, help="number of neighbours to return")
    p.add_argument("--order", choices=ORDERS, default="similarity")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("inspect", help="pretty-print a kernel-expression file")
    p.add_argument("expr_file")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        return _fail(exc, 2)
    except DataError as exc:
        return _fail(exc, 3)
    except KernelForgeError as exc:
        return _fail(exc, 4)


def _fail(exc: Exception, code: int) -> int:
    doc = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(doc), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
