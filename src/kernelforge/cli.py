"""Command-line entry point: gram, evolve, compare, retrieve, inspect.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
Set KF_LOG=debug|info|warning|error for log verbosity.  Every command is
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
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import numpy as np

from . import kernel_io
from .config import RunConfig, build_run_config, load_config_file, parse_overrides, require_paths
from .errors import ConfigError, DataError, KernelForgeError, ParameterError
from .expr import Leaf, canonical_string, depth, evaluate, node_count, parse_expr
from .gp import evolve, write_evolution_log
from .gram import KernelBank, build_bank
from .harness import ProtocolConfig, fit_and_score, make_splits, run_comparison, write_comparison_outputs
from .retrieval import ORDERS, load_index, query
from .rng import derive_seed
from .svm import save_multiclass

log = logging.getLogger("kernelforge")


def _setup_logging() -> None:
    level = os.environ.get("KF_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def _load_run_config(args) -> RunConfig:
    values: dict[str, object] = {}
    base_dir = Path.cwd()
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
        base_dir = Path(args.config).resolve().parent
    values.update(parse_overrides(getattr(args, "set", None)))
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
    if getattr(args, "output", None) is not None:
        values["output_dir"] = args.output
    return build_run_config(values, base_dir)


def _run_dir(config: RunConfig) -> Path:
    name = config.run_dir or f"run-{datetime.now():%Y%m%d-%H%M%S}-s{config.seed}"
    path = config.output_dir / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_bank(config: RunConfig) -> tuple[KernelBank, np.ndarray]:
    if config.manifest is not None:
        require_paths(config, [config.manifest])
        bank, labels, _ = kernel_io.load_bank_from_manifest(config.manifest)
        return bank, labels
    if config.kernels:
        if config.labels is None:
            raise ConfigError("data.kernels input needs data.labels")
        require_paths(config, [*config.kernels, config.labels])
        kernels = [kernel_io.read_kernel(p) for p in config.kernels]
        names = [k.source_tag or p.stem for k, p in zip(kernels, config.kernels)]
        labels = kernel_io.load_labels_csv(config.labels)
        if labels.shape[0] != kernels[0].size:
            raise DataError(f"{labels.shape[0]} labels for kernels of size {kernels[0].size}")
        return KernelBank(tuple(kernels), tuple(names)), labels
    raise ConfigError("set data.manifest or data.kernels to locate the kernel bank")


def cmd_gram(args) -> int:
    config = _load_run_config(args)
    if not config.features:
        raise ConfigError("gram needs data.features (one CSV per descriptor)")
    require_paths(config, config.features)

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
    bank, gammas = build_bank(feature_sets, names=names, gammas=config.gamma)

    outdir = config.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for kernel, name, gamma in zip(bank.kernels, names, gammas):
        filename = f"k_{name}.kgm"
        kernel_io.write_kernel(outdir / filename, kernel)
        entries.append({"name": name, "file": filename, "gamma": gamma})
    kernel_io.save_labels_csv(outdir / "labels.csv", label_sets[0])
    kernel_io.write_manifest(outdir / "manifest.json", bank.size, entries, "labels.csv")
    print(f"wrote {len(entries)} kernels (m={bank.size}) and manifest to {outdir}")
    return 0


def cmd_evolve(args) -> int:
    config = _load_run_config(args)
    bank, labels = _load_bank(config)
    split = make_splits(labels, config.per_class_train, config.per_class_val, 1, config.seed)[0]
    gp_params = replace(config.gp, rng_seed=derive_seed(config.seed, "gp", 0))

    result = evolve(bank, labels, split, gp_params, config.svm, threads=args.threads)
    test_acc, model, _ = fit_and_score(evaluate(result.best_expr, bank), labels, split, config.svm)
    best_text = canonical_string(result.best_expr)

    rundir = _run_dir(config)
    (rundir / "best_expr.txt").write_text(best_text + "\n", encoding="utf-8")
    write_evolution_log(rundir / "evolution.csv", result)
    doc = {
        "schema": "kf-evolve-1",
        "best_expr": best_text,
        "best_fitness": result.best_fitness,
        "final_test_accuracy": test_acc,
        "generations": [[g, b, m] for g, b, m in result.per_generation],
        "config": config.echo(),
    }
    (rundir / "result.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    save_multiclass(rundir / "model.json", model)
    print(f"best expression: {best_text}")
    print(f"test accuracy: {100.0 * test_acc:.2f}")
    print(f"outputs in {rundir}")
    return 0


def cmd_compare(args) -> int:
    config = _load_run_config(args)
    bank, labels = _load_bank(config)
    protocol = ProtocolConfig(
        per_class_train=config.per_class_train,
        per_class_val=config.per_class_val,
        repeats=config.repeats,
        seed=config.seed,
        grid_search_c=config.grid_search_c,
    )
    report, results = run_comparison(
        bank, labels, protocol, config.gp, config.svm, threads=args.threads, config_echo=config.echo()
    )
    rundir = _run_dir(config)
    text = write_comparison_outputs(report, results, rundir)
    print(text)
    print(f"outputs in {rundir}")
    return 0


def cmd_retrieve(args) -> int:
    index = load_index(args.index)
    item = args.item
    if item in index.item_ids:
        i = index.item_ids.index(item)
    elif item.isdigit():
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
    if not path.exists():
        raise DataError(f"expression file not found: {path}")
    expr = parse_expr(path.read_text(encoding="utf-8").strip())

    def render(node, indent: str) -> list[str]:
        if isinstance(node, Leaf):
            return [f"{indent}K{node.index + 1}"]
        symbol = "+" if type(node).__name__ == "Add" else "*"
        return [f"{indent}({symbol})", *render(node.left, indent + "  "), *render(node.right, indent + "  ")]

    print("\n".join(render(expr, "")))
    print(f"depth={depth(expr)} nodes={node_count(expr)}")
    print(f"canonical: {canonical_string(expr)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelforge",
        description="Evolve non-linear combinations of base kernels and compare them against"
        " the addition-kernel and best-single-kernel baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="key=value config file with dotted keys")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--seed", type=int, help="master seed (overrides the config file)")
        p.add_argument("--output", help="output directory (overrides the config file)")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="parallel fitness workers; results are identical at any value")

    p = sub.add_parser("gram", help="build normalized Gaussian kernels from feature CSVs")
    add_config_flags(p)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("evolve", help="evolve a kernel combination on one split")
    add_config_flags(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("compare", help="repeated-split comparison: addition vs best single vs evolved")
    add_config_flags(p)
    p.set_defaults(func=cmd_compare)

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
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        return _fail(exc, 2)
    except DataError as exc:
        return _fail(exc, 3)
    except (KernelForgeError, np.linalg.LinAlgError) as exc:
        return _fail(exc, 4)


def _fail(exc: Exception, code: int) -> int:
    doc = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(doc), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
