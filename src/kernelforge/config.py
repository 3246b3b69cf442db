"""Run configuration: one flat key-value file plus command-line overrides.

Config files hold ``key = value`` lines with dotted keys (``gp.population_size
= 50``); values are JSON literals where that matters (numbers, true/false,
quoted strings, ["lists"]) and bare strings otherwise.  Precedence is
flags > file > defaults.  Unknown keys are rejected so a typo cannot silently
fall back to a default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .gp import FITNESS_MODES, GpParams
from .svm import SvmParams

# key -> (kind, description); kind in {int, float, bool, str, str_list, float_or_list}
KNOWN_KEYS: dict[str, tuple[str, str]] = {
    "seed": ("int", "master seed; required, all randomness derives from it"),
    "output_dir": ("str", "directory run outputs are written under"),
    "run_dir": ("str", "fixed run-directory name (default: timestamp + seed)"),
    "data.features": ("str_list", "feature CSVs, one per descriptor; last column = class label"),
    "data.header": ("bool", "feature CSVs carry a header row"),
    "data.kernels": ("str_list", "prebuilt kernel files (alternative to data.features)"),
    "data.labels": ("str", "label CSV for data.kernels input"),
    "data.manifest": ("str", "kernel manifest written by the gram command"),
    "kernel.gamma": ("float_or_list", "Gaussian bandwidth override (scalar or one per descriptor)"),
    "gp.population_size": ("int", ""),
    "gp.max_generations": ("int", ""),
    "gp.crossover_rate": ("float", ""),
    "gp.mutation_rate": ("float", ""),
    "gp.tournament_size": ("int", ""),
    "gp.max_depth": ("int", ""),
    "gp.init_depth_min": ("int", ""),
    "gp.init_depth_max": ("int", ""),
    "gp.stagnation_limit": ("int", ""),
    "gp.elitism": ("int", ""),
    "gp.fitness_mode": ("str", f"one of {FITNESS_MODES}"),
    "gp.n_folds": ("int", "folds for gp.fitness_mode = k_fold"),
    "gp.seed_leaves": ("bool", "inject every single-kernel chromosome into generation 0"),
    "gp.initial_exprs": ("str_list", "extra seed chromosomes, prefix notation"),
    "svm.c": ("float", ""),
    "svm.kkt_tol": ("float", ""),
    "svm.max_passes": ("int", ""),
    "svm.grid_search_c": ("bool", "grid-search C on validation before final training"),
    "protocol.per_class_train": ("int", "per-class training pool (validation comes out of it)"),
    "protocol.per_class_val": ("int", "per-class validation points"),
    "protocol.repeats": ("int", ""),
}

_EXECUTION_KEYS = ("run_dir",)  # location-only; excluded from report echoes


def _parse_value(key: str, raw) -> object:
    kind = KNOWN_KEYS[key][0]
    if isinstance(raw, str):
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
    else:
        value = raw
    try:
        if kind == "int":
            if isinstance(value, bool) or int(value) != value:
                raise ValueError
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "bool":
            if isinstance(value, bool):
                return value
            if isinstance(value, str) and value.lower() in ("true", "false"):
                return value.lower() == "true"
            raise ValueError
        if kind == "str":
            if not isinstance(value, str):
                raise ValueError
            return value
        if kind == "str_list":
            if isinstance(value, str):
                return [value]
            if isinstance(value, list) and all(isinstance(v, str) for v in value):
                return value
            raise ValueError
        if kind == "float_or_list":
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
            if isinstance(value, list):
                return [float(v) for v in value]
            raise ValueError
    except (TypeError, ValueError, OverflowError):  # OverflowError: int(inf) from 1e400
        pass
    raise ConfigError(f"config key {key!r} expects a {kind} value, got {raw!r}")


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw)
    return values


def load_config_file(path) -> dict[str, object]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(encoding="utf-8"), source=str(path))


def parse_overrides(pairs) -> dict[str, object]:
    """--set key=value flags, parsed with the same rules as the file."""
    values: dict[str, object] = {}
    for item in pairs or ():
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _parse_value(key, raw)
    return values


@dataclass
class RunConfig:
    seed: int
    output_dir: Path
    base_dir: Path
    features: list[Path] = field(default_factory=list)
    header: bool = False
    kernels: list[Path] = field(default_factory=list)
    labels: Path | None = None
    manifest: Path | None = None
    gamma: object = None
    gp: GpParams = field(default_factory=GpParams)
    svm: SvmParams = field(default_factory=SvmParams)
    per_class_train: int = 15
    per_class_val: int = 5
    repeats: int = 10
    grid_search_c: bool = False
    run_dir: str | None = None
    values: dict[str, object] = field(default_factory=dict)

    def echo(self) -> dict[str, object]:
        """Resolved config for report embedding (location-only keys excluded)."""
        out = dict(self.values)
        for key in _EXECUTION_KEYS:
            out.pop(key, None)
        out["seed"] = self.seed
        return out


def build_run_config(values: dict[str, object], base_dir) -> RunConfig:
    """Validate merged key-values and assemble typed parameter blocks.

    Relative paths resolve against base_dir (the config file's directory, or
    the working directory when everything came from flags).
    """
    base_dir = Path(base_dir)
    if "seed" not in values:
        raise ConfigError("config must set 'seed' (runs never default to wall-clock seeding)")

    def path_of(raw: str) -> Path:
        p = Path(raw)
        return p if p.is_absolute() else base_dir / p

    gp_kwargs: dict[str, object] = {"rng_seed": int(values["seed"])}
    init_lo = values.get("gp.init_depth_min")
    init_hi = values.get("gp.init_depth_max")
    if (init_lo is None) != (init_hi is None):
        raise ConfigError("gp.init_depth_min and gp.init_depth_max must be set together")
    if init_lo is not None:
        gp_kwargs["init_depth_range"] = (init_lo, init_hi)
    for key, attr in (
        ("gp.population_size", "population_size"),
        ("gp.max_generations", "max_generations"),
        ("gp.crossover_rate", "crossover_rate"),
        ("gp.mutation_rate", "mutation_rate"),
        ("gp.tournament_size", "tournament_size"),
        ("gp.max_depth", "max_depth"),
        ("gp.stagnation_limit", "stagnation_limit"),
        ("gp.elitism", "elitism"),
        ("gp.fitness_mode", "fitness_mode"),
        ("gp.n_folds", "n_folds"),
        ("gp.seed_leaves", "seed_leaves"),
        ("gp.initial_exprs", "initial_exprs"),
    ):
        if key in values:
            gp_kwargs[attr] = tuple(values[key]) if attr == "initial_exprs" else values[key]

    svm_kwargs: dict[str, object] = {}
    for key, attr in (("svm.c", "c"), ("svm.kkt_tol", "kkt_tol"), ("svm.max_passes", "max_passes")):
        if key in values:
            svm_kwargs[attr] = values[key]

    try:
        gp_params = GpParams(**gp_kwargs)
        svm_params = SvmParams(**svm_kwargs)
    except Exception as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc

    return RunConfig(
        seed=int(values["seed"]),
        output_dir=path_of(str(values.get("output_dir", "."))),
        base_dir=base_dir,
        features=[path_of(p) for p in values.get("data.features", [])],
        header=bool(values.get("data.header", False)),
        kernels=[path_of(p) for p in values.get("data.kernels", [])],
        labels=path_of(values["data.labels"]) if "data.labels" in values else None,
        manifest=path_of(values["data.manifest"]) if "data.manifest" in values else None,
        gamma=values.get("kernel.gamma"),
        gp=gp_params,
        svm=svm_params,
        per_class_train=int(values.get("protocol.per_class_train", 15)),
        per_class_val=int(values.get("protocol.per_class_val", 5)),
        repeats=int(values.get("protocol.repeats", 10)),
        grid_search_c=bool(values.get("svm.grid_search_c", False)),
        run_dir=values.get("run_dir"),
        values=dict(values),
    )


def require_paths(config: RunConfig, paths) -> None:
    missing = [str(p) for p in paths if not Path(p).exists()]
    if missing:
        raise ConfigError(f"referenced paths do not exist: {', '.join(missing)}")
