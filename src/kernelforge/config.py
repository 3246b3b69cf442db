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

from .errors import ConfigError, ParameterError
from .gp import FITNESS_MODES, GpParams
from .harness import ProtocolConfig
from .svm import SvmParams

# key -> (kind, field it sets, description);
# kind in {int, float, bool, str, str_list, float_or_list}
KNOWN_KEYS: dict[str, tuple[str, str, str]] = {
    "seed": ("int", "ProtocolConfig.seed", "master seed; required, all randomness derives from it"),
    "output_dir": ("str", "RunConfig.output_dir", "directory run outputs are written under"),
    "run_dir": ("str", "RunConfig.run_dir", "fixed run-directory name (default: timestamp + seed)"),
    "data.features": ("str_list", "RunConfig.features", "feature CSVs, one per descriptor; last column = class label"),
    "data.header": ("bool", "RunConfig.header", "feature CSVs carry a header row"),
    "data.kernels": ("str_list", "RunConfig.kernels", "prebuilt kernel files (alternative to data.features)"),
    "data.labels": ("str", "RunConfig.labels", "label CSV for data.kernels input"),
    "data.manifest": ("str", "RunConfig.manifest", "kernel manifest written by the gram command"),
    "kernel.gamma": ("float_or_list", "RunConfig.gamma", "Gaussian bandwidth override (scalar or one per descriptor)"),
    "gp.population_size": ("int", "GpParams.population_size", ""),
    "gp.max_generations": ("int", "GpParams.max_generations", ""),
    "gp.crossover_rate": ("float", "GpParams.crossover_rate", ""),
    "gp.mutation_rate": ("float", "GpParams.mutation_rate", ""),
    "gp.tournament_size": ("int", "GpParams.tournament_size", ""),
    "gp.max_depth": ("int", "GpParams.max_depth", ""),
    "gp.init_depth_min": ("int", "GpParams.init_depth_range[0]", "set together with gp.init_depth_max"),
    "gp.init_depth_max": ("int", "GpParams.init_depth_range[1]", "set together with gp.init_depth_min"),
    "gp.stagnation_limit": ("int", "GpParams.stagnation_limit", ""),
    "gp.elitism": ("int", "GpParams.elitism", ""),
    "gp.fitness_mode": ("str", "GpParams.fitness_mode", f"one of {FITNESS_MODES}"),
    "gp.n_folds": ("int", "GpParams.n_folds", "folds for gp.fitness_mode = k_fold"),
    "gp.seed_leaves": ("bool", "GpParams.seed_leaves", "inject every single-kernel chromosome into generation 0"),
    "gp.initial_exprs": ("str_list", "GpParams.initial_exprs", "extra seed chromosomes, prefix notation"),
    "svm.c": ("float", "SvmParams.c", ""),
    "svm.kkt_tol": ("float", "SvmParams.kkt_tol", ""),
    "svm.max_passes": ("int", "SvmParams.max_passes", ""),
    "svm.grid_search_c": ("bool", "ProtocolConfig.grid_search_c", "grid-search C on validation before final training"),
    "protocol.per_class_train": ("int", "ProtocolConfig.per_class_train", "per-class training pool (validation comes out of it)"),
    "protocol.per_class_val": ("int", "ProtocolConfig.per_class_val", "per-class validation points"),
    "protocol.repeats": ("int", "ProtocolConfig.repeats", ""),
}

_EXECUTION_KEYS = ("run_dir",)  # location-only; excluded from report echoes


def _float(v) -> float:
    if isinstance(v, bool):  # float(True) would read a JSON boolean as 1.0
        raise TypeError("a boolean is not a number")
    return float(v)


def _parse_value(key: str, raw: str) -> object:
    kind = KNOWN_KEYS[key][0]
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    try:
        if kind == "int" and not isinstance(value, bool) and int(value) == value:
            return int(value)
        if kind == "float":
            return _float(value)
        if kind == "bool" and str(value).lower() in ("true", "false"):
            return str(value).lower() == "true"
        if kind == "str" and isinstance(value, str):
            return value
        items = [value] if isinstance(value, str) else value
        if kind == "str_list" and isinstance(items, list) and all(isinstance(v, str) for v in items):
            return items
        if kind == "float_or_list" and isinstance(value, (int, float, list)):
            return [_float(v) for v in value] if isinstance(value, list) else _float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: int(inf) from 1e400
        pass
    raise ConfigError(f"config key {key!r} expects a {kind} value, got {raw!r}")


def _parse_entry(text: str, malformed: str, where: str = "") -> tuple[str, object]:
    """One ``key = value`` entry; `malformed` is the error for text without '='
    and `where` prefixes the unknown-key error."""
    if "=" not in text:
        raise ConfigError(malformed)
    key, raw = (part.strip() for part in text.split("=", 1))
    if key not in KNOWN_KEYS:
        raise ConfigError(f"{where}unknown config key {key!r}")
    return key, _parse_value(key, raw)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            where = f"{source}:{lineno}: "
            key, value = _parse_entry(stripped, f"{where}expected 'key = value', got {line!r}", where)
            values[key] = value
    return values


def load_config_file(path) -> dict[str, object]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def parse_overrides(pairs) -> dict[str, object]:
    """--set key=value flags, parsed with the same rules as the file."""
    return dict(_parse_entry(item, f"--set expects key=value, got {item!r}") for item in pairs or ())


@dataclass
class RunConfig:
    output_dir: Path
    protocol: ProtocolConfig
    gp: GpParams = field(default_factory=GpParams)
    svm: SvmParams = field(default_factory=SvmParams)
    features: list[Path] = field(default_factory=list)
    header: bool = False
    kernels: list[Path] = field(default_factory=list)
    labels: Path | None = None
    manifest: Path | None = None
    gamma: object = None
    run_dir: str | None = None
    values: dict[str, object] = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return self.protocol.seed

    def echo(self) -> dict[str, object]:
        """Resolved config for report embedding (location-only keys excluded)."""
        out = dict(self.values)
        for key in _EXECUTION_KEYS:
            out.pop(key, None)
        out["seed"] = self.seed
        return out


_PATH_FIELDS = {"output_dir", "features", "kernels", "labels", "manifest"}


def build_run_config(values: dict[str, object], base_dir) -> RunConfig:
    """Validate merged key-values and set each on the field KNOWN_KEYS names;
    a key left unset keeps its dataclass default.

    Relative paths resolve against base_dir (the config file's directory, or
    the working directory when everything came from flags).
    """
    if "seed" not in values:
        raise ConfigError("config must set 'seed' (runs never default to wall-clock seeding)")
    if ("gp.init_depth_min" in values) != ("gp.init_depth_max" in values):
        raise ConfigError("gp.init_depth_min and gp.init_depth_max must be set together")
    blocks: dict[str, dict[str, object]] = {
        "RunConfig": {"output_dir": "."}, "GpParams": {}, "SvmParams": {}, "ProtocolConfig": {}
    }
    for key, value in values.items():
        block, _, attr = KNOWN_KEYS[key][1].partition(".")
        blocks[block][attr] = value
    gp = blocks["GpParams"]
    if "init_depth_range[0]" in gp:
        gp["init_depth_range"] = (gp.pop("init_depth_range[0]"), gp.pop("init_depth_range[1]"))

    def path_of(raw: str) -> Path:
        p = Path(raw)
        return p if p.is_absolute() else Path(base_dir) / p

    run = blocks["RunConfig"]
    for attr in _PATH_FIELDS & run.keys():
        run[attr] = [path_of(p) for p in run[attr]] if isinstance(run[attr], list) else path_of(run[attr])
    try:
        return RunConfig(
            **run,
            protocol=ProtocolConfig(**blocks["ProtocolConfig"]),
            gp=GpParams(**gp),
            svm=SvmParams(**blocks["SvmParams"]),
            values=dict(values),
        )
    except ParameterError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc


def require_paths(paths) -> None:
    missing = [str(p) for p in paths if not Path(p).exists()]
    if missing:
        raise ConfigError(f"referenced paths do not exist: {', '.join(missing)}")
