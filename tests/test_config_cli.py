import hashlib
import json
import logging
import os
import re
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from kernelforge import (
    ConfigError,
    DataError,
    GpParams,
    Leaf,
    ParameterError,
    ProtocolConfig,
    SplitFitness,
    SvmParams,
    accuracy,
    build_index,
    evaluate,
    make_splits,
    parse_expr,
    predict,
    save_index,
)
import kernelforge.cli as cli
import kernelforge.kernel_io as kernel_io
from kernelforge.cli import main
from kernelforge.config import KNOWN_KEYS, build_run_config, load_config_file, parse_config_text, parse_overrides
from kernelforge.gram import SYMMETRY_TOL, GramMatrix, KernelBank
from kernelforge.gp import MAX_INIT_DEPTH
from kernelforge.harness import _select_c, write_comparison_outputs
from kernelforge.kernel_io import MAGIC, load_bank_from_manifest, read_kernel, save_feature_csv, write_kernel
from kernelforge.synthetic import xor_views

from oracles import load_multiclass


# float(True) is 1.0, so a JSON boolean would pass for a number
BOOLEANS_FOR_FLOATS = ["svm.c=true", "kernel.gamma=[true, 2]", "gp.crossover_rate=false"]


class TestConfigParsing:
    def test_basic_types(self):
        values = parse_config_text(
            """
            # protocol
            seed = 7
            gp.population_size = 20
            gp.crossover_rate = 0.8
            gp.seed_leaves = false
            data.features = ["a.csv", "b.csv"]
            output_dir = out
            """
        )
        assert values["seed"] == 7
        assert values["gp.population_size"] == 20
        assert values["gp.crossover_rate"] == 0.8
        assert values["gp.seed_leaves"] is False
        assert values["data.features"] == ["a.csv", "b.csv"]
        assert values["output_dir"] == "out"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("gp.populaton_size = 20")

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("gp.population_size = soon")
        with pytest.raises(ConfigError):
            parse_config_text("gp.crossover_rate = []")
        for item in BOOLEANS_FOR_FLOATS:
            with pytest.raises(ConfigError, match=item.split("=")[0]):
                parse_overrides([item])

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            build_run_config({"output_dir": "x"}, Path("."))

    def test_flags_beat_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\ngp.population_size = 30\n")
        values = load_config_file(cfg)
        values.update(parse_overrides(["gp.population_size=44"]))
        config = build_run_config(values, tmp_path)
        assert config.gp.population_size == 44
        assert config.seed == 1

    def test_defaults_fill_gaps(self, tmp_path):
        config = build_run_config({"seed": 5}, tmp_path)
        assert config.gp.population_size == 50
        assert config.svm.c == 10.0
        assert config.protocol.per_class_train == 15 and config.protocol.per_class_val == 5

    def test_echo_excludes_location_only_keys(self, tmp_path):
        config = build_run_config({"seed": 5, "run_dir": "fixed"}, tmp_path)
        assert "run_dir" not in config.echo()
        assert config.echo()["seed"] == 5

    def test_bad_gp_values_are_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            build_run_config({"seed": 1, "gp.crossover_rate": 1.5}, tmp_path)

    @pytest.mark.parametrize("item", BOOLEANS_FOR_FLOATS)
    def test_boolean_for_float_key_exits_2(self, item, capsys):
        assert main(["evolve", "--set", "seed=1", "--set", item]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("key", ["gp.population_size", "svm.max_passes", "seed"])
    def test_out_of_range_integer_exits_2(self, key, capsys):
        assert main(["evolve", "--set", "seed=1", "--set", f"{key}=1e400"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and key in err["message"]


# the Python API holds the rule the config path parses by: a float count would make evolve
# fail later with a bare TypeError, and True would pass as 1 or 1.0
NOT_INT_COUNTS = [
    (GpParams, {"max_generations": float("inf")}, "max_generations must be an int"),
    (GpParams, {"population_size": 5.5, "tournament_size": 3}, "population_size must be an int"),
    (GpParams, {"elitism": 0.5}, "elitism must be an int"),
    (GpParams, {"stagnation_limit": float("inf")}, "stagnation_limit must be an int"),
    (GpParams, {"fitness_mode": "k_fold", "n_folds": 2.5}, "n_folds must be an int"),
    (GpParams, {"init_depth_range": (2.0, 3)}, "init_depth_range must hold ints"),
    (GpParams, {"crossover_rate": True}, "crossover_rate must be a number"),
    (ProtocolConfig, {"repeats": 1.5}, "repeats must be an int"),
    (ProtocolConfig, {"repeats": True}, "repeats must be an int"),
    (ProtocolConfig, {"seed": 1.5}, "seed must be an int"),
    (SvmParams, {"c": True}, "c must be a number"),
    (SvmParams, {"kkt_tol": True}, "kkt_tol must be a number"),
]


@pytest.mark.parametrize("cls, kwargs, message", NOT_INT_COUNTS)
def test_parameter_classes_take_int_counts_and_no_bool_for_a_float(cls, kwargs, message):
    with pytest.raises(ParameterError, match=f"^{message}"):
        cls(**kwargs)


# every key the config accepted before the keys were mapped through one table
ACCEPTED_KEYS = {
    "seed", "output_dir", "run_dir",
    "data.features", "data.header", "data.kernels", "data.labels", "data.manifest", "kernel.gamma",
    "gp.population_size", "gp.max_generations", "gp.crossover_rate", "gp.mutation_rate",
    "gp.tournament_size", "gp.max_depth", "gp.init_depth_min", "gp.init_depth_max",
    "gp.stagnation_limit", "gp.elitism", "gp.fitness_mode", "gp.n_folds", "gp.seed_leaves",
    "gp.initial_exprs", "svm.c", "svm.kkt_tol", "svm.max_passes", "svm.grid_search_c",
    "protocol.per_class_train", "protocol.per_class_val", "protocol.repeats",
}

# key -> (legal value that is not the default, attribute path on the built RunConfig)
FIELD_KEYS = {
    "seed": (12, "protocol.seed"),
    "gp.population_size": (20, "gp.population_size"),
    "gp.max_generations": (7, "gp.max_generations"),
    "gp.crossover_rate": (0.5, "gp.crossover_rate"),
    "gp.mutation_rate": (0.3, "gp.mutation_rate"),
    "gp.tournament_size": (5, "gp.tournament_size"),
    "gp.max_depth": (8, "gp.max_depth"),
    "gp.stagnation_limit": (9, "gp.stagnation_limit"),
    "gp.elitism": (2, "gp.elitism"),
    "gp.fitness_mode": ("k_fold", "gp.fitness_mode"),
    "gp.n_folds": (3, "gp.n_folds"),
    "gp.seed_leaves": (False, "gp.seed_leaves"),
    "gp.initial_exprs": (["(+ K1 K2)"], "gp.initial_exprs"),
    "svm.c": (2.5, "svm.c"),
    "svm.kkt_tol": (1e-4, "svm.kkt_tol"),
    "svm.max_passes": (50, "svm.max_passes"),
    "svm.grid_search_c": (True, "protocol.grid_search_c"),
    "protocol.per_class_train": (20, "protocol.per_class_train"),
    "protocol.per_class_val": (4, "protocol.per_class_val"),
    "protocol.repeats": (3, "protocol.repeats"),
}


def _attr(obj, dotted: str):
    for name in dotted.split("."):
        obj = getattr(obj, name)
    return obj


class TestConfigKeys:
    def test_accepted_keys_are_unchanged(self):
        assert set(KNOWN_KEYS) == ACCEPTED_KEYS

    def test_every_field_key_is_covered(self):
        prefixed = {k for k in ACCEPTED_KEYS if k.split(".")[0] in ("gp", "svm", "protocol")}
        assert prefixed - {"gp.init_depth_min", "gp.init_depth_max"} | {"seed"} == set(FIELD_KEYS)

    @pytest.mark.parametrize("key", FIELD_KEYS)
    def test_key_reaches_its_field(self, tmp_path, key):
        value, attr = FIELD_KEYS[key]
        values = {"seed": 5, **parse_overrides([f"{key}={json.dumps(value)}"])}
        default, built = build_run_config({"seed": 5}, tmp_path), build_run_config(values, tmp_path)
        want = tuple(value) if isinstance(value, list) else value
        assert _attr(built, attr) == want and _attr(default, attr) != want

    def test_init_depth_pair_reaches_the_range(self, tmp_path):
        values = parse_overrides(["seed=5", "gp.init_depth_min=1", "gp.init_depth_max=3"])
        assert build_run_config(values, tmp_path).gp.init_depth_range == (1, 3)

    @pytest.mark.parametrize("key", ["gp.init_depth_min", "gp.init_depth_max"])
    def test_init_depth_bound_alone_is_config_error(self, tmp_path, key):
        with pytest.raises(ConfigError, match="must be set together"):
            build_run_config({"seed": 5, key: 3}, tmp_path)

    def test_init_depth_past_the_bound_exits_2_naming_the_key(self, capsys):
        # a full tree of depth 30 has about 10^9 nodes; the config is refused before any tree is grown
        depth = ["--set", "gp.init_depth_min=30", "--set", "gp.init_depth_max=30", "--set", "gp.max_depth=30"]
        start = time.perf_counter()
        assert main(["evolve", "--set", "seed=1", *depth]) == 2
        assert time.perf_counter() - start < 0.5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "gp.init_depth_max" in err["message"]
        assert f"MAX_INIT_DEPTH = {MAX_INIT_DEPTH}" in err["message"]

    def test_init_depth_bound_admits_every_depth_up_to_it(self):
        assert MAX_INIT_DEPTH == 12  # the value README gives
        assert GpParams(max_depth=12, init_depth_range=(12, 12)).init_depth_range == (12, 12)
        with pytest.raises(ParameterError, match="MAX_INIT_DEPTH"):
            GpParams(max_depth=MAX_INIT_DEPTH + 1, init_depth_range=(1, MAX_INIT_DEPTH + 1))

    def test_readme_lists_every_key_with_its_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
        rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
        table = {cells[0].strip().strip("`"): [c.strip().strip("`") for c in cells[1:]] for cells in rows}
        assert set(table) == set(KNOWN_KEYS)
        blocks = {"GpParams": GpParams(), "SvmParams": SvmParams(), "ProtocolConfig": ProtocolConfig()}
        for key, (kind, default, target) in table.items():
            assert [kind, target] == list(KNOWN_KEYS[key][:2]), key
            block, _, attr = target.partition(".")
            if block in blocks and key != "seed":
                name, _, index = attr.partition("[")
                value = getattr(blocks[block], name)
                assert default == json.dumps(value[int(index[0])] if index else value), key


@pytest.fixture
def xor_workspace(tmp_path):
    """Feature CSVs for a small two-view dataset plus a config file."""
    views, labels = xor_views(n_per_class=12, seed=3)
    for i, view in enumerate(views, start=1):
        save_feature_csv(tmp_path / f"view{i}.csv", view, labels)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                "seed = 11",
                'data.features = ["view1.csv", "view2.csv"]',
                "output_dir = kernels",
                "protocol.per_class_train = 8",
                "protocol.per_class_val = 3",
                "protocol.repeats = 2",
                "gp.population_size = 12",
                "gp.max_generations = 4",
                "gp.stagnation_limit = 3",
            ]
        )
        + "\n"
    )
    return tmp_path


def run_cli(args):
    return main([str(a) for a in args])


class TestGramCommand:
    def test_writes_kernels_and_manifest(self, xor_workspace, capsys):
        cfg = xor_workspace / "run.cfg"
        assert run_cli(["gram", "--config", cfg]) == 0
        outdir = xor_workspace / "kernels"
        manifest = outdir / "manifest.json"
        bank, labels, doc = load_bank_from_manifest(manifest)
        assert len(bank) == 2
        assert bank.size == 36
        assert labels.shape == (36,)
        assert {e["name"] for e in doc["kernels"]} == {"view1", "view2"}
        for entry in doc["kernels"]:
            assert entry["gamma"] > 0
        for k in bank.kernels:
            assert np.allclose(np.diag(k.values), 1.0)

    def test_rerun_is_byte_identical(self, xor_workspace):
        cfg = xor_workspace / "run.cfg"
        run_cli(["gram", "--config", cfg])
        outdir = xor_workspace / "kernels"
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        run_cli(["gram", "--config", cfg])
        after = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert before == after

    def test_output_bytes_are_pinned(self, xor_workspace):
        # sha256 of what `kernelforge gram` wrote for this input before the
        # distance matrix was shared between the bandwidth and the kernel; a
        # change to the Gram arithmetic that moves one bit fails here
        assert run_cli(["gram", "--config", xor_workspace / "run.cfg"]) == 0
        outdir = xor_workspace / "kernels"
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outdir.iterdir()}
        assert digests == {
            "k_view1.kgm": "d66738183bfb35bb38ee56c89833b22dd83d39dda113b7858ded880df7ff29cc",
            "k_view2.kgm": "f482879d932faf178a14d00ac8c3af290cdc79dcf5a636baafdcbe6b87b89510",
            "labels.csv": "dde34a1c540efa52eec3d2480074311d424395e242fb93a2ecb8461c2178ca07",
            "manifest.json": "cbdc132ad1b6faca9af01566d6b8d211693aee4b2c1170d8bd6f00ef4bc0c83a",
        }

    def test_subnormal_median_distance_is_data_error(self, tmp_path, capsys):
        # no gamma set: a bandwidth that cannot be derived from the data is a data error
        save_feature_csv(tmp_path / "tiny.csv", [[0.0], [1e-160], [2e-160], [5e-160]], [0, 0, 1, 1])
        cfg = tmp_path / "run.cfg"
        cfg.write_text('seed = 1\ndata.features = ["tiny.csv"]\noutput_dir = kernels\n')
        assert run_cli(["gram", "--config", cfg]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "DataError"

    def test_failed_build_leaves_no_output_dir(self, tmp_path, capsys):
        # the output directory is checked before the build and made only when the kernels are written
        save_feature_csv(tmp_path / "tiny.csv", [[0.0], [1e-160], [2e-160], [5e-160]], [0, 0, 1, 1])
        cfg = tmp_path / "run.cfg"
        cfg.write_text('seed = 1\ndata.features = ["tiny.csv"]\noutput_dir = out/k\n')
        assert run_cli(["gram", "--config", cfg]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "DataError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("gamma", [None, 1.0], ids=["median", "explicit"])
    def test_overflowing_feature_scale_is_data_error(self, tmp_path, capsys, gamma):
        # squared norms of 1e200 overflow float64; the error names the view before numpy warns
        save_feature_csv(tmp_path / "fine.csv", [[0.0], [1.0], [2.0]], [0, 0, 1])
        save_feature_csv(tmp_path / "huge.csv", [[1e200], [1e200], [0.0]], [0, 0, 1])
        cfg = tmp_path / "run.cfg"
        lines = ["seed = 1", 'data.features = ["fine.csv", "huge.csv"]', "output_dir = kernels"]
        cfg.write_text("\n".join(lines + ([] if gamma is None else [f"kernel.gamma = {gamma}"])) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["gram", "--config", cfg]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert "view 1 (huge)" in err["message"] and "feature scale overflows" in err["message"]

    def test_gamma_override(self, xor_workspace):
        cfg = xor_workspace / "run.cfg"
        run_cli(["gram", "--config", cfg, "--set", "kernel.gamma=0.5", "--output", "kg"])
        _, _, doc = load_bank_from_manifest(xor_workspace / "kg" / "manifest.json")
        assert all(e["gamma"] == 0.5 for e in doc["kernels"])

    def test_row_count_mismatch_names_files(self, xor_workspace, capsys):
        short = xor_workspace / "view2.csv"
        lines = short.read_text().splitlines()
        short.write_text("\n".join(lines[:-1]) + "\n")
        code = run_cli(["gram", "--config", xor_workspace / "run.cfg"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert "view2.csv" in err["message"]
        assert err["exit_code"] == 3

    def test_missing_features_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n")
        assert run_cli(["gram", "--config", cfg]) == 2

    def test_two_feature_files_with_one_stem_exit_2_before_either_is_read(self, xor_workspace, capsys, monkeypatch):
        # both would write k_view.kgm: the second kernel would replace the first, listed twice in the manifest
        for sub in ("a", "b"):
            (xor_workspace / sub).mkdir()
            (xor_workspace / sub / "view.csv").write_bytes((xor_workspace / "view1.csv").read_bytes())
        cfg = xor_workspace / "same_stem.cfg"
        cfg.write_text('seed = 1\ndata.features = ["view2.csv", "a/view.csv", "b/view.csv"]\noutput_dir = kernels\n')
        monkeypatch.setattr(kernel_io, "load_feature_csv", lambda *a, **k: pytest.fail("load_feature_csv called"))
        assert run_cli(["gram", "--config", cfg]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        first, second = (xor_workspace.resolve() / sub / "view.csv" for sub in ("a", "b"))
        assert json.loads(lines[0]) == {
            "error": "ConfigError",
            "message": f"data.features {first} and {second} both write {xor_workspace.resolve() / 'kernels' / 'k_view.kgm'}",
            "exit_code": 2,
        }
        assert not (xor_workspace / "kernels").exists()

    def test_five_descriptors_give_five_kernels(self, tmp_path):
        views, labels = xor_views(n_per_class=8, seed=1)
        rng = np.random.default_rng(0)
        names = []
        for i in range(5):
            view = views[i % 2] + (0.01 * rng.standard_normal(views[0].shape) if i >= 2 else 0.0)
            save_feature_csv(tmp_path / f"d{i}.csv", view, labels)
            names.append(f"d{i}.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 2\ndata.features = {json.dumps(names)}\noutput_dir = kernels\n")
        assert run_cli(["gram", "--config", cfg]) == 0
        bank, _, doc = load_bank_from_manifest(tmp_path / "kernels" / "manifest.json")
        assert len(bank) == 5
        assert len(doc["kernels"]) == 5
        assert len(list((tmp_path / "kernels").glob("k_*.kgm"))) == 5


class TestEvolveCommand:
    def test_outputs(self, xor_workspace, capsys):
        cfg = xor_workspace / "run.cfg"
        run_cli(["gram", "--config", cfg])
        code = run_cli(
            [
                "evolve",
                "--config",
                cfg,
                "--set",
                "data.manifest=kernels/manifest.json",
                "--set",
                "run_dir=evo",
                "--output",
                "runs",
            ]
        )
        assert code == 0
        rundir = xor_workspace / "runs" / "evo"
        best = (rundir / "best_expr.txt").read_text().strip()
        from kernelforge import parse_expr

        parse_expr(best)  # canonical text must parse back
        result = json.loads((rundir / "result.json").read_text())
        assert result["schema"] == "kf-evolve-1"
        assert result["best_expr"] == best
        assert 0.0 <= result["best_fitness"] <= 1.0
        log = (rundir / "evolution.csv").read_text().splitlines()
        assert log[0] == "generation,best_fitness,mean_fitness,best_expr"
        assert (rundir / "model.json").exists()

    def test_one_final_training_gives_result_and_model(self, xor_workspace, final_trainings):
        cfg = xor_workspace / "run.cfg"
        run_cli(["gram", "--config", cfg])
        common = ["evolve", "--config", cfg, "--set", "data.manifest=kernels/manifest.json", "--output", "runs"]
        assert run_cli([*common, "--set", "run_dir=a"]) == 0
        assert len(final_trainings) == 1
        rundir = xor_workspace / "runs" / "a"
        result = json.loads((rundir / "result.json").read_text())
        bank, labels, _ = load_bank_from_manifest(xor_workspace / "kernels" / "manifest.json")
        split = make_splits(labels, 8, 3, 1, 11)[0]
        kernel = evaluate(parse_expr(result["best_expr"]), bank)
        model = load_multiclass(rundir / "model.json")
        test_idx = list(split.test_idx)
        pred = predict(model, kernel.values[np.ix_(test_idx, split.fit_idx)])
        assert accuracy(pred, labels[test_idx]) == result["final_test_accuracy"]
        assert run_cli([*common, "--set", "run_dir=b"]) == 0
        for name in ("result.json", "model.json"):
            assert (rundir / name).read_bytes() == (xor_workspace / "runs" / "b" / name).read_bytes()

    def test_grid_search_c_sets_the_final_model_c(self, xor_workspace):
        cfg = xor_workspace / "run.cfg"
        run_cli(["gram", "--config", cfg])
        common = ["evolve", "--config", cfg, "--set", "data.manifest=kernels/manifest.json", "--output", "runs"]
        assert run_cli([*common, "--seed", 15, "--set", "svm.grid_search_c=true", "--set", "run_dir=g"]) == 0
        rundir = xor_workspace / "runs" / "g"
        bank, labels, _ = load_bank_from_manifest(xor_workspace / "kernels" / "manifest.json")
        split = make_splits(labels, 8, 3, 1, 15)[0]
        best = parse_expr((rundir / "best_expr.txt").read_text().strip())
        chosen = _select_c(best, SplitFitness(bank, labels, split), SvmParams()).c
        assert chosen != SvmParams().c  # on this seed the grid moves C off its default
        assert json.loads((rundir / "model.json").read_text())["params"]["c"] == chosen

    @pytest.mark.filterwarnings("ignore:fitness of")
    def test_unconverged_final_model_exits_4(self, xor_workspace, capsys):
        cfg = xor_workspace / "run.cfg"
        run_cli(["gram", "--config", cfg])
        code = run_cli(
            ["evolve", "--config", cfg, "--set", "data.manifest=kernels/manifest.json",
             "--set", "svm.max_passes=0", "--set", "gp.max_generations=1", "--output", "runs"]
        )
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NumericalError"
        assert not (xor_workspace / "runs").exists()

    def test_single_kernel_bank_yields_first_leaf(self, xor_workspace):
        cfg = xor_workspace / "run.cfg"
        run_cli(["gram", "--config", cfg])
        # bank with only view1: every chromosome evaluates to combinations of K1
        kpath = xor_workspace / "kernels" / "k_view1.kgm"
        labels = xor_workspace / "kernels" / "labels.csv"
        code = run_cli(
            [
                "evolve",
                "--config",
                cfg,
                "--set",
                f'data.kernels=["{kpath}"]',
                "--set",
                f"data.labels={labels}",
                "--set",
                "run_dir=evo1",
                "--output",
                "runs",
            ]
        )
        assert code == 0
        best = (xor_workspace / "runs" / "evo1" / "best_expr.txt").read_text().strip()
        assert best == "K1"

    def test_kernel_files_near_the_symmetry_tolerance_combine(self, xor_workspace, capsys):
        # each file passes the loader at 0.9 SYMMETRY_TOL from symmetric; the sums and
        # products the search makes of them are further off, and are not held to it
        cfg = xor_workspace / "run.cfg"
        assert run_cli(["gram", "--config", cfg]) == 0
        paths = []
        for name in ("view1", "view2"):
            v = read_kernel(xor_workspace / "kernels" / f"k_{name}.kgm").values
            paths.append(xor_workspace / f"near_{name}.kgm")
            write_kernel(paths[-1], GramMatrix(v + np.triu(np.full(v.shape, 0.9 * SYMMETRY_TOL), 1), name))
        kernels = json.dumps([str(p) for p in paths])
        labels = xor_workspace / "kernels" / "labels.csv"
        args = ["--set", f"data.kernels={kernels}", "--set", f"data.labels={labels}", "--output", "runs"]
        assert run_cli(["evolve", "--config", cfg, *args]) == 0, capsys.readouterr().err


class TestCompareCommand:
    def test_report_and_exit_code(self, xor_workspace, capsys):
        cfg = xor_workspace / "run.cfg"
        run_cli(["gram", "--config", cfg])
        code = run_cli(
            [
                "compare",
                "--config",
                cfg,
                "--set",
                "data.manifest=kernels/manifest.json",
                "--set",
                "run_dir=cmp",
                "--output",
                "runs",
            ]
        )
        assert code == 0
        report = json.loads((xor_workspace / "runs" / "cmp" / "report.json").read_text())
        assert report["schema"] == "kf-report-1"
        assert set(report["methods"]) == {"addition", "best_single", "evolved"}
        assert all(len(v) == 2 for v in report["methods"].values())
        assert report["config"]["seed"] == 11

    @pytest.mark.filterwarnings("ignore:fitness of")
    def test_unconverged_final_model_exits_4(self, xor_workspace, capsys):
        # the cause's class, as from evolve, with the repeat named in the message
        cfg = xor_workspace / "run.cfg"
        run_cli(["gram", "--config", cfg])
        code = run_cli(
            ["compare", "--config", cfg, "--set", "data.manifest=kernels/manifest.json",
             "--set", "svm.max_passes=0", "--set", "gp.max_generations=1", "--output", "runs"]
        )
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NumericalError" and err["exit_code"] == 4
        assert err["message"].startswith("repeat 0 failed:")
        assert not (xor_workspace / "runs").exists()

    def test_structured_error_json(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("seed = 1\ndata.manifest = missing.json\n")
        code = run_cli(["compare", "--config", cfg])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"


class TestOutputNamesAFile:
    @pytest.mark.parametrize("command", ["gram", "evolve", "compare"])
    def test_is_config_error(self, xor_workspace, capsys, monkeypatch, command):
        # each command finds the file before any work: gram before it builds the bank,
        # evolve and compare before the search
        cfg = xor_workspace / "run.cfg"
        assert run_cli(["gram", "--config", cfg]) == 0
        capsys.readouterr()
        (xor_workspace / "afile").write_text("kept\n")
        for name in ("build_bank", "run_repeat", "run_comparison"):
            monkeypatch.setattr(cli, name, lambda *args, _name=name, **kwargs: pytest.fail(f"{_name} called"))
        args = [] if command == "gram" else ["--set", "data.manifest=kernels/manifest.json"]
        assert run_cli([command, "--config", cfg, *args, "--output", "afile"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "afile" in err["message"]
        assert (xor_workspace / "afile").read_text() == "kept\n"


class TestOutputCannotBeWritten:
    """A directory where an output file should go is a config error naming the file (exit 2), not a traceback."""

    def _assert_exit_2_naming(self, capsys, code, path):
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError" and err["exit_code"] == 2
        assert err["message"].startswith(f"cannot write {path}: ")
        assert path.is_dir()

    def test_gram(self, xor_workspace, capsys):
        blocked = xor_workspace / "kernels" / "k_view1.kgm"
        blocked.mkdir(parents=True)
        code = run_cli(["gram", "--config", xor_workspace / "run.cfg"])
        self._assert_exit_2_naming(capsys, code, blocked)

    def test_compare(self, xor_workspace, capsys):
        cfg = xor_workspace / "run.cfg"
        assert run_cli(["gram", "--config", cfg]) == 0
        capsys.readouterr()
        blocked = xor_workspace / "runs" / "cmp" / "report.json"
        blocked.mkdir(parents=True)
        args = ["--set", "data.manifest=kernels/manifest.json", "--set", "run_dir=cmp", "--output", "runs"]
        code = run_cli(["compare", "--config", cfg, *args])
        self._assert_exit_2_naming(capsys, code, blocked)

    def test_compare_with_a_file_at_logs_exits_2_before_the_search(self, xor_workspace, capsys, fitness_calls):
        cfg = xor_workspace / "run.cfg"
        assert run_cli(["gram", "--config", cfg]) == 0
        capsys.readouterr()
        blocked = xor_workspace / "runs" / "cmp" / "logs"
        blocked.parent.mkdir(parents=True)
        blocked.write_text("kept\n")
        args = ["--set", "data.manifest=kernels/manifest.json", "--set", "run_dir=cmp", "--output", "runs"]
        assert run_cli(["compare", "--config", cfg, *args]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError" and err["exit_code"] == 2 and str(blocked) in err["message"]
        assert fitness_calls == [] and blocked.read_text() == "kept\n"

    def test_write_comparison_outputs_maps_a_file_at_logs_to_config_error(self, tmp_path):
        # the same file reached after the search, as a library caller can, is exit 2 too, not a traceback
        (tmp_path / "logs").write_text("kept\n")
        with pytest.raises(ConfigError, match=re.escape(f"cannot make directory {tmp_path / 'logs'}: ")):
            write_comparison_outputs(None, [], tmp_path)


def _digests(rundir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(rundir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(rundir.rglob("*"))
        if p.is_file()
    }


# sha256 of every file `evolve` and `compare` wrote for the xor_workspace input
# before the config keys were mapped through one table; a change to how a run
# is set up that moves one bit of its outputs fails here
PINNED_RUN_OUTPUTS = {
    "evolve": {
        "best_expr.txt": "469bb9db7125657b057d9a6ecb7735e998f6ff1b1e065459eeb778b905809da6",
        "evolution.csv": "c623a6a15bb0f5308d0ccb5e666bcdff25d5080224578f95db909347447b3503",
        "model.json": "2259e007d225145a51a1d33bd19ce5de3837e6e3ce3aac50be0b8c4325488b08",
        "result.json": "cf67bc19421a2bee65f7d3192009f730673cb16dc4ff2dcd6798a5610befa7ce",
    },
    "compare": {
        "binary_problems.csv": "5ad41fd34d6bddfa11adf63769890a39bb40271876b98a7eb90c39a0f0fb7d01",
        "generations.csv": "e440b2e2e4331324c4810e7ebe16ae0ea4c8f57531c10dae4f989b1246bf39da",
        "iterations.csv": "56044f333099d689fee44a38b1ef8308a7646731e1998199bce9adab45a3319a",
        "logs/evolution_r0.csv": "c623a6a15bb0f5308d0ccb5e666bcdff25d5080224578f95db909347447b3503",
        "logs/evolution_r1.csv": "ba31cccd5decf9d64d49c2388ffb13df26c3dded3fd2f5c5f7759b425fd79c68",
        "report.json": "a29084e78a259b67ba28c5c4af40a517493272b5508e855c29d0179985bcd186",
        "summary.csv": "1bc68b0f8a96e6ba152282d4f0605f9c19a9673933daa026248556ac86ee8eb2",
    },
}


class TestRunOutputs:
    @pytest.mark.parametrize("command", PINNED_RUN_OUTPUTS)
    def test_output_bytes_are_pinned(self, xor_workspace, command):
        cfg = xor_workspace / "run.cfg"
        assert run_cli(["gram", "--config", cfg]) == 0
        args = ["--set", "data.manifest=kernels/manifest.json", "--set", "run_dir=pinned", "--output", "runs"]
        assert run_cli([command, "--config", cfg, *args]) == 0
        assert _digests(xor_workspace / "runs" / "pinned") == PINNED_RUN_OUTPUTS[command]

    @pytest.mark.parametrize("grid_search_c", ["false", "true"])
    def test_evolve_is_repeat_zero_of_compare(self, xor_workspace, grid_search_c):
        cfg = xor_workspace / "run.cfg"
        run_cli(["gram", "--config", cfg])
        common = ["--config", cfg, "--set", "data.manifest=kernels/manifest.json", "--output", "runs",
                  "--set", f"svm.grid_search_c={grid_search_c}"]
        assert run_cli(["evolve", *common, "--set", "run_dir=e"]) == 0
        assert run_cli(["compare", *common, "--set", "run_dir=c"]) == 0
        result = json.loads((xor_workspace / "runs" / "e" / "result.json").read_text())
        report = json.loads((xor_workspace / "runs" / "c" / "report.json").read_text())
        assert result["best_expr"] == report["best_exprs"][0]
        assert result["generations"] == report["generations"][0]
        assert result["final_test_accuracy"] == report["methods"]["evolved"][0]


# every file each command writes under its output directory, for xor_workspace's two views and two repeats
OUTPUT_FILES = {
    "gram": ["k_view1.kgm", "k_view2.kgm", "labels.csv", "manifest.json"],
    **{command: sorted(files) for command, files in PINNED_RUN_OUTPUTS.items()},
}


@pytest.mark.parametrize("command, name", [(c, name) for c, names in OUTPUT_FILES.items() for name in names])
def test_a_directory_at_an_output_file_exits_2_before_the_input_is_read(
    xor_workspace, capsys, monkeypatch, fitness_calls, command, name
):
    cfg = xor_workspace / "run.cfg"
    outdir, args = xor_workspace / "kernels", []
    if command != "gram":
        assert run_cli(["gram", "--config", cfg]) == 0
        capsys.readouterr()
        outdir = xor_workspace / "runs" / "r"
        args = ["--set", "data.manifest=kernels/manifest.json", "--set", "run_dir=r", "--output", "runs"]
    blocked = outdir / name
    blocked.mkdir(parents=True)
    with pytest.raises(ConfigError) as after_the_search:
        kernel_io._write_file(blocked, "")
    for loader in ("load_feature_csv", "load_bank"):
        monkeypatch.setattr(kernel_io, loader, lambda *a, _name=loader, **k: pytest.fail(f"{_name} called"))
    assert run_cli([command, "--config", cfg, *args]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err == {"error": "ConfigError", "message": str(after_the_search.value), "exit_code": 2}
    assert err["message"] == f"cannot write {blocked}: Is a directory"
    assert fitness_calls == [] and [p for p in outdir.rglob("*") if not p.is_dir()] == []


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _set_first_label(path, text):
    path.write_text(text + path.read_text()[path.read_text().index("\n") :])


# case -> (edit of the kernels/ directory that gram wrote, text the error message must hold)
MALFORMED_BANK_FILES = {
    "manifest_not_an_object": (lambda d: (d / "manifest.json").write_text("[]"), "manifest.json"),
    "kernel_entry_is_a_string": (
        lambda d: _edit_json(d / "manifest.json", lambda doc: doc["kernels"].insert(0, "k_view1.kgm")),
        "manifest.json.kernels[0]",
    ),
    "kernel_entry_without_file": (
        lambda d: _edit_json(d / "manifest.json", lambda doc: doc["kernels"][0].pop("file")),
        "manifest.json.kernels[0]",
    ),
    "manifest_not_utf8": (
        lambda d: (d / "manifest.json").write_bytes((d / "manifest.json").read_bytes().replace(b"view1", b"view\xff")),
        "manifest.json",
    ),
    "kernel_file_missing": (lambda d: (d / "k_view2.kgm").unlink(), "k_view2.kgm"),
    "labels_file_missing": (lambda d: (d / "labels.csv").unlink(), "labels.csv"),
    "labels_not_numeric": (lambda d: _set_first_label(d / "labels.csv", "zero"), "labels.csv"),
    "labels_infinite": (lambda d: _set_first_label(d / "labels.csv", "inf"), "labels.csv"),
    "manifest_lists_no_kernel": (
        lambda d: _edit_json(d / "manifest.json", lambda doc: doc["kernels"].clear()),
        "manifest.json.kernels: need at least one kernel",
    ),
}


@pytest.mark.parametrize("exprs", ['["(+ K1"]', '["(* K1 (+ K2 (* K1 (+ K2 (* K1 (+ K2 K1))))))"]'])
def test_malformed_initial_exprs_exit_2_before_the_bank_is_loaded(xor_workspace, capsys, monkeypatch, exprs):
    def load_bank(config):
        raise AssertionError("the bank was loaded")

    monkeypatch.setattr("kernelforge.cli._load_bank", load_bank)
    assert run_cli(["evolve", "--config", xor_workspace / "run.cfg", "--set", f"gp.initial_exprs={exprs}"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "initial_exprs" in err["message"]


# case -> a text a parser built on str.isdigit, int() and plain recursion fails on with another error
UNPARSABLE = {
    "superscript": "K\u00b2",  # '²'.isdigit() is true, and int() raises ValueError
    "arabic-indic": "(+ K1 K\u0663)",  # int() reads it as K3
    "5000-digits": "K" + "7" * 5000,  # over int()'s digit limit, ValueError
    "3000-deep": "(+ " * 3000 + "K1" + " K1)" * 3000,  # RecursionError
}


@pytest.mark.parametrize("case", UNPARSABLE)
def test_unparsable_initial_expr_exits_2_with_one_json_line(xor_workspace, capsys, case):
    exprs = json.dumps([UNPARSABLE[case]])
    assert run_cli(["evolve", "--config", xor_workspace / "run.cfg", "--set", f"gp.initial_exprs={exprs}"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError" and err["exit_code"] == 2 and "initial_exprs" in err["message"]


@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_too_many_folds_exits_2_from_both_commands(xor_workspace, capsys, fitness_calls, command):
    cfg = xor_workspace / "run.cfg"
    run_cli(["gram", "--config", cfg])
    capsys.readouterr()
    code = run_cli(
        [command, "--config", cfg, "--set", "data.manifest=kernels/manifest.json", "--output", "runs",
         "--set", "gp.fitness_mode=k_fold", "--set", "gp.n_folds=50"]
    )
    assert code == 2
    assert fitness_calls == []  # rejected before any fitness work
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParameterError" and "50 folds" in err["message"]
    assert err["message"].startswith("repeat 0 failed: ") == (command == "compare")


def _not_utf8_config(ws):
    path = ws / "latin1.cfg"
    path.write_bytes(b"seed = 11\n# caf\xe9\n")
    return ["gram", "--config", path]


def _feature_csv_with_nan(ws):
    text = (ws / "view1.csv").read_text()
    (ws / "nan.csv").write_text("nan" + text[text.index(","):])  # the first feature of the first row
    return ["gram", "--config", ws / "run.cfg", "--set", 'data.features=["nan.csv"]']


# case -> (arguments, given the workspace; exit code; error class; what the message names)
UNREADABLE_INPUTS = {
    "config_is_a_directory": (lambda ws: ["gram", "--config", ws / "adir"], 2, "ConfigError", "adir"),
    "config_not_utf8": (_not_utf8_config, 2, "ConfigError", "latin1.cfg"),
    "feature_csv_is_a_directory": (
        lambda ws: ["gram", "--config", ws / "run.cfg", "--set", 'data.features=["adir"]'], 3, "DataError", "adir"
    ),
    "feature_csv_with_nan": (_feature_csv_with_nan, 3, "DataError", "nan.csv: feature matrix contains non-finite"),
    "manifest_is_a_directory": (
        lambda ws: ["evolve", "--config", ws / "run.cfg", "--set", "data.manifest=adir"], 3, "DataError", "adir"
    ),
}


@pytest.mark.parametrize("case", UNREADABLE_INPUTS)
def test_unreadable_input_exits_with_one_line_json_error(xor_workspace, capsys, case):
    args, code, error, named = UNREADABLE_INPUTS[case]
    (xor_workspace / "adir").mkdir()
    assert run_cli(args(xor_workspace)) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == error and err["exit_code"] == code and named in err["message"]


@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_data_error_in_a_run_exits_3_from_both_commands(xor_workspace, capsys, monkeypatch, command):
    # both commands reach the search through harness.run_repeat
    def evolve(*args):
        raise DataError("degenerate split")

    cfg = xor_workspace / "run.cfg"
    run_cli(["gram", "--config", cfg])
    capsys.readouterr()
    monkeypatch.setattr("kernelforge.harness.evolve", evolve)
    assert run_cli([command, "--config", cfg, "--set", "data.manifest=kernels/manifest.json", "--output", "runs"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataError" and err["message"].endswith("degenerate split")


@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_labels_that_do_not_match_the_kernels_exit_3(xor_workspace, capsys, command):
    cfg = xor_workspace / "run.cfg"
    run_cli(["gram", "--config", cfg])
    capsys.readouterr()
    kernels = xor_workspace / "kernels"
    short = xor_workspace / "short.csv"
    short.write_text("".join((kernels / "labels.csv").read_text().splitlines(keepends=True)[3:]))
    files = json.dumps([str(kernels / "k_view1.kgm"), str(kernels / "k_view2.kgm")])
    args = ["--set", f"data.kernels={files}", "--set", f"data.labels={short}", "--output", "runs"]
    assert run_cli([command, "--config", cfg, *args]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 3 and err["message"].endswith("33 labels for a bank of 36 items")
    assert not (xor_workspace / "runs").exists()


def _with_smallest_eigenvalue(path: Path, low: float) -> None:
    """Rewrite the kernel file at ``path`` with its smallest eigenvalue moved to ``low``."""
    kernel = read_kernel(path)
    w, x = np.linalg.eigh(kernel.values)
    shifted = kernel.values + (low - w[0]) * np.outer(x[:, 0], x[:, 0])  # exactly symmetric
    write_kernel(path, GramMatrix(shifted, kernel.source_tag))


def _bank_route_args(workspace: Path, route: str) -> list[str]:
    kernels = workspace / "kernels"
    if route == "manifest":
        return ["--set", "data.manifest=kernels/manifest.json"]
    files = json.dumps([str(kernels / "k_view1.kgm"), str(kernels / "k_view2.kgm")])
    return ["--set", f"data.kernels={files}", "--set", f"data.labels={kernels / 'labels.csv'}"]


@pytest.mark.parametrize("route", ["manifest", "kernels"])
@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_kernel_file_that_is_not_psd_exits_3(xor_workspace, capsys, command, route):
    cfg = xor_workspace / "run.cfg"
    run_cli(["gram", "--config", cfg])
    _with_smallest_eigenvalue(xor_workspace / "kernels" / "k_view2.kgm", -0.5)
    capsys.readouterr()
    assert run_cli([command, "--config", cfg, *_bank_route_args(xor_workspace, route), "--output", "runs"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataError"
    assert "k_view2.kgm is not positive semidefinite: smallest eigenvalue -0.5 " in err["message"]
    assert not (xor_workspace / "runs").exists()


@pytest.mark.parametrize("route", ["manifest", "kernels"])
def test_kernel_file_a_rounding_error_from_psd_is_accepted(xor_workspace, capsys, route):
    cfg = xor_workspace / "run.cfg"
    run_cli(["gram", "--config", cfg])
    path = xor_workspace / "kernels" / "k_view1.kgm"
    _with_smallest_eigenvalue(path, -1e-13)
    assert np.linalg.eigvalsh(read_kernel(path).values)[0] == pytest.approx(-1e-13, abs=2e-14)
    args = [*_bank_route_args(xor_workspace, route), "--set", "run_dir=evo", "--output", "runs"]
    assert run_cli(["evolve", "--config", cfg, *args]) == 0, capsys.readouterr().err


def _two_column_labels(kernels: Path) -> None:
    path = kernels / "labels.csv"
    path.write_text("".join(f"{label} {label}\n" for label in path.read_text().split()))


def _empty_kernel(kernels: Path) -> None:
    (kernels / "k_view2.kgm").write_bytes(MAGIC + struct.pack("<II", 0, 0))  # m = 0, no name


def _asymmetric_kernel(kernels: Path) -> None:
    values = read_kernel(kernels / "k_view2.kgm").values.copy()
    values[0, 1] += 0.5
    blob = MAGIC + struct.pack("<I", len(values)) + values.astype("<f8").tobytes() + struct.pack("<I", 0)
    (kernels / "k_view2.kgm").write_bytes(blob)


def _kernel_of_35_items(kernels: Path) -> None:
    write_kernel(kernels / "k_view2.kgm", GramMatrix(np.eye(35), "view2"))


def _short_labels(kernels: Path) -> None:
    path = kernels / "labels.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[3:]))


# (edit of the kernels directory gram wrote, error class, text the message holds)
MALFORMED_BANK_INPUTS = {
    "labels_in_two_columns": (_two_column_labels, "DataError", "labels.csv: need one label per line, got 2 columns"),
    "kernel_of_no_items": (_empty_kernel, "ShapeError", "k_view2.kgm: gram matrix must hold at least one item"),
    "asymmetric_kernel": (_asymmetric_kernel, "ShapeError", "k_view2.kgm: gram matrix asymmetric beyond"),
    "kernels_of_two_sizes": (_kernel_of_35_items, "ShapeError", "k_view2.kgm: 35 items, but the bank holds 36"),
    "labels_too_few": (_short_labels, "ShapeError", "labels.csv: 33 labels for a bank of 36 items"),
}


@pytest.mark.parametrize("route", ["manifest", "kernels"])
@pytest.mark.parametrize("case", MALFORMED_BANK_INPUTS)
def test_malformed_bank_input_exits_3_on_both_routes(xor_workspace, capsys, case, route):
    edit, error, message = MALFORMED_BANK_INPUTS[case]
    cfg = xor_workspace / "run.cfg"
    run_cli(["gram", "--config", cfg])
    edit(xor_workspace / "kernels")
    capsys.readouterr()
    assert run_cli(["evolve", "--config", cfg, *_bank_route_args(xor_workspace, route), "--output", "runs"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and err["exit_code"] == 3 and message in err["message"]
    assert not (xor_workspace / "runs").exists()


@pytest.mark.parametrize("case", MALFORMED_BANK_FILES)
def test_malformed_bank_file_exits_3(xor_workspace, capsys, case):
    edit, named = MALFORMED_BANK_FILES[case]
    cfg = xor_workspace / "run.cfg"
    run_cli(["gram", "--config", cfg])
    edit(xor_workspace / "kernels")
    capsys.readouterr()
    assert run_cli(["evolve", "--config", cfg, "--set", "data.manifest=kernels/manifest.json", "--output", "runs"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataError" and named in err["message"]


def _run_cli_process(*args, **env):
    """The CLI in a fresh interpreter, under os.environ updated by env, with the default
    warning filters, so that numpy's warnings would reach its stderr."""
    env = dict(os.environ, **env)
    env.pop("PYTHONWARNINGS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "kernelforge.cli", *map(str, args)]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture
def kf_logger():
    """The package logger, whose level main sets from KF_LOG, restored after the test."""
    logger = logging.getLogger("kernelforge")
    level = logger.level
    yield logger
    logger.setLevel(level)


class TestLogLevel:
    @pytest.mark.parametrize("value", [None, "info"])
    def test_info_logs_one_line_per_phase(self, xor_workspace, monkeypatch, caplog, kf_logger, value):
        if value is None:
            monkeypatch.delenv("KF_LOG", raising=False)
        else:
            monkeypatch.setenv("KF_LOG", value)
        cfg = xor_workspace / "run.cfg"
        common = ["--config", cfg, "--set", "data.manifest=kernels/manifest.json", "--output", "runs"]
        assert run_cli(["gram", "--config", cfg]) == 0
        assert run_cli(["evolve", *common, "--set", "run_dir=e"]) == 0
        assert run_cli(["compare", *common, "--set", "run_dir=c"]) == 0
        lines = [r.getMessage() for r in caplog.records if r.name == "kernelforge"]
        phases = ["loaded", "wrote"] + ["loaded", "search", "wrote"] * 2
        assert [line.split()[0] for line in lines] == ([] if value is None else phases)

    def test_debug_logs_each_generation_and_repeat(self, xor_workspace, monkeypatch, caplog, kf_logger):
        cfg, runs = xor_workspace / "run.cfg", xor_workspace / "runs"
        common = ["--config", cfg, "--set", "data.manifest=kernels/manifest.json", "--output", runs]
        assert run_cli(["gram", "--config", cfg]) == 0
        monkeypatch.delenv("KF_LOG", raising=False)
        assert run_cli(["compare", *common, "--set", "run_dir=quiet"]) == 0
        assert not [r for r in caplog.records if r.levelno == logging.DEBUG]
        monkeypatch.setenv("KF_LOG", "debug")
        assert run_cli(["compare", *common, "--set", "run_dir=debug"]) == 0
        gens = [r.getMessage() for r in caplog.records if r.name == "kernelforge.gp"]
        repeats = [r.getMessage() for r in caplog.records if r.name == "kernelforge.harness"]
        report = json.loads((runs / "debug" / "report.json").read_text())
        rows = [row for series in report["generations"] for row in series]
        assert [line.split(":")[0] for line in gens] == [f"generation {int(g)}" for g, _, _ in rows]
        assert all(line.endswith("memo entries") for line in gens)
        assert [line.split(":")[0] for line in repeats] == ["repeat 0", "repeat 1"]
        # the log lines change no output file
        quiet = sorted(p.relative_to(runs / "quiet") for p in (runs / "quiet").rglob("*.*"))
        assert len(quiet) == 7
        for rel in quiet:
            assert (runs / "quiet" / rel).read_bytes() == (runs / "debug" / rel).read_bytes()

    def test_debug_logs_the_blas_threads_once_per_command(self, xor_workspace, monkeypatch, caplog, kf_logger):
        monkeypatch.setenv("KF_LOG", "debug")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        cfg = xor_workspace / "run.cfg"
        common = ["--config", cfg, "--set", "data.manifest=kernels/manifest.json", "--output", "runs"]
        assert run_cli(["gram", "--config", cfg]) == 0
        assert run_cli(["evolve", *common, "--set", "run_dir=e"]) == 0
        assert run_cli(["compare", *common, "--set", "run_dir=c"]) == 0
        lines = [r.getMessage() for r in caplog.records if r.name == "kernelforge" and r.levelno == logging.DEBUG]
        threads = "OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset MKL_NUM_THREADS=3"
        assert lines == [f"BLAS threads: {threads}; os.cpu_count()={os.cpu_count()}"] * 3

    @pytest.mark.parametrize("value", ["basic_format", "verbose"])
    def test_unknown_value_exits_2(self, tmp_path, capsys, monkeypatch, kf_logger, value):
        monkeypatch.setenv("KF_LOG", value)
        path = tmp_path / "expr.txt"
        path.write_text("K1\n")
        assert run_cli(["inspect", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        err = json.loads(err)
        assert err["error"] == "ConfigError" and "KF_LOG" in err["message"] and value in err["message"]

    def test_info_lines_reach_stderr(self, xor_workspace):
        done = _run_cli_process("gram", "--config", xor_workspace / "run.cfg", KF_LOG="info")
        assert done.returncode == 0, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 2 and all(line.startswith("INFO kernelforge: ") for line in lines)


@pytest.mark.parametrize("emptied", ["labels", "features"])
def test_empty_input_file_leaves_only_the_json_error_on_stderr(xor_workspace, emptied):
    cfg = xor_workspace / "run.cfg"
    if emptied == "labels":
        assert run_cli(["gram", "--config", cfg]) == 0
        (xor_workspace / "kernels" / "labels.csv").write_text("")
        args = ["evolve", "--set", "data.manifest=kernels/manifest.json", "--output", "runs"]
        error, message = "ShapeError", "labels.csv: 0 labels for a bank of 36 items"
    else:
        (xor_workspace / "view1.csv").write_text("")
        args, error, message = ["gram"], "DataError", "view1.csv: need at least one feature column"
    done = _run_cli_process(args[0], "--config", cfg, *args[1:])
    assert done.returncode == 3, done.stderr
    assert "Warning" not in done.stderr and len(done.stderr.splitlines()) == 1
    err = json.loads(done.stderr)
    assert err["error"] == error and message in err["message"]


class TestRetrieveCommand:
    @pytest.fixture
    def index_file(self, tmp_path):
        values = np.ones((4, 4)) * 0.1
        values[0, 1] = values[1, 0] = 0.9
        values[0, 3] = values[3, 0] = 0.7
        np.fill_diagonal(values, 1.0)
        bank = KernelBank((GramMatrix(values),))
        index = build_index(Leaf(0), bank, [f"img{i}" for i in range(4)])
        path = tmp_path / "index.kgm"
        save_index(path, index)
        return path

    def test_query_by_id(self, index_file, capsys):
        assert run_cli(["retrieve", "--index", index_file, "--item", "img0", "--k", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "rank,item_id,score"
        assert out[1].startswith("1,img1,")
        assert out[2].startswith("2,img3,")

    def test_query_by_index_paper_min(self, index_file, capsys):
        code = run_cli(
            ["retrieve", "--index", index_file, "--item", "0", "--k", "3", "--order", "paper-min"]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(",")[1] for line in out[1:]] == ["img2", "img3", "img1"]

    def test_unknown_id_lists_near_matches(self, index_file, capsys):
        code = run_cli(["retrieve", "--index", index_file, "--item", "img9x", "--k", "1"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert "img" in err["message"]

    def test_non_ascii_digit_item_is_data_error(self, index_file, capsys):
        # "²".isdigit() is true, but int("²") raises
        assert run_cli(["retrieve", "--index", index_file, "--item", "²", "--k", "1"]) == 3
        assert "unknown item id" in json.loads(capsys.readouterr().err)["message"]

    def test_index_name_not_utf8_is_data_error(self, index_file, capsys):
        index_file.write_bytes(index_file.read_bytes()[:-1] + b"\xff")
        assert run_cli(["retrieve", "--index", index_file, "--item", "img0", "--k", "1"]) == 3
        assert "UTF-8" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize(
        "content, message",
        [(b"img0\nimg\xff\n", "item-id sidecar is not valid UTF-8"), (b"img0\nimg1\n", "2 item ids for a 4x4 matrix")],
        ids=["not_utf8", "too_few_ids"],
    )
    def test_bad_sidecar_is_data_error_naming_it(self, index_file, capsys, content, message):
        sidecar = index_file.with_name("index.kgm.ids")
        sidecar.write_bytes(content)
        assert run_cli(["retrieve", "--index", index_file, "--item", "img0", "--k", "1"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError" and err["message"].startswith(f"{sidecar}: {message}")


class TestInspectCommand:
    def test_pretty_print(self, tmp_path, capsys):
        path = tmp_path / "expr.txt"
        path.write_text("(+ (* K1 K1) K5)\n")
        assert run_cli(["inspect", path]) == 0
        out = capsys.readouterr().out
        assert "depth=3 nodes=5" in out
        assert "canonical: (+ (* K1 K1) K5)" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "expr.txt"
        path.write_text("(+ K1\n")
        assert run_cli(["inspect", path]) == 3

    @pytest.mark.parametrize("case", UNPARSABLE)
    def test_unparsable_file_is_data_error_naming_it(self, tmp_path, capsys, case):
        path = tmp_path / "expr.txt"
        path.write_text(UNPARSABLE[case] + "\n", encoding="utf-8")
        assert run_cli(["inspect", path]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ExprSyntaxError" and err["message"].startswith(f"{path}: ")

    @pytest.mark.parametrize("content", [b"(+ K1 K\xff)\n", None], ids=["not_utf8", "missing"])
    def test_unreadable_file_is_data_error(self, tmp_path, capsys, content):
        path = tmp_path / "expr.txt"
        if content is not None:
            path.write_bytes(content)
        assert run_cli(["inspect", path]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError" and "expression file" in err["message"]
