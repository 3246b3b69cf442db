import json
from pathlib import Path

import numpy as np
import pytest

from kernelforge import ConfigError, Leaf, accuracy, build_index, evaluate, make_splits, parse_expr, predict, save_index
from kernelforge.cli import main
from kernelforge.config import build_run_config, load_config_file, parse_config_text, parse_overrides
from kernelforge.gram import GramMatrix, KernelBank
from kernelforge.kernel_io import load_bank_from_manifest, save_feature_csv
from kernelforge.svm import load_multiclass
from kernelforge.synthetic import xor_views


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
        assert config.per_class_train == 15 and config.per_class_val == 5

    def test_echo_excludes_location_only_keys(self, tmp_path):
        config = build_run_config({"seed": 5, "run_dir": "fixed"}, tmp_path)
        assert "run_dir" not in config.echo()
        assert config.echo()["seed"] == 5

    def test_bad_gp_values_are_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            build_run_config({"seed": 1, "gp.crossover_rate": 1.5}, tmp_path)


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
                "--threads",
                "1",
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
        assert run_cli([*common, "--set", "run_dir=a", "--threads", "1"]) == 0
        assert len(final_trainings) == 1
        rundir = xor_workspace / "runs" / "a"
        result = json.loads((rundir / "result.json").read_text())
        bank, labels, _ = load_bank_from_manifest(xor_workspace / "kernels" / "manifest.json")
        split = make_splits(labels, 8, 3, 1, 11)[0]
        kernel = evaluate(parse_expr(result["best_expr"]), bank)
        model = load_multiclass(rundir / "model.json")
        test_idx = list(split.test_idx)
        pred = predict(model, kernel.values[test_idx], [*split.train_idx, *split.val_idx])
        assert accuracy(pred, labels[test_idx]) == result["final_test_accuracy"]
        assert run_cli([*common, "--set", "run_dir=b", "--threads", "1"]) == 0
        for name in ("result.json", "model.json"):
            assert (rundir / name).read_bytes() == (xor_workspace / "runs" / "b" / name).read_bytes()

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
                "--threads",
                "1",
            ]
        )
        assert code == 0
        report = json.loads((xor_workspace / "runs" / "cmp" / "report.json").read_text())
        assert report["schema"] == "kf-report-1"
        assert set(report["methods"]) == {"addition", "best_single", "evolved"}
        assert all(len(v) == 2 for v in report["methods"].values())
        assert report["config"]["seed"] == 11

    def test_structured_error_json(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("seed = 1\ndata.manifest = missing.json\n")
        code = run_cli(["compare", "--config", cfg])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"


class TestRetrieveCommand:
    @pytest.fixture
    def index_file(self, tmp_path):
        values = np.ones((4, 4)) * 0.1
        values[0, 1] = values[1, 0] = 0.9
        values[0, 3] = values[3, 0] = 0.7
        np.fill_diagonal(values, 1.0)
        bank = KernelBank((GramMatrix(values),), ("k",))
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
