import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "scripts" / name), *map(str, args)]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)


def test_make_xor_data_writes_views(tmp_path):
    done = run_script("make_xor_data.py", "--out", tmp_path, "--per-class", 20)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["view1.csv", "view2.csv"]
    assert len((tmp_path / "view1.csv").read_text().splitlines()) == 60


def test_run_xor_comparison_writes_report(tmp_path):
    done = run_script(
        "run_xor_comparison.py", "--repeats", 1, "--per-class", 20, "--per-class-train", 8,
        "--per-class-val", 3, "--out", tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "report.json").exists()


def test_run_xor_comparison_has_no_threads_flag(tmp_path):
    done = run_script("run_xor_comparison.py", "--threads", 2, "--out", tmp_path)
    assert done.returncode == 2
    assert "--threads" in done.stderr


def test_convergence_sweep_runs_one_case():
    # the smallest case, one that completes; the full 12-case sweep is no gate (README)
    done = run_script("convergence_sweep.py", "--m", 180, "--seeds", 1)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "m,seed,outcome,fitness_failures,wall_s"
    assert lines[1].startswith("180,1,ok,0,") and lines[2] == "aborted 0 of 1"
