"""Run each benchmark workload once, with no timed repeats, and require its
output checks to pass.  perfbench/run.py prints one JSON object as its last
line; a change that breaks what the benchmark checks (reports, rerun
determinism, the saved index, query answers) fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["xor-small", "wide-bank"])
def test_workload_runs_correctly(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, done.stdout[-2000:]
    assert last["failed"] == 0
