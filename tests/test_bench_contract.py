"""The benchmark's calls still bind: one traced round of two perfbench workloads.

A traced run wraps padnet's public functions and binds their arguments by
name, so renaming or dropping a parameter the benchmark uses fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["path-chain", "grid-padding"])
def test_traced_round_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert "run unwrapped: []" in lines
