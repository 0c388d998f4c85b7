"""The benchmark's calls still bind: one traced round of each perfbench workload.

A traced run wraps padnet's public functions and binds their arguments by
name, so renaming or dropping a parameter the benchmark uses fails here.
The rounds run in a temporary copy of `src/`, `perfbench/` and
BENCHMARK.json, so they leave the checkout's `.bench_out/` as it was.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory) -> Path:
    copy = tmp_path_factory.mktemp("bench")
    skip = shutil.ignore_patterns("__pycache__", ".bench_out")
    for tree in ("src", "perfbench"):
        shutil.copytree(ROOT / tree, copy / tree, ignore=skip)
    shutil.copy2(ROOT / "BENCHMARK.json", copy)
    return copy


def traced_round(copy: Path, workload: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=copy, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert "run unwrapped: []" in lines
    return lines, result


# per-layer counters a workload's trace must show: the padding counts still
# run the batch sampler chunk by chunk and list their ball pairs
LAYER_COUNTERS = {
    "path-chain": (),
    "grid-padding": ("decomposition.sample_assignments.chunks", "decomposition.ball_pairs"),
    "verify-mix": (),
}


# artifact hashes a workload's round must print: a change to the bytes of
# the padding counts fails here, not only in a benchmark run
ARTIFACTS = {
    "path-chain": (),
    "grid-padding": (
        "artifact padding_counts: sha256 "
        "0295d74af71a558c5f7772a5dc9c02a4ef4090ad68771d729c8e8903453a164a (14499 bytes)",
    ),
    "verify-mix": (),
}


# verify-mix includes a decimal-weight instance: its report must pass too
@pytest.mark.parametrize("workload", sorted(LAYER_COUNTERS))
def test_traced_round_runs_clean(bench_copy, workload):
    lines, result = traced_round(bench_copy, workload)
    assert [line for line in lines if line.startswith("failed op ")] == []
    assert result["failed"] == 0
    for name in LAYER_COUNTERS[workload]:
        assert result["metrics"][name]["value"] > 0, name
    for line in ARTIFACTS[workload]:
        assert line in lines
