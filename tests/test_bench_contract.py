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


# artifact hashes a workload's round must print: a change to the bytes of a
# sampled partition, a cover, a report or the padding counts fails here, not
# only in a benchmark run
ARTIFACTS = {
    "path-chain": (
        "artifact decompose/seed-0: sha256 "
        "fe2acfb9d4b9bbd651de5d315f9c41ad0d13e95f465480e5e728682b60a73699 (109755 bytes)",
        "artifact decompose/seed-49: sha256 "
        "5d96bb1ece393f6b8e09297495cfc379a6863861f471bd3330d137d915579eb8 (109461 bytes)",
        "artifact sparse_cover: sha256 "
        "9f50f4a30bcc395dcbf06a7ae72039617cd18fc5d98cf82d8705e888743077af (102274 bytes)",
        "artifact partition_cover: sha256 "
        "46957d273aae5af81c63ec8aebcee6eee79e2433765d95ba9b5aaa4ecec3867c (541903 bytes)",
    ),
    "grid-padding": (
        "artifact padding_counts: sha256 "
        "29d20ec0329df542fa4bda6873a83176bee7c101daa8b07e056962d3a766bf9f (14499 bytes)",
    ),
    "verify-mix": (
        "artifact verify/ktree3-50-drop25: sha256 "
        "75a2f7010f2885f235f04be0c7b61a2166a0912349a9efefc9162ca796ceb6a9 (5720 bytes)",
        "artifact verify/ktree4-30-drop20: sha256 "
        "a922271305c31390aa88c66ba83fa970ce5bbf2c8bd163bc006b2740fe80ddbb (5718 bytes)",
        "artifact verify/sp-40-int7: sha256 "
        "6a4dd7aea573c7f76de0eba2fe5ca3aea1aad2f38a7e6b37ef1ed609966d6eff (5717 bytes)",
        "artifact verify/ktree3-50-dec: sha256 "
        "9d854ab26a6f953c1e64eb4242a808b770a10bc6c6d827c775f30bb4606d4abf (5718 bytes)",
    ),
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
