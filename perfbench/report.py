"""Run every workload untraced and traced, one process at a time, and print
one table of all their metrics.

    python3 perfbench/report.py --seed 0 --seconds 30

Each workload runs in its own process (so `peak_rss_mb` is that workload's
alone): first `run.py --trace 0`, then `run.py --trace 1`.  The table lists
the end-to-end metrics, the workload-specific figures (decompose_per_s,
covers_s, padding_trials_per_s, verify_s, failure_rate), every per-layer
metric including the ones BENCHMARK.json leaves out, and the tracing
overhead, each with its unit.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"error: {workload} --trace {trace} exited {done.returncode}")
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            saved = json.loads(
                (ROOT / ".bench_out" / f"{workload}-seed{args.seed}-trace{trace}.json").read_text()
            )
            figures = {**saved["values"], **saved["extra"].get("named", {})}
            for name, (value, unit) in figures.items():
                rows.append((workload, trace, name, value, unit))
            rows.append((workload, trace, "ops_failed", result["failed"], f"of {result['attempted']}"))

    print(f"{'workload':<14} {'run':<8} {'metric':<50} {'value':>14}  unit")
    for workload, trace, name, value, unit in rows:
        kind = "traced" if trace else "untraced"
        print(f"{workload:<14} {kind:<8} {name:<50} {value:>14.6g}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
