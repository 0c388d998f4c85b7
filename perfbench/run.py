"""padnet benchmark: times the library from outside on seeded workloads.

    python3 perfbench/run.py --workload path-chain --seed 0 --seconds 30 --trace 0

Run from the root of a padnet checkout; the library is imported from its
`src/`.  With `--trace 0` the workload's rounds repeat for `--seconds` and
the end-to-end metrics are medians over them.  With `--trace 1` the run makes
one untraced round and one round with spans around padnet's functions (and
resident-set sampling around a few of them), and reports the per-layer
metrics plus the tracing overhead.  Metric names and units come from BENCHMARK.json.

End-to-end times are medians scaled to a fixed reference loop that runs
between the ops (see reference.py), because other tenants of a shared
machine change its speed from run to run.

The lines printed first are a readable report: environment, instance sizes,
a sha256 of every artifact's canonical JSON, failures, raw sample medians
and every metric.  The
last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Full results (and spans, when traced) are written to
`.bench_out/` in the checkout.  Everything runs in this one process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 2


def _import_padnet() -> None:
    package = SRC / "padnet"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a padnet checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import padnet

    if Path(padnet.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported padnet from {padnet.__file__}, not from {package}")


def _environment() -> dict:
    import numpy

    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = "absent"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy,
        "machine": platform.machine(),
    }


def _end_to_end(workload, insts, rec) -> tuple[float, float, dict]:
    """(setup_s, job_s, workload-specific figures) from a recorder's samples:
    the median set-up of each instance, summed, and the job's figures, all
    in seconds at reference speed."""
    setup_s = sum(rec.at_reference(f"setup:{inst.name}") for inst in insts)
    named = workload.summary(rec, insts)
    return setup_s, named["job_s"][0], named


def timed_run(workload, insts, seed: int, seconds: float):
    import workloads

    rec = workloads.Recorder()
    start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        workloads.run_round(workload, insts, seed, rec)
        rounds += 1
        now = time.perf_counter()
        # at least two rounds, then none that would end past the deadline
        if rounds >= MIN_ROUNDS and now - start + (now - t0) > seconds:
            break
    setup_s, job_s, named = _end_to_end(workload, insts, rec)
    values = {
        "setup_s": (setup_s, "s"),
        "job_s": (job_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    named["failure_rate"] = (rec.failed / rec.attempted, "ratio")
    return [rec], values, {"rounds": rounds, "wall_s": time.perf_counter() - start, "named": named}


def traced_run(workload, insts, seed: int):
    import layers
    import tracing
    import workloads

    round_s = {}

    def timed_round(label, rec, **kw):
        t0 = time.perf_counter()
        workloads.run_round(workload, insts, seed, rec, **kw)
        round_s[label] = time.perf_counter() - t0

    # set-up runs once per round here, so that the spans describe one round
    base = workloads.Recorder()
    timed_round("untraced", base, setup_budget_s=0.0)
    traced = workloads.Recorder()
    with tracing.Tracer() as tracer, tracing.RssPeaks() as peaks:
        traced.tracer = tracer
        timed_round("traced", traced, setup_budget_s=0.0)
    traced.tracer = None

    untraced_s = sum(_end_to_end(workload, insts, base)[:2])
    traced_s = sum(_end_to_end(workload, insts, traced)[:2])
    values = layers.per_layer(tracer, traced, peaks.growth_mib, traced_s - untraced_s)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{seed}-spans.jsonl"
    tracer.write_jsonl(spans_path)
    extra = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "round_s": round_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "unwrapped": sorted(set(tracer.missing + peaks.missing)),
    }
    return [base, traced], values, extra


def _merge(recs) -> tuple[bool, int, int, list[str], dict]:
    """Totals over the rounds' recorders; artifacts must agree between them."""
    correct = all(r.correct for r in recs)
    failures = [f for r in recs for f in r.failures]
    artifacts = dict(recs[0].artifacts)
    for r in recs[1:]:
        for label, seen in r.artifacts.items():
            if artifacts.setdefault(label, seen) != seen:
                correct = False
                failures.append(f"{label}: differs between rounds")
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    return correct, attempted, failed, failures, artifacts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_padnet()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = _environment()
    insts = workload.instances(args.seed)

    if args.trace:
        recs, values, extra = traced_run(workload, insts, args.seed)
        wanted = spec["per_layer"]
    else:
        recs, values, extra = timed_run(workload, insts, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    correct, attempted, failed, failures, artifacts = _merge(recs)
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted}

    print(f"padnet benchmark: workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, facts in recs[0].facts.items():
        print(f"instance {name}: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    for label, (digest, size) in artifacts.items():
        print(f"artifact {label}: sha256 {digest} ({size} bytes)")
    for line in failures:
        print(f"failed op {line}")
    for key, samples in sorted(recs[0].samples.items()):
        print(
            f"samples {key}: {len(samples)}, min {min(samples):.6g} s, "
            f"median {recs[0].median(key):.6g} s, max {max(samples):.6g} s"
        )
    ref = recs[0].reference
    print(
        f"reference loop: {len(ref)} passes, median {statistics.median(ref) * 1e3:.4g} ms; "
        f"times below are scaled by {recs[0].speed_scale():.4g} to reference speed"
    )
    for name, (value, unit) in extra.get("named", {}).items():
        print(f"figure {name} = {value:.6g} {unit}")
    for k, v in extra.items():
        if k != "named":
            print(f"run {k}: {v}")
    for name, (value, unit) in values.items():
        kind = "computed" if unit.endswith("_computed") else "measured"
        where = "" if name in metrics else ", printed only"
        print(f"metric {name} = {value:.6g} {unit} ({kind}{where})")
    print(f"ops: {attempted} attempted, {failed} failed, correct {correct}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "instances": recs[0].facts,
        "samples": recs[0].samples,
        "artifacts": {k: v[0] for k, v in artifacts.items()}, "failures": failures,
        "extra": extra, "values": values, "result": result,
    }, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
