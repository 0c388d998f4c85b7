"""The three workloads: their inputs, their ops and how each op is checked.

A round runs a workload once: set-up of every instance (from text to a net),
then the workload's job.  `Recorder` times each op, checks its result outside
the timed region, hashes its canonical JSON and counts attempts and failures.

padnet's modules are reached through their module objects at call time, so
the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np
from padnet import covers, decomposition, graph, ordered_net, trees, verify

import checks
import inputs
import reference

ALPHA = 3.0
REFERENCE_EVERY_S = 0.5
REFERENCE_PASSES = 3


class Recorder:
    """Times, checks and counts the ops of one or more rounds."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: list[str] = []
        self.artifacts: dict[str, tuple[str, int]] = {}  # label -> (sha256, bytes)
        self.json_s = 0.0
        self.json_bytes = 0
        self.facts: dict[str, dict] = {}  # instance name -> sizes and net counts
        self.reference: list[float] = []  # passes of the reference loop
        self._next_reference = 0.0
        self.tracer = None

    def _sample_speed(self) -> None:
        """Between ops, every REFERENCE_EVERY_S, time a few reference passes."""
        if time.perf_counter() >= self._next_reference:
            self.reference.extend(reference.measure() for _ in range(REFERENCE_PASSES))
            self._next_reference = time.perf_counter() + REFERENCE_EVERY_S

    def run(self, key: str, fn: Callable, check=None, artifacts=None):
        """One op: time fn(), then check its result and hash its artifacts."""
        self._sample_speed()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.fail(key, f"raised {exc!r}", structural=True)
            return None
        self.samples[key].append(time.perf_counter() - t0)
        try:
            problems = check(result) if check else []
            for label, payload in artifacts(result) if artifacts else []:
                self._hash(label, payload, problems)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            problems = [f"check raised {exc!r}"]
        if problems:
            self.fail(key, "; ".join(problems), structural=True)
        return result

    def repeat(self, key: str, fn: Callable, budget_s: float) -> None:
        """Extra timing samples of an op that already ran once this round."""
        spent = self.samples[key][-1]
        while spent < budget_s:
            self._sample_speed()
            t0 = time.perf_counter()
            try:
                fn()
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                self.fail(key, f"raised {exc!r} on a repeat", structural=True)
                return
            dt = time.perf_counter() - t0
            self.samples[key].append(dt)
            spent += dt

    def fail(self, key: str, reason: str, structural: bool = False) -> None:
        """Count a failed op; a structural failure also makes the run incorrect."""
        self.failed += 1
        self.correct = self.correct and not structural
        self.failures.append(f"{key}: {reason}")

    def _hash(self, label: str, payload: dict, problems: list[str]) -> None:
        # serialized as the CLI does (indent 2, sorted keys), so a change to
        # an artifact's bytes between two commits changes its hash
        t0 = time.perf_counter()
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        self.json_s += time.perf_counter() - t0
        data = text.encode()
        self.json_bytes += len(data)
        digest = hashlib.sha256(data).hexdigest()
        seen = self.artifacts.setdefault(label, (digest, len(data)))
        if seen[0] != digest:
            problems.append(f"{label} differs between rounds")

    def median(self, key: str) -> float:
        return statistics.median(self.samples[key])

    def speed_scale(self) -> float:
        """Factor from this run's times to seconds at reference speed."""
        return reference.REF_S / statistics.median(self.reference)

    def at_reference(self, key: str) -> float:
        """Median time of an op, in seconds at reference speed."""
        return self.median(key) * self.speed_scale()


@dataclass(frozen=True)
class Built:
    inst: inputs.Instance
    g: object
    td: object
    emb: object
    net: object


def setup(inst: inputs.Instance) -> Built:
    """From input text to a usable net: the fixed cost of every CLI command."""
    g = graph.parse_edge_list(inst.gr)
    td = trees.load_tree_decomposition(inst.td, g)
    emb = trees.td_to_tree_partition(g, td)
    net = ordered_net.build_tree_ordered_net(emb.host, emb.tree_partition, inst.delta, alpha=ALPHA)
    return Built(inst, g, td, emb, net)


def net_facts(b: Built) -> dict:
    """Sizes and counts of one instance's net, read from the built objects."""
    net = b.net
    table = net.center_distance_matrix()
    finite = np.isfinite(table)
    return {
        "n": b.g.n,
        "m": b.g.m,
        "host_n": b.emb.host.n,
        "host_m": b.emb.host.m,
        "delta": b.inst.delta,
        "net_size": len(net.centers_in_order()),
        "rounds": max((c.rank for c in net.cores), default=0),
        "cores": len(net.cores),
        "tau_emp": net.tau_emp,
        "tau_bound": net.tau_bound,
        "center_table_bytes": table.shape[0] * table.shape[1] * 8,  # computed: k * n * 8
        "center_table_finite": int(finite.sum()),
        "center_table_useful": int((table <= net.alpha * net.delta).sum()),
    }


def run_round(
    workload: "Workload",
    insts: list[inputs.Instance],
    seed: int,
    rec: Recorder,
    setup_budget_s: float = 0.5,
):
    """Set up every instance, then run the job.

    Each instance's set-up repeats until it has taken its share of
    `setup_budget_s` this round, so that short set-ups get a steady median.
    """
    built = []
    for inst in insts:
        key = f"setup:{inst.name}"
        b = rec.run(key, lambda: setup(inst), artifacts=lambda b: [(f"net/{inst.name}", b.net.to_json_dict())])
        if b is None:
            continue
        rec.repeat(key, lambda: setup(inst), setup_budget_s / len(insts))
        rec.facts.setdefault(inst.name, net_facts(b))
        built.append(b)
    workload.job(rec, built, seed)


@dataclass(frozen=True)
class Workload:
    name: str
    instances: Callable[[int], list[inputs.Instance]]
    job: Callable[[Recorder, list[Built], int], None]
    # workload-specific end-to-end figures, plus "job_s": the job's wall
    # time, from the median of every op in the job, at reference speed
    summary: Callable[[Recorder, list[inputs.Instance]], dict[str, tuple[float, str]]]


# --------------------------------------------------------------------------
# path-chain: a long path with integer weights drawn from the seed.  About
# 620 net points over a thin host (2x blow-up) put nearly all the work into
# core carving, the restricted center Dijkstras, the dense k x n center
# table, the per-center Philox draws and the O(k^2) partition-cover scan.
# No all-pairs distance computation runs, so a faster all-pairs kernel
# should leave it flat.  600 vertices rather than 1200 keep the set-up and
# the partition cover near one second, so a run holds several samples of
# each.

PATH_N = 600
PATH_DELTA = 6.0
DECOMPOSITIONS = 50


def _path_job(rec: Recorder, built: list[Built], seed: int) -> None:
    for b in built:
        host, net, delta = b.emb.host, b.net, b.inst.delta
        # consecutive seeds, as `padnet decompose --trials N` draws them
        for s in range(seed, seed + DECOMPOSITIONS):
            rec.run(
                "decompose",
                lambda: decomposition.sample_padded_decomposition(host, net, delta, s),
                check=lambda p: checks.partition(p, host.n, delta, ALPHA),
                artifacts=lambda p: [(f"decompose/seed-{s}", p.to_json_dict())],
            )
        rec.run(
            "sparse_cover",
            lambda: covers.build_sparse_cover(host, net, delta),
            check=lambda c: checks.sparse_cover(c, host.n, net.tau_emp),
            artifacts=lambda c: [("sparse_cover", c.to_json_dict())],
        )
        rec.run(
            "partition_cover",
            lambda: covers.build_partition_cover(host, net, delta),
            check=lambda c: checks.partition_cover(c, host.n),
            artifacts=lambda c: [("partition_cover", c.to_json_dict())],
        )


def _path_summary(rec: Recorder, insts) -> dict:
    per_sample = rec.at_reference("decompose")
    covers_s = rec.at_reference("sparse_cover") + rec.at_reference("partition_cover")
    return {
        "decompose_per_s": (1.0 / per_sample, "1/s"),
        "covers_s": (covers_s, "s"),
        "job_s": (DECOMPOSITIONS * per_sample + covers_s, "s"),
    }


PATH_CHAIN = Workload(
    name="path-chain",
    instances=lambda seed: [inputs.weighted_path(PATH_N, seed, PATH_DELTA)],
    job=_path_job,
    summary=_path_summary,
)


# --------------------------------------------------------------------------
# grid-padding: copy expansion turns the 64 vertices of an 8 x 8 grid into
# a 504-vertex host full of zero-weight edges.  Unbounded all-pairs
# Dijkstra, the batch sampler and ball-pair counting dominate; carving (20
# net points) is negligible.  The grid is fixed; the seed drives the
# sampler.  A 12 x 12 grid at 4000 trials took 13 s per estimate and a
# 10 x 10 grid 4 s, too few samples a run for a steady median; this size
# takes about 1 s.

GRID_K = 8
GRID_DELTA = 4.0
PADDING_TRIALS = 2000


def _gammas(net, delta: float) -> list[float]:
    """The CLI's default gammas: gamma_max / 4, gamma_max / 2, gamma_max."""
    gmax = decomposition.DecompositionParams.from_net(net, delta).gamma_max
    return [gmax / 4, gmax / 2, gmax]


def _padding_job(rec: Recorder, built: list[Built], seed: int) -> None:
    for b in built:
        host, net, delta = b.emb.host, b.net, b.inst.delta
        gammas = _gammas(net, delta)
        rec.run(
            "padding",
            lambda: decomposition.padded_trial_counts(
                host, net, delta, gammas, PADDING_TRIALS, seed
            ),
            check=lambda c: checks.padding_counts(c, gammas, host.n, PADDING_TRIALS),
            artifacts=lambda c: [
                ("padding_counts", {repr(gm): c[float(gm)].tolist() for gm in gammas})
            ],
        )


def _padding_summary(rec: Recorder, insts) -> dict:
    wall = rec.at_reference("padding")
    return {"padding_trials_per_s": (PADDING_TRIALS / wall, "1/s"), "job_s": (wall, "s")}


GRID_PADDING = Workload(
    name="grid-padding",
    instances=lambda seed: [inputs.unit_grid(GRID_K, GRID_DELTA)],
    job=_padding_job,
    summary=_padding_summary,
)


# --------------------------------------------------------------------------
# verify-mix: the same layers at another shape, small hosts of 114-188
# vertices.  The work is per-call overhead, the Floyd-Warshall oracle, the
# 100-seed partition sweep and the padding counts.  The graphs are fixed,
# like the grid; the seed drives full_report's own sampling.  Graphs drawn
# per seed moved the verifier's work and peak memory by a quarter between
# seeds, because which bags share a vertex and which edges drop set how many
# close pairs the padding counts touch.  The last instance has decimal
# weights on which the verifier's exact float comparisons fail; it stays in
# so that the false failure shows in the failure count.

VERIFY_TRIALS = 1000


def _mix_instances(seed: int) -> list[inputs.Instance]:
    """The four graphs; they do not depend on the workload seed."""
    return [
        inputs.partial_ktree("ktree3-50-drop25", 50, 3, 1, 4.0, drop=0.25),
        inputs.partial_ktree("ktree4-30-drop20", 30, 4, 2, 2.0, drop=0.20),
        inputs.partial_ktree(
            "sp-40-int7", 40, 2, 3, 8.0, drop=0.20, weights=tuple(float(w) for w in range(1, 8))
        ),
        inputs.partial_ktree("ktree3-50-dec", 50, 3, 4, 1.0, weights=(0.1, 0.2, 0.3, 0.7)),
    ]


def _verify_job(rec: Recorder, built: list[Built], seed: int) -> None:
    for b in built:
        key = f"verify:{b.inst.name}"
        report = rec.run(
            key,
            lambda: verify.full_report(
                b.g, b.td, b.inst.delta, alpha=ALPHA, seed=seed, trials=VERIFY_TRIALS,
                oracle_cap=b.inst.host_n,
            ),
            artifacts=lambda r: [(f"verify/{b.inst.name}", r.to_json_dict())],
        )
        if report is not None and not report.ok:
            failing = ", ".join(c.name for c in report.checks if c.status == "fail")
            rec.fail(key, f"full_report not ok: {failing}")


def _verify_summary(rec: Recorder, insts) -> dict:
    verify_s = sum(rec.at_reference(f"verify:{inst.name}") for inst in insts)
    return {"verify_s": (verify_s, "s"), "job_s": (verify_s, "s")}


VERIFY_MIX = Workload(
    name="verify-mix",
    instances=_mix_instances,
    job=_verify_job,
    summary=_verify_summary,
)


WORKLOADS = {w.name: w for w in (PATH_CHAIN, GRID_PADDING, VERIFY_MIX)}
