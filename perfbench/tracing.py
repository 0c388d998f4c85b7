"""Outside-in tracing: spans around padnet's public functions.

padnet has no instrumentation of its own, so the traced run replaces module
attributes with timing wrappers.  A module that did `from .graph import
shortest_paths` holds its own binding, so each binding is wrapped where it
lives (`padnet.ordered_net.shortest_paths`, `padnet.verify.shortest_paths`,
...), not only the definition in `padnet.graph`.  Bindings are restored when
the tracer exits.

Every call becomes a span (name, start, end, parent span, op id) kept in
memory; `write_jsonl` dumps them when the run ends.  A span's self time is
its duration minus the durations of its direct child spans.  Hooks attach
counts to a span from the call's arguments and result; they run outside the
span, and their time is kept out of the parent's self time too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np
from padnet.decomposition import DecompositionParams

# module -> bindings to wrap.  A binding missing from the module (renamed or
# removed by a later change) is skipped and reported, not treated as an error.
TARGETS = {
    "padnet.graph": [
        "parse_edge_list", "shortest_paths", "ball", "weak_diameter", "strong_diameter",
    ],
    "padnet.trees": ["load_tree_decomposition", "td_to_tree_partition"],
    "padnet.ordered_net": [
        "shortest_paths", "construct_cores_trace", "build_semi_tree_order",
        "semi_to_tree_order", "build_tree_ordered_net",
    ],
    "padnet.decomposition": [
        "sample_padded_decomposition", "replay_decomposition", "sample_assignments",
        "padded_trial_counts",
    ],
    "padnet.covers": ["build_sparse_cover", "build_partition_cover"],
    "padnet.verify": [
        "shortest_paths", "ball", "weak_diameter", "strong_diameter", "oracle_all_pairs",
        "construct_cores_trace", "build_semi_tree_order", "semi_to_tree_order",
        "sample_padded_decomposition", "replay_decomposition", "padded_trial_counts",
        "verify_embedding", "verify_cores", "verify_net", "verify_partition", "verify_cover",
        "sampler_ks_check", "full_report",
        # private, wrapped only so that its Dijkstra calls are not mistaken
        # for the all-pairs sweep that full_report runs directly
        "_graph_property_checks",
    ],
}


@dataclass
class Span:
    name: str  # defining module (without "padnet.") and function name
    site: str  # module whose binding was called
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: int
    attrs: dict = field(default_factory=dict)
    hook_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _span_name(fn) -> str:
    return fn.__module__.removeprefix("padnet.") + "." + fn.__name__


class _Patches:
    """Replaces module attributes and puts the originals back on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def patch(self, targets: dict[str, list[str]], make_wrapper) -> None:
        for module_name, attrs in targets.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, make_wrapper(module_name, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


class Tracer:
    """Records one span per call of every wrapped binding.

    Use as a context manager; set `op` to tag the spans of each benchmark op.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches = _Patches()
        self.missing = self._patches.missing

    def __enter__(self) -> "Tracer":
        self._patches.patch(TARGETS, self._wrap)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def parent_of(self, span: Span) -> Span | None:
        return self.spans[span.parent] if span.parent >= 0 else None

    def _wrap(self, site: str, fn):
        name = _span_name(fn)
        before, after = _HOOKS.get(name, (None, None))
        signature = inspect.signature(fn)
        site = site.removeprefix("padnet.")

        def call(call_fn, args, kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, site, 0.0, 0.0, parent, self.op)
            bound = None
            if before or after:
                t0 = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if before:
                    before(self, span, bound.arguments)
                span.hook_s = time.perf_counter() - t0
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = call_fn()
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after:
                after(self, span, bound.arguments, result)
                span.hook_s += time.perf_counter() - span.end
            return result

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so a chunk is timed when it is produced
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    try:
                        item = call(lambda: next(gen), args, kwargs)
                    except StopIteration:
                        return
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(lambda: fn(*args, **kwargs), args, kwargs)

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's, hooks excluded."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration + s.hook_s
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "site": s.site, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "attrs": s.attrs,
                }) + "\n")


# --------------------------------------------------------------------------
# hooks: counts attached to spans, computed from arguments and results.  A
# hook's own time is kept out of every span's self time.


def _count_ball_entries(span, dist: np.ndarray) -> None:
    *radii, useful_radius = span.attrs["radii"]
    span.attrs["ball_pairs"] += sum(int((dist <= r).sum()) for r in radii)
    span.attrs["useful"] += int((dist <= useful_radius).sum())
    span.attrs["entries"] += int(dist.size)


def _padded_trial_counts_before(tracer, span, args):
    # ball radii: one per gamma, then gamma_max's for the useful share
    params = DecompositionParams.from_net(args["net"], args["delta"])
    radii = [gm * params.diameter_bound for gm in args["gammas"]]
    radii.append(params.gamma_max * params.diameter_bound)
    span.attrs.update(radii=radii, ball_pairs=0, useful=0, entries=0)
    if args["dist_matrix"] is not None:
        _count_ball_entries(span, args["dist_matrix"])
    # otherwise its own Dijkstra rows are counted as they return


def _padded_trial_counts_after(tracer, span, args, result):
    n = args["g"].n
    span.attrs["dist_matrix_bytes"] = n * n * 8  # computed: the (n, n) float64 matrix


def _sample_assignments_after(tracer, span, args, block):
    # one span per chunk; computed: the (centers, n, chunk) bool tensor
    # behind a (chunk, n) block of assignments
    chunk, n = block.shape
    span.attrs["chunks"] = 1
    span.attrs["claimed_bytes"] = len(args["net"].centers_in_order()) * n * chunk


def _shortest_paths_after(tracer, span, args, result):
    span.attrs["settled"] = int(np.isfinite(result).sum())
    parent = tracer.parent_of(span)
    if parent is not None and parent.name == "decomposition.padded_trial_counts":
        _count_ball_entries(parent, result)


def _oracle_all_pairs_after(tracer, span, args, result):
    r = len(args["restrict"])
    span.attrs["ops"] = r**3  # computed: the Floyd-Warshall recurrence's r^3 updates


def _full_report_after(tracer, span, args, result):
    span.attrs["checks"] = len(result.checks)
    span.attrs["checks_failed"] = sum(c.status == "fail" for c in result.checks)


_HOOKS = {
    "graph.shortest_paths": (None, _shortest_paths_after),
    "decomposition.padded_trial_counts": (
        _padded_trial_counts_before, _padded_trial_counts_after
    ),
    "decomposition.sample_assignments": (None, _sample_assignments_after),
    "verify.oracle_all_pairs": (None, _oracle_all_pairs_after),
    "verify.full_report": (None, _full_report_after),
    "covers.build_sparse_cover": (None, lambda t, s, a, r: s.attrs.update(sparsity=r.sparsity)),
    "covers.build_partition_cover": (
        None, lambda t, s, a, r: s.attrs.update(partitions=len(r.partitions))
    ),
}


# --------------------------------------------------------------------------
# memory: resident-set growth per call


PEAK_TARGETS = {
    "padnet.ordered_net": ["build_tree_ordered_net"],
    "padnet.decomposition": ["padded_trial_counts"],
    "padnet.verify": ["padded_trial_counts", "full_report"],
}


class RssPeaks:
    """Peak resident-set growth per wrapped call, sampled by one thread.

    tracemalloc would count allocations exactly, but it tracks every numpy
    scalar that padnet's Dijkstra loops create and slows them 20-30x, which
    does not fit a run's time budget.  Instead one thread reads
    /proc/self/statm every INTERVAL_S seconds; a call's figure is the highest
    reading during the call minus the reading at its start.  Memory that the
    allocator kept from earlier calls is reused without growth, so the figure
    is a lower bound on what the call allocated.  Calls may nest
    (full_report calls padded_trial_counts); each open call sees every sample.
    """

    INTERVAL_S = 0.002

    def __init__(self):
        self.growth_mib: dict[str, float] = {}
        self._open: list[list] = []  # [base bytes, highest bytes seen]
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._fd = -1
        self._patches = _Patches()
        self.missing = self._patches.missing

    def _rss(self) -> int:
        return int(os.pread(self._fd, 64, 0).split()[1]) * self._page

    def _sample(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            rss = self._rss()
            with self._lock:
                for frame in self._open:
                    frame[1] = max(frame[1], rss)

    def __enter__(self) -> "RssPeaks":
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._patches.patch(PEAK_TARGETS, self._wrap)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._patches.restore()
        os.close(self._fd)

    def _wrap(self, site: str, fn):
        name = _span_name(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rss = self._rss()
            frame = [rss, rss]
            with self._lock:
                self._open.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                rss = self._rss()
                with self._lock:
                    self._open.remove(frame)
                mib = (max(frame[1], rss) - frame[0]) / 2**20
                self.growth_mib[name] = max(self.growth_mib.get(name, 0.0), mib)

        return wrapper
