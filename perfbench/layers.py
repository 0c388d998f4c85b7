"""Per-layer metrics of one traced round, named after padnet's modules.

Times come from spans (`.s` is the summed span duration, `.self_s` the
summed self time).  Counts come from span hooks or from the nets the
set-up built.  Over a workload's instances, counts, times and bytes are
summed; tau values, sparsity and resident-set growth take the maximum; ratios
are taken over the summed counts.  A layer the workload never calls reads 0;
times of layers that some workload never calls are printed but left out of
BENCHMARK.json, so that no reported time is a constant 0.

Metrics whose unit ends in `_computed` are derived from array shapes
(k * n * 8 bytes, r^3 Floyd-Warshall updates), not measured.
"""

from __future__ import annotations

from collections import defaultdict


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, rec, peaks, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the traced round, as name -> (value, unit)."""
    spans = tracer.spans
    selfs = tracer.self_times()
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def total(name):
        return sum(spans[i].duration for i in by_name[name])

    def self_total(name):
        return sum(selfs[i] for i in by_name[name])

    def attr(name, key, combine=sum):
        return combine([spans[i].attrs.get(key, 0) for i in by_name[name]] or [0])

    def under(name, parents):
        return [
            spans[i] for i in by_name[name]
            if spans[i].parent >= 0 and spans[spans[i].parent].name in parents
        ]

    facts = rec.facts.values()

    def fact(key, combine=sum):
        return combine([f[key] for f in facts] or [0])

    center_dijkstra = under("graph.shortest_paths", {"ordered_net.semi_to_tree_order"})
    # the all-pairs sweep: Dijkstra from every host vertex, run inside
    # padded_trial_counts, or by full_report before it hands the matrix over
    all_pairs = under(
        "graph.shortest_paths", {"decomposition.padded_trial_counts", "verify.full_report"}
    )
    pad = "decomposition.padded_trial_counts"
    chunks = "decomposition.sample_assignments"
    decomposition_spans = [i for i, s in enumerate(spans) if s.name.startswith("decomposition.")]
    return {
        "graph.parse_edge_list.s": (total("graph.parse_edge_list"), "s"),
        "graph.shortest_paths.calls": (len(by_name["graph.shortest_paths"]), "count"),
        "graph.shortest_paths.self_s": (self_total("graph.shortest_paths"), "s"),
        "graph.shortest_paths.settled": (attr("graph.shortest_paths", "settled"), "count"),
        "trees.load_tree_decomposition.s": (total("trees.load_tree_decomposition"), "s"),
        "trees.td_to_tree_partition.s": (total("trees.td_to_tree_partition"), "s"),
        "trees.host_blowup": (_ratio(fact("host_n"), fact("n")), "ratio"),
        "ordered_net.construct_cores_trace.s": (total("ordered_net.construct_cores_trace"), "s"),
        "ordered_net.construct_cores_trace.rounds": (fact("rounds"), "count"),
        "ordered_net.construct_cores_trace.cores": (fact("cores"), "count"),
        "ordered_net.semi_to_tree_order.self_s": (
            self_total("ordered_net.semi_to_tree_order"), "s"
        ),
        "ordered_net.center_dijkstra.s": (sum(s.duration for s in center_dijkstra), "s"),
        "ordered_net.center_table_bytes": (fact("center_table_bytes"), "B_computed"),
        "ordered_net.center_table_useful_ratio": (
            _ratio(fact("center_table_useful"), fact("center_table_finite")), "ratio"
        ),
        "ordered_net.net_size": (fact("net_size"), "count"),
        "ordered_net.tau_emp": (fact("tau_emp", max), "count"),
        "ordered_net.tau_bound": (fact("tau_bound", max), "count"),
        "decomposition.self_s": (sum(selfs[i] for i in decomposition_spans), "s"),
        "decomposition.sample_padded_decomposition.calls": (
            len(by_name["decomposition.sample_padded_decomposition"]), "count"
        ),
        "decomposition.sample_padded_decomposition.self_s": (
            self_total("decomposition.sample_padded_decomposition"), "s"
        ),
        "decomposition.all_pairs.s": (sum(s.duration for s in all_pairs), "s"),
        "decomposition.all_pairs_useful_ratio": (
            _ratio(attr(pad, "useful"), attr(pad, "entries")), "ratio"
        ),
        "decomposition.sample_assignments.s": (total(chunks), "s"),
        "decomposition.sample_assignments.chunks": (attr(chunks, "chunks"), "count"),
        "decomposition.padded_trial_counts.self_s": (self_total(pad), "s"),
        "decomposition.ball_pairs": (attr(pad, "ball_pairs"), "count"),
        "decomposition.dist_matrix_bytes": (attr(pad, "dist_matrix_bytes", max), "B_computed"),
        "decomposition.claimed_bytes": (attr(chunks, "claimed_bytes", max), "B_computed"),
        "covers.build_sparse_cover.s": (total("covers.build_sparse_cover"), "s"),
        "covers.build_partition_cover.s": (total("covers.build_partition_cover"), "s"),
        "covers.partitions": (attr("covers.build_partition_cover", "partitions"), "count"),
        "covers.sparsity": (attr("covers.build_sparse_cover", "sparsity", max), "count"),
        "verify.full_report.self_s": (self_total("verify.full_report"), "s"),
        "verify.oracle_all_pairs.calls": (len(by_name["verify.oracle_all_pairs"]), "count"),
        "verify.oracle_all_pairs.self_s": (self_total("verify.oracle_all_pairs"), "s"),
        "verify.oracle_all_pairs.ops": (attr("verify.oracle_all_pairs", "ops"), "ops_computed"),
        "verify.checks": (attr("verify.full_report", "checks"), "count"),
        "verify.checks_failed": (attr("verify.full_report", "checks_failed"), "count"),
        "cli.json_bytes": (rec.json_bytes, "B"),
        "cli.json_s": (rec.json_s, "s"),
        "ordered_net.build.rss_growth_mb": (
            peaks.get("ordered_net.build_tree_ordered_net", 0.0), "MiB"
        ),
        "decomposition.padded_trial_counts.rss_growth_mb": (peaks.get(pad, 0.0), "MiB"),
        "verify.full_report.rss_growth_mb": (peaks.get("verify.full_report", 0.0), "MiB"),
        "trace.overhead_s": (overhead_s, "s"),
    }
