import dataclasses
import hashlib
import json
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
from conftest import BuiltPipeline, built
from fixtures import acceptance_fixtures, decimal_weight_fixture, partial_ktree_fixture

import padnet.decomposition
import padnet.verify as verify
from padnet.covers import build_partition_cover, build_sparse_cover
from padnet.graph import parse_edge_list
from padnet.trees import load_tree_decomposition, td_to_tree_partition
from padnet.verify import OracleCapError, full_report, verify_cover, verify_embedding, verify_net

CATALOG = [
    # graph-core (the kernel's own properties are tests in test_graph.py)
    "dijkstra-floyd-warshall-agreement",
    # conversion
    "host-bags-partition",
    "host-edge-validity",
    "isometry-exact",
    "copy-zero-distance",
    "width-preserved",
    # core carving
    "cores-cover-all-vertices",
    "core-members-in-center-subtree",
    "core-members-in-support",
    "core-centers-in-center-bag",
    "core-ball-replay",
    "same-rank-cores-disjoint",
    "round-count-bound",
    "per-vertex-core-bound",
    "per-bag-core-bound",
    "noncenter-rank-drop",
    "attachments-descendant-only",
    "component-clusters-laminar",
    # net
    "order-valid-for-edges",
    "connected-subset-unique-maximum",
    "net-distance-oracle-agreement",
    "net-covering",
    "net-packing-2delta",
    "net-packing-3delta",
    "net-packing-alpha-delta",
    # decomposition
    "partition-total-disjoint",
    "partition-weak-diameter",
    "partition-radius-range",
    "partition-replay-identical",
    "sampler-ks",
    # covers
    "cover-every-vertex-covered",
    "cover-sparsity-vs-packing",
    "cover-strong-diameter",
    "cover-ball-containment",
    "partition-cover-partitions-valid",
    "partition-cover-count",
    "partition-cover-diameter",
    "partition-cover-ball-containment",
]


def test_full_report_enumerates_every_check_once():
    fixture = next(f for f in acceptance_fixtures() if f.name == "cycle-16")
    report = full_report(
        fixture.graph,
        fixture.td,
        fixture.delta,
        trials=500,
        oracle_cap=200,
    )
    assert report.ok, report.format_table()
    counts = Counter(c.name for c in report.checks)
    for name in CATALOG:
        assert counts[name] == 1, (name, counts[name])
    gammas = [n for n in counts if n.startswith("padding-lcb-gamma-")]
    assert len(gammas) == 3
    assert set(counts) == set(CATALOG) | set(gammas)
    table = report.format_table()
    assert "net-covering" in table and "pass" in table


# --- one oracle pass per report -------------------------------------------------


def test_one_host_oracle_pass_per_report(monkeypatch):
    f = partial_ktree_fixture(35, 2, seed=12, drop=0.4, delta=1.0)
    b = BuiltPipeline(f)  # not cached: the registry's sp-35d has another delta
    host_n = b.host.n
    calls = Counter()
    inside_center_rows = False
    oracle, center_rows = verify.oracle_all_pairs, verify._oracle_center_distances

    def counting_oracle(g, restrict):
        if g.n == host_n and len(restrict) == host_n and not inside_center_rows:
            calls["host oracle"] += 1
        return oracle(g, restrict)

    def counting_center_rows(*args):
        nonlocal inside_center_rows
        calls["center rows"] += 1
        inside_center_rows = True
        try:
            return center_rows(*args)
        finally:
            inside_center_rows = False

    def refuse(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} called")

        return fail

    monkeypatch.setattr(verify, "oracle_all_pairs", counting_oracle)
    monkeypatch.setattr(verify, "_oracle_center_distances", counting_center_rows)
    monkeypatch.setattr(padnet.decomposition, "ball_pairs", refuse("ball_pairs"))
    # no cover cluster spans the host, so the embedding check's is the only
    # whole-host call outside the center rows
    cover_clusters = [c.members for c in build_sparse_cover(b.host, b.net, f.delta).clusters]
    cover_clusters += [
        c.members for part in build_partition_cover(b.host, b.net, f.delta).partitions for c in part
    ]
    assert max(len(m) for m in cover_clusters) < host_n

    report = full_report(f.graph, f.td, f.delta, trials=200, oracle_cap=host_n)
    assert report.ok, report.format_table()
    assert calls == {"host oracle": 1, "center rows": 1}


def test_report_builds_each_structure_once(monkeypatch):
    # one carving, one order and one oracle matrix each of g and of the host;
    # every other oracle run is a cover cluster's
    f = partial_ktree_fixture(35, 2, seed=12, drop=0.4, delta=1.0)
    b = BuiltPipeline(f)
    calls = Counter()
    runs = Counter()

    def counting(name):
        fn = getattr(verify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(verify, name, wrapper)

    counting("construct_cores_trace")
    counting("semi_to_tree_order")
    oracle = verify.oracle_all_pairs

    def recording_oracle(g, restrict):
        runs["g" if g is f.graph else "host", tuple(sorted(restrict))] += 1
        return oracle(g, restrict)

    monkeypatch.setattr(verify, "oracle_all_pairs", recording_oracle)
    sparse = [tuple(sorted(c.members)) for c in build_sparse_cover(b.host, b.net, f.delta).clusters]
    partitions = build_partition_cover(b.host, b.net, f.delta).partitions
    partition = [tuple(sorted(c.members)) for c in chain(*partitions)]
    assert set(sparse) & set(partition)  # the covers share clusters, and one run each
    report = full_report(f.graph, f.td, f.delta, trials=200, oracle_cap=b.host.n)
    assert report.ok, report.format_table()
    assert calls == {"construct_cores_trace": 1, "semi_to_tree_order": 1}
    whole = {("g", tuple(range(f.graph.n))): 1, ("host", tuple(range(b.host.n))): 1}
    clusters = {m for m in sparse + partition if len(m) > 1}
    assert runs == Counter({**whole, **{("host", m): 1 for m in clusters}})


@pytest.mark.parametrize("cap", [0, -3])
def test_oracle_cap_below_one_rejected_before_any_check(monkeypatch, cap):
    f = next(f for f in acceptance_fixtures() if f.name == "path-8")

    def fail(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_graph_property_checks", fail)
    with pytest.raises(ValueError, match=f"oracle_cap must be >= 1, got {cap}"):
        full_report(f.graph, f.td, f.delta, trials=10, oracle_cap=cap)


@pytest.mark.parametrize("over", ["graph", "host"])
def test_over_cap_input_refused_before_any_check(monkeypatch, over):
    # every oracle run is on g, its host or an induced subgraph of one, so both
    # entry points refuse by those two sizes, g's first, before anything runs
    f = next(f for f in acceptance_fixtures() if f.name == "cycle-16")
    emb = td_to_tree_partition(f.graph, f.td)
    assert emb.host.n > f.graph.n
    cap, named = (f.graph.n - 1, f.graph.n) if over == "graph" else (f.graph.n, emb.host.n)

    def fail(*args, **kwargs):
        raise AssertionError("a check or an oracle run happened")

    for name in ("oracle_all_pairs", "_graph_property_checks", "_embedding_checks"):
        monkeypatch.setattr(verify, name, fail)
    message = f"^oracle cap {cap} exceeded: \\|restrict\\| = {named}$"
    with pytest.raises(OracleCapError, match=message):
        full_report(f.graph, f.td, f.delta, trials=10, oracle_cap=cap)
    with pytest.raises(OracleCapError, match=message):
        verify_embedding(f.graph, f.td, emb, oracle_cap=cap)


def test_seed_sweep_past_64_bits_rejected_before_any_check(monkeypatch):
    f = next(f for f in acceptance_fixtures() if f.name == "path-8")

    def fail(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_graph_property_checks", fail)
    seed = 2**64 - 99
    with pytest.raises(ValueError, match=f"^seed {seed}: its 100-seed partition sweep runs past"):
        full_report(f.graph, f.td, f.delta, trials=10, seed=seed)


@pytest.mark.parametrize("trials", [0, -5])
def test_trials_below_one_rejected_before_any_check(monkeypatch, trials):
    f = next(f for f in acceptance_fixtures() if f.name == "path-8")

    def fail(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_graph_property_checks", fail)
    with pytest.raises(ValueError, match=f"^trials must be >= 1, got {trials}$"):
        full_report(f.graph, f.td, f.delta, trials=trials)


def test_kernel_helpers_imported_only_for_the_tracer(monkeypatch):
    # verify keeps these names only so that perfbench's tracer can wrap them;
    # the report calls none of them
    f = next(f for f in acceptance_fixtures() if f.name == "cycle-16")

    def fail(*args, **kwargs):
        raise AssertionError("a kernel helper was called")

    for name in ("ball", "strong_diameter", "weak_diameter"):
        monkeypatch.setattr(verify, name, fail)
    report = full_report(f.graph, f.td, f.delta, trials=200, oracle_cap=200)
    assert report.ok, report.format_table()


def test_standalone_checks_keep_no_state_between_graphs():
    a = built(next(f for f in acceptance_fixtures() if f.name == "path-30"))
    other = partial_ktree_fixture(20, 2, seed=11, drop=0.3, delta=2.0)
    cover = build_sparse_cover(a.host, a.net, a.delta)
    pcover = build_partition_cover(a.host, a.net, a.delta)

    def standalone():
        dist = a.host_dist
        return [
            verify_net(a.host, a.net, a.delta, dist, a.center_dist).to_json_dict(),
            verify_cover(a.host, cover, 3.0, a.delta, dist).to_json_dict(),
            verify_cover(a.host, pcover, 3.0, a.delta, dist, tau=a.net.tau_emp).to_json_dict(),
        ]

    before = standalone()
    assert all(r["ok"] for r in before)
    full_report(other.graph, other.td, other.delta, trials=200, oracle_cap=1000)
    assert standalone() == before


# --- the report's bytes ---------------------------------------------------------

PINNED_REPORTS = {
    # sha256 of each report's canonical JSON.  They were taken while the sweep
    # and the padding counts still read Dijkstra rows, so they also show that
    # reading the oracle matrix instead changed no byte, decimal weights
    # included.  The decimal-weight reports were re-taken when the oracle's
    # center rows moved to Bellman-Ford, which sums each path in path order as
    # Dijkstra does: net-distance-oracle-agreement turned from fail to pass
    # there, and no other byte changed.  All six were re-taken when the three
    # kernel self-tests left the report, and again when the carving and order
    # reruns left it and dijkstra-floyd-warshall-agreement came to read g's
    # whole oracle matrix: each report lost those entries, and on decimal
    # weights the agreement check still fails, now naming source 0
    ("sp-20d", 0): "47ab8147f88cc0a99c872c0ab81e84e2278f09c98b8f1286f39432619a379da2",
    ("sp-20d", 1): "8ac19fa8026a488af23ddea29a13816c5b7bb3bbc91c7fa5f3ec2f0f1becdf14",
    ("sp-50w", 0): "c4742f4c355877291bb4f459cab9fa05205a6763cff6e18229faed213332f6e1",
    ("sp-50w", 1): "cbece8b169acabfd73260d89540f96b21ce18f1dca32fef395d7e2d092c21dee",
    ("ktree3-30-dec", 0): "0a00aa8c56c55259abb68c598e300952595a84c01a0e9643e8011e4005f9b171",
    ("ktree3-30-dec", 1): "16963c39d8cc486eeb0c1e28203e501fb81c25a3996fdb2b79810e5c4308b3d7",
}


def _pinned_fixtures():
    return {
        f.name: f
        for f in [
            partial_ktree_fixture(20, 2, seed=11, drop=0.3, delta=2.0),
            partial_ktree_fixture(50, 2, seed=13, drop=0.2, weighted=True, delta=8.0),
            decimal_weight_fixture(partial_ktree_fixture(30, 3, seed=21, delta=1.0), seed=4),
        ]
    }


@pytest.mark.parametrize("name,seed", sorted(PINNED_REPORTS))
def test_full_report_bytes_pinned(name, seed):
    f = _pinned_fixtures()[name]
    report = full_report(f.graph, f.td, f.delta, seed=seed, trials=500, oracle_cap=1000)
    blob = json.dumps(report.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_REPORTS[(name, seed)]


# --- the partition sweep --------------------------------------------------------


def test_sweep_checks_report_their_own_failures(monkeypatch):
    data = Path(__file__).resolve().parents[1] / "data"
    g = parse_edge_list((data / "grid4.gr").read_text())
    td = load_tree_decomposition((data / "grid4.td").read_text(), g)
    sample = verify.sample_padded_decompositions

    def out_of_range_radii(*args):
        for part in sample(*args):
            yield dataclasses.replace(part, trace=tuple((x, 99.0) for x, _ in part.trace))

    monkeypatch.setattr(verify, "sample_padded_decompositions", out_of_range_radii)
    checks = {c.name: c for c in full_report(g, td, 2.0, seed=7, trials=200).checks}
    assert checks["partition-total-disjoint"].status == "pass"
    assert checks["partition-weak-diameter"].status == "pass"
    assert checks["partition-radius-range"].status == "fail"
    assert checks["partition-radius-range"].witness == "seed 7"
    # the seed-0 replay ran: the recorded radii rebuild another partition
    assert checks["partition-replay-identical"].status == "fail"
