import dataclasses
import hashlib
import json
from collections import Counter
from itertools import chain
from pathlib import Path

import numpy as np
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
    # conversion (the kernel's own properties are tests in test_graph.py)
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
    # one carving, one order and one oracle matrix, the host's: the cover
    # diameters are certified from the center rows, with no run per cluster
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
    report = full_report(f.graph, f.td, f.delta, trials=200, oracle_cap=b.host.n)
    assert report.ok, report.format_table()
    assert calls == {"construct_cores_trace": 1, "semi_to_tree_order": 1}
    assert runs == Counter({("host", tuple(range(b.host.n))): 1})


@pytest.mark.parametrize("cap", [0, -3])
def test_oracle_cap_below_one_rejected_before_any_check(monkeypatch, cap):
    f = next(f for f in acceptance_fixtures() if f.name == "path-8")

    def fail(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_embedding_checks", fail)
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

    for name in ("oracle_all_pairs", "_edge_lists", "_bellman_ford_rows", "_embedding_checks"):
        monkeypatch.setattr(verify, name, fail)
    message = f"^oracle cap {cap} exceeded: \\|restrict\\| = {named}$"
    with pytest.raises(OracleCapError, match=message):
        full_report(f.graph, f.td, f.delta, trials=10, oracle_cap=cap)
    with pytest.raises(OracleCapError, match=message):
        verify_embedding(f.graph, f.td, emb, oracle_cap=cap)


def test_seed_past_64_bits_rejected_before_any_check(monkeypatch):
    f = next(f for f in acceptance_fixtures() if f.name == "path-8")

    def fail(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_embedding_checks", fail)
    with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {2**64}$"):
        full_report(f.graph, f.td, f.delta, trials=10, seed=2**64)


def test_negative_seed_refused_before_any_check(monkeypatch):
    f = next(f for f in acceptance_fixtures() if f.name == "path-8")

    def fail(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_embedding_checks", fail)
    with pytest.raises(ValueError, match=r"^seed must lie in \[0, 2\*\*64\), got -1$"):
        full_report(f.graph, f.td, f.delta, trials=10, seed=-1)


@pytest.mark.parametrize("trials", [0, -5])
def test_trials_below_one_rejected_before_any_check(monkeypatch, trials):
    f = next(f for f in acceptance_fixtures() if f.name == "path-8")

    def fail(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_embedding_checks", fail)
    with pytest.raises(ValueError, match=f"^trials must be >= 1, got {trials}$"):
        full_report(f.graph, f.td, f.delta, trials=trials)


def test_kernel_helpers_imported_only_for_the_tracer(monkeypatch):
    # verify keeps these names only so that perfbench's tracer can wrap them;
    # the report calls none of them
    f = next(f for f in acceptance_fixtures() if f.name == "cycle-16")

    def fail(*args, **kwargs):
        raise AssertionError("a kernel helper was called")

    for name in ("ball", "strong_diameter", "weak_diameter", "_graph_property_checks"):
        monkeypatch.setattr(verify, name, fail)
    report = full_report(f.graph, f.td, f.delta, trials=200, oracle_cap=200)
    assert report.ok, report.format_table()


def test_partition_cover_count_reads_the_oracle_packing_table(monkeypatch):
    # a net that overstates its packing value fails net-packing-alpha-delta, and
    # the partition count is still bounded by the oracle's alpha*delta maximum
    f = next(f for f in acceptance_fixtures() if f.name == "grid-5")
    build = verify.semi_to_tree_order
    true_tau = []

    def inflated(*args, **kwargs):
        net = build(*args, **kwargs)
        true_tau.append(net.tau_emp)
        net.tau_emp += 1
        return net

    monkeypatch.setattr(verify, "semi_to_tree_order", inflated)
    checks = {c.name: c for c in full_report(f.graph, f.td, f.delta, trials=200, oracle_cap=200).checks}
    assert checks["net-packing-alpha-delta"].status == "fail"
    assert checks["net-packing-alpha-delta"].measured == true_tau[0]
    assert checks["partition-cover-count"].bound == true_tau[0]


def test_standalone_checks_keep_no_state_between_graphs():
    a = built(next(f for f in acceptance_fixtures() if f.name == "path-30"))
    other = partial_ktree_fixture(20, 2, seed=11, drop=0.3, delta=2.0)
    cover = build_sparse_cover(a.host, a.net, a.delta)
    pcover = build_partition_cover(a.host, a.net, a.delta)

    def standalone():
        dist = a.host_dist
        return [
            verify_net(a.host, a.net, a.delta, a.center_dist).to_json_dict(),
            verify_cover(a.host, cover, 3.0, a.delta, dist, a.packing_counts, *a.rows).to_json_dict(),
            verify_cover(a.host, pcover, 3.0, a.delta, dist, a.packing_counts, *a.rows).to_json_dict(),
        ]

    before = standalone()
    assert all(r["ok"] for r in before)
    full_report(other.graph, other.td, other.delta, trials=200, oracle_cap=1000)
    assert standalone() == before


# --- padding entries at few trials ---------------------------------------------


@pytest.mark.parametrize(
    "trials, statuses", [(2, ["warn", "fail", "fail"]), (3, ["fail", "fail", "fail"])]
)
def test_padding_entry_warns_only_where_no_count_could_pass(monkeypatch, trials, statuses):
    # no trial pads any ball.  path8's targets are ~0.32, 0.1 and 0.01, and t
    # padded trials of t bound the rate at t / (t + z^2): 0.27 at t = 2 and
    # 0.36 at t = 3.  An entry no count could pass warns and names the trial
    # count that could; one that a count could pass fails
    data = Path(__file__).resolve().parents[1] / "data"
    g = parse_edge_list((data / "path8.gr").read_text())
    td = load_tree_decomposition((data / "path8.td").read_text(), g)

    def none_padded(host, net, delta, gammas, trials, seed, dist_matrix=None):
        return {gm: np.zeros(host.n, dtype=np.int64) for gm in gammas}

    monkeypatch.setattr(verify, "padded_trial_counts", none_padded)
    report = full_report(g, td, 2.0, trials=trials)
    padding = [c for c in report.checks if c.name.startswith("padding-lcb-gamma-")]
    assert [c.status for c in padding] == statuses
    assert padding[0].witness == (
        "vertex 0: no count of 2 trials reaches the target; 3 trials can"
        if trials == 2
        else "vertex 0"
    )
    assert [c.witness for c in padding[1:]] == ["vertex 0", "vertex 0"]
    assert not report.ok


# --- the report's bytes ---------------------------------------------------------

PINNED_REPORTS = {
    # sha256 of each report's canonical JSON at 500 trials.  The CLI goldens
    # pin `verify` on data/ alone; these pin it on partial k-trees with unit,
    # integer and decimal weights, so that a change moving any verdict,
    # measured value or witness of the report shows here, and is re-pinned
    # with its reason in CHANGES.md.  sp-20d, ktree3-30-dec and ktree3-250d-dec
    # read the same at every seed (every trial pads every ball), so they are
    # pinned at one; sp-50w and sp-60w are pinned at two, where their
    # padding-lcb values differ.  ktree3-250d-dec's host has 988 vertices on
    # decimal weights, where the oracle's zero-weight classes associate its
    # sums unlike the plain recurrence: its hash was taken with the plain one
    ("sp-20d", 0): "ea59dbcbc6356cfb644a4dfa345de52cca1faa91edf7a649abbb8f982b9dfb1b",
    ("sp-50w", 0): "3d07482c5639295ac52729c064f6d5bb14bdcf8214e5fead82d28bca855125b0",
    ("sp-50w", 1): "4afb4b803aeae3b9f1ff8524b86fa23af3cbdb751af0f6d11e4ddf54825543d3",
    ("sp-60w", 0): "1ee45cda20abde9ea0d1a8ede12b7bb4b9473448e3b8a0598049483425c4b37d",
    ("sp-60w", 1): "9f3eea444a5c4cb5b2278f9f196ef9557ae2c50f4210f0eaac67b0f68248c2c3",
    ("ktree3-30-dec", 0): "d9a11277e092a162f2db8a466c530e3fd9ca16443ac841a23aa5f0755615fc35",
    ("ktree3-250d-dec", 0): "d60beb8acd071bc7ec40150bb0e3f3856ed2b57f2e2147e48db83ef4c582adaa",
}


def _pinned_fixtures():
    return {
        f.name: f
        for f in [
            partial_ktree_fixture(20, 2, seed=11, drop=0.3, delta=2.0),
            partial_ktree_fixture(50, 2, seed=13, drop=0.2, weighted=True, delta=8.0),
            partial_ktree_fixture(60, 2, seed=5, drop=0.3, weighted=True, delta=4.0),
            decimal_weight_fixture(partial_ktree_fixture(30, 3, seed=21, delta=1.0), seed=4),
            decimal_weight_fixture(partial_ktree_fixture(250, 3, seed=51, drop=0.2, delta=1.0), seed=6),
        ]
    }


@pytest.mark.parametrize("name,seed", sorted(PINNED_REPORTS))
def test_full_report_bytes_pinned(name, seed):
    f = _pinned_fixtures()[name]
    report = full_report(f.graph, f.td, f.delta, seed=seed, trials=500, oracle_cap=1000)
    blob = json.dumps(report.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_REPORTS[(name, seed)]


@pytest.mark.parametrize(
    "kind, name",
    [("pinned", name) for name in sorted(_pinned_fixtures())]
    + [("acceptance", name) for name in ("path-30", "cycle-16", "grid-5", "wpath-12", "ktree3-40d")],
)
def test_certified_cover_diameters_bound_the_exact_ones(kind, name):
    # the report certifies each cover's strong diameter from the center rows;
    # the exact diameter of every cluster, one Floyd-Warshall run each, lies
    # at or below the certified value, which lies within the bound
    fixtures = _pinned_fixtures() if kind == "pinned" else {f.name: f for f in acceptance_fixtures()}
    f = fixtures[name]
    b = built(f)
    checks = {c.name: c for c in full_report(f.graph, f.td, f.delta, trials=100, oracle_cap=10_000).checks}
    partitions = build_partition_cover(b.host, b.net, f.delta).partitions
    covers = {
        "cover-strong-diameter": [c.members for c in build_sparse_cover(b.host, b.net, f.delta).clusters],
        "partition-cover-diameter": [c.members for c in chain(*partitions)],
    }
    for check, clusters in covers.items():
        exact = max(verify.oracle_all_pairs(b.host, sorted(m)).max() for m in set(clusters))
        c = checks[check]
        assert c.status == "pass" and exact <= c.measured <= c.bound, (check, exact, c)


def test_pinned_report_calls_no_dijkstra(monkeypatch):
    # every check reads the oracles: with verify's Dijkstra binding raising,
    # a pinned report comes out byte for byte
    def fail(*args, **kwargs):
        raise AssertionError("the report called the Dijkstra search")

    monkeypatch.setattr(verify, "shortest_paths", fail)
    f = _pinned_fixtures()["sp-50w"]
    report = full_report(f.graph, f.td, f.delta, seed=1, trials=500, oracle_cap=1000)
    blob = json.dumps(report.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_REPORTS[("sp-50w", 1)]


# --- the sampled partition ----------------------------------------------------


def test_sweep_checks_report_their_own_failures(monkeypatch):
    data = Path(__file__).resolve().parents[1] / "data"
    g = parse_edge_list((data / "grid4.gr").read_text())
    td = load_tree_decomposition((data / "grid4.td").read_text(), g)
    sample = verify.sample_padded_decomposition

    def out_of_range_radii(*args):
        part = sample(*args)
        return dataclasses.replace(part, radii=np.full_like(part.radii, 99.0))

    monkeypatch.setattr(verify, "sample_padded_decomposition", out_of_range_radii)
    checks = {c.name: c for c in full_report(g, td, 2.0, seed=7, trials=200).checks}
    assert checks["partition-total-disjoint"].status == "pass"
    assert checks["partition-weak-diameter"].status == "pass"
    assert checks["partition-radius-range"].status == "fail"
    assert checks["partition-radius-range"].witness == "seed 7"
    # the replay ran: the recorded radii rebuild another partition
    assert checks["partition-replay-identical"].status == "fail"


def test_report_samples_and_checks_one_partition(monkeypatch):
    # every seed's partition holds by the net checks, so the report samples
    # only the partition of its own seed, the one `decompose --seed` emits
    f = next(f for f in acceptance_fixtures() if f.name == "grid-5")
    sampled, checked = [], []
    sample, check = padnet.decomposition.sample_padded_decompositions, verify.verify_partition

    def spy_sample(net, seeds):
        seeds = list(seeds)
        sampled.extend(seeds)
        return sample(net, seeds)

    def spy_check(*args, **kwargs):
        checked.append(args[1])
        return check(*args, **kwargs)

    monkeypatch.setattr(padnet.decomposition, "sample_padded_decompositions", spy_sample)
    monkeypatch.setattr(verify, "verify_partition", spy_check)
    report = full_report(f.graph, f.td, f.delta, seed=5, trials=50, oracle_cap=200)
    assert report.ok, report.format_table()
    assert sampled == [5]
    assert [p.seed for p in checked] == [5]
