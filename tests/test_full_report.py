import dataclasses
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest
from conftest import BuiltPipeline, built
from fixtures import acceptance_fixtures, decimal_weight_fixture, partial_ktree_fixture

import padnet.decomposition
import padnet.graph
import padnet.verify as verify
from padnet.covers import build_partition_cover, build_sparse_cover
from padnet.graph import parse_edge_list
from padnet.trees import load_tree_decomposition
from padnet.verify import full_report, verify_cover, verify_net

CATALOG = [
    # graph-core
    "restricted-distances-dominate",
    "ball-monotone",
    "weak-le-strong-diameter",
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
    "core-construction-deterministic",
    "component-clusters-laminar",
    # net
    "order-valid-for-edges",
    "connected-subset-unique-maximum",
    "net-distance-oracle-agreement",
    "net-covering",
    "net-packing-2delta",
    "net-packing-3delta",
    "net-packing-alpha-delta",
    "net-construction-deterministic",
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

    def counting_oracle(g, restrict, cap=60):
        if g.n == host_n and len(restrict) == host_n and not inside_center_rows:
            calls["host oracle"] += 1
        return oracle(g, restrict, cap)

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
    monkeypatch.setattr(padnet.graph, "all_pairs", refuse("graph.all_pairs"))
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


@pytest.mark.parametrize("cap", [0, -3])
def test_oracle_cap_below_one_rejected_before_any_check(monkeypatch, cap):
    f = next(f for f in acceptance_fixtures() if f.name == "path-8")

    def fail(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_graph_property_checks", fail)
    with pytest.raises(ValueError, match=f"oracle_cap must be >= 1, got {cap}"):
        full_report(f.graph, f.td, f.delta, trials=10, oracle_cap=cap)


def test_standalone_checks_keep_no_state_between_graphs():
    a = built(next(f for f in acceptance_fixtures() if f.name == "path-30"))
    other = partial_ktree_fixture(20, 2, seed=11, drop=0.3, delta=2.0)
    cover = build_sparse_cover(a.host, a.net, a.delta)
    pcover = build_partition_cover(a.host, a.net, a.delta)

    def standalone():
        return [
            verify_net(a.host, a.net, a.delta, oracle_cap=a.host.n).to_json_dict(),
            verify_cover(a.host, cover, 3.0, a.delta, oracle_cap=a.host.n).to_json_dict(),
            verify_cover(
                a.host, pcover, 3.0, a.delta, oracle_cap=a.host.n, tau=a.net.tau_emp
            ).to_json_dict(),
        ]

    before = standalone()
    assert all(r["ok"] for r in before)
    full_report(other.graph, other.td, other.delta, trials=200, oracle_cap=1000)
    assert standalone() == before


# --- the report's bytes ---------------------------------------------------------

PINNED_REPORTS = {
    # sha256 of each report's canonical JSON.  They were taken while the sweep
    # and the padding counts still read Dijkstra rows, so they also show that
    # reading the oracle matrix instead changed no byte, decimal weights included
    ("sp-20d", 0): "244b527d6ff40fbffa8bbfd6cc179b200168e92c3538a38f9af3500dd669df59",
    ("sp-20d", 1): "1fc1bd230875483785592cb0a6a151859bcfbc3c9eafd1e98d61e69e67a837be",
    ("sp-50w", 0): "178ff85774aefab83875492981bc1d6af5c7bcc413dadca36f043d7f20c22b67",
    ("sp-50w", 1): "b4fe6848c669bc482f4a0142a426aec34d641ddf947dbf2105cf2f96709230bb",
    ("ktree3-30-dec", 0): "a3730b4ef931a4cbdf6d94d7778835cabc237ebb3c0b8050cd34fbd3abeb9ae3",
    ("ktree3-30-dec", 1): "f6ce80df8168b1bf83052cae8a046673e71e8deb0fd13f9b7759d6d601afb15d",
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
    sample = verify.sample_padded_decomposition

    def out_of_range_radii(*args):
        part = sample(*args)
        return dataclasses.replace(part, trace=tuple((x, 99.0) for x, _ in part.trace))

    monkeypatch.setattr(verify, "sample_padded_decomposition", out_of_range_radii)
    checks = {c.name: c for c in full_report(g, td, 2.0, seed=7, trials=200).checks}
    assert checks["partition-total-disjoint"].status == "pass"
    assert checks["partition-weak-diameter"].status == "pass"
    assert checks["partition-radius-range"].status == "fail"
    assert checks["partition-radius-range"].witness == "seed 7"
    # the seed-0 replay ran: the recorded radii rebuild another partition
    assert checks["partition-replay-identical"].status == "fail"
