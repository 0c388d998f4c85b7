import copy
import dataclasses

import numpy as np
import pytest
from conftest import built
from fixtures import acceptance_fixtures, triangle_single_bag, vertex_mask

from padnet.covers import CoverCluster, PartitionCluster, build_partition_cover, build_sparse_cover
from padnet.decomposition import sample_padded_decomposition
from padnet.graph import WeightedGraph, ball, shortest_paths
from padnet.ordered_net import (
    ComponentTrace,
    build_tree_ordered_net,
    semi_to_tree_order,
)
from padnet.trees import TreePartition
from padnet.verify import (
    OracleCapError,
    _oracle_center_distances,
    count_maximal,
    deep_packing_assertions,
    oracle_all_pairs,
    sampler_ks_check,
    verify_cores,
    verify_cover,
    verify_embedding,
    verify_net,
    verify_partition,
)

BY_NAME = {f.name: f for f in acceptance_fixtures()}


def find(report, name):
    return next(c for c in report.checks if c.name == name)


# --- the oracle itself ---------------------------------------------------------


def test_oracle_triangle():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    d = oracle_all_pairs(g, range(3), cap=10)
    off = d[~np.eye(3, dtype=bool)]
    assert set(off.tolist()) == {1.0}


def test_oracle_respects_restriction():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    d = oracle_all_pairs(g, [2, 0], cap=10)
    assert d[0, 2] == np.inf
    assert d[0, 1] == np.inf  # 1 outside restrict


def test_oracle_cap_refusal():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(OracleCapError):
        oracle_all_pairs(g, range(3), cap=2)


def test_oracle_matches_search_on_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = 40
        edges = [(i, int(rng.integers(i)), float(rng.integers(1, 7))) for i in range(1, n)]
        for _ in range(30):
            u, v = rng.integers(n, size=2)
            if u != v:
                edges.append((int(u), int(v), float(rng.integers(1, 7))))
        g = WeightedGraph(n, edges)
        members = sorted(rng.choice(n, size=30, replace=False).tolist())
        restrict = vertex_mask(n, members)
        matrix = oracle_all_pairs(g, members, cap=60)
        for s in members:
            d = shortest_paths(g, restrict, [s])
            assert d[members].tolist() == matrix[s][members].tolist()


# --- net checks and fault injection ---------------------------------------------


def test_verify_net_all_pass():
    g, tp, delta = triangle_single_bag()
    net = build_tree_ordered_net(g, tp, delta)
    rep = verify_net(g, net, delta, oracle_cap=10)
    assert rep.ok
    assert {c.name for c in rep.checks} >= {
        "order-valid-for-edges",
        "connected-subset-unique-maximum",
        "net-covering",
        "net-packing-2delta",
    }


def test_corrupted_net_fails_covering():
    b = built(BY_NAME["path-30"])
    full = np.flatnonzero(b.net.net).tolist()
    smaller = vertex_mask(b.host.n, full[:-4])
    corrupted = semi_to_tree_order(
        b.semi, smaller, b.host, b.delta, alpha=3.0, cores=tuple(b.construction.cores)
    )
    rep = verify_net(b.host, corrupted, b.delta, oracle_cap=b.host.n)
    cov = find(rep, "net-covering")
    assert cov.status == "fail"
    assert cov.witness and "vertex" in cov.witness


def test_fake_tight_bound_fails_packing():
    # lie about the tree-partition width: clique-5's real packing count is 5
    f = BY_NAME["clique-5"]
    b = built(f)
    semi = dataclasses.replace(b.semi, tp_width=1)
    lied = semi_to_tree_order(semi, b.net.net, b.host, b.delta, alpha=3.0)
    rep = verify_net(b.host, lied, b.delta, oracle_cap=b.host.n)
    assert find(rep, "net-packing-2delta").status == "fail"


def test_invalid_order_fails_validity_and_maximum():
    from padnet.ordered_net import TreeOrderedNet

    # path 0-1-2 but vertices 1 and 2 sit on sibling nodes: edge (1,2) incomparable
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    broken = TreeOrderedNet(
        net=vertex_mask(3, [0]),
        order_parent=(-1, 0, 0),
        node_vertex=(0, 1, 2),
        assign=np.array([0, 1, 2]),
        alpha=3.0,
        delta=1.0,
        tp_width=1,
        cores=(),
        g=g,
    )
    rep = verify_net(g, broken, 1.0, oracle_cap=10, seed=0, samples=200)
    assert find(rep, "order-valid-for-edges").status == "fail"
    assert find(rep, "connected-subset-unique-maximum").status == "fail"


def test_core_checks_pass_and_fault_injection():
    b = built(BY_NAME["cycle-16"])
    checks = verify_cores(b.host, b.tp, b.delta, b.construction)
    assert all(c.status == "pass" for c in checks), [
        (c.name, c.status) for c in checks if c.status != "pass"
    ]

    # tampered rank: duplicate-rank overlap must be caught
    cons = b.construction
    pair = next(
        (hi, lo)
        for hi in cons.cores
        for lo in cons.cores
        if hi.rank > lo.rank and (hi.members & lo.members)
    )
    bad = dataclasses.replace(cons)
    bad.cores = [
        dataclasses.replace(c, rank=pair[1].rank) if c is pair[0] else c for c in cons.cores
    ]
    names = {c.name: c.status for c in verify_cores(b.host, b.tp, b.delta, bad)}
    assert names["same-rank-cores-disjoint"] == "fail"

    # overlapping same-round clusters must fail laminarity
    bad2 = dataclasses.replace(cons)
    fake = ComponentTrace(
        round_no=cons.components[0].round_no,
        root_bag=cons.components[0].root_bag,
        bags=cons.components[0].bags,
        cluster=cons.components[0].cluster,
    )
    bad2.components = list(cons.components) + [fake]
    names = {c.name: c.status for c in verify_cores(b.host, b.tp, b.delta, bad2)}
    assert names["component-clusters-laminar"] == "fail"


def test_embedding_fault_injection():
    b = built(BY_NAME["path-8"])
    emb = b.embedding
    good = verify_embedding(b.graph, b.td, emb, oracle_cap=b.host.n)
    assert all(c.status == "pass" for c in good)
    forward = emb.forward.copy()
    forward[0], forward[1] = forward[1], forward[0]
    swapped = dataclasses.replace(emb, forward=forward)
    rep = verify_embedding(b.graph, b.td, swapped, oracle_cap=b.host.n)
    assert any(c.name == "isometry-exact" and c.status == "fail" for c in rep)


# --- partition checks ------------------------------------------------------------


def test_partition_checks_and_fault_injection():
    # path host: long diameter, so a merged first+last cluster breaks the bound
    b = built(BY_NAME["path-30"])
    part = sample_padded_decomposition(b.host, b.net, b.delta, seed=3)
    rep = verify_partition(b.host, part, 3.0, b.delta, dist_matrix=b.host_dist)
    assert rep.ok

    assert len(part.clusters) >= 2
    merged = part.clusters[0].members | part.clusters[-1].members
    clusters = (
        dataclasses.replace(part.clusters[0], members=frozenset(merged)),
    ) + part.clusters[1:-1]
    assignment = part.assignment.copy()
    assignment[list(part.clusters[-1].members)] = 0
    bad = dataclasses.replace(part, clusters=clusters, assignment=assignment)
    rep = verify_partition(b.host, bad, 3.0, b.delta, dist_matrix=b.host_dist)
    assert find(rep, "partition-weak-diameter").status == "fail"

    # out-of-range recorded radius
    bad_trace = ((part.trace[0][0], 100.0 * b.delta),) + part.trace[1:]
    bad = dataclasses.replace(part, trace=bad_trace)
    rep = verify_partition(b.host, bad, 3.0, b.delta, dist_matrix=b.host_dist)
    assert find(rep, "partition-radius-range").status == "fail"

    # a vertex missing from every cluster
    clusters = tuple(
        dataclasses.replace(c, members=frozenset(set(c.members) - {0})) for c in part.clusters
    )
    bad = dataclasses.replace(part, clusters=clusters)
    rep = verify_partition(b.host, bad, 3.0, b.delta, dist_matrix=b.host_dist)
    assert find(rep, "partition-total-disjoint").status == "fail"


def _total_disjoint_by_loop(n, p):
    """Reference for partition-total-disjoint: one Python pass per vertex."""
    total = p.assignment.shape[0] == n and (p.assignment >= 0).all()
    seen = np.zeros(n, dtype=np.int64)
    for c in p.clusters:
        for v in c.members:
            seen[v] += 1
    consistent = all(p.assignment[v] == i for i, c in enumerate(p.clusters) for v in c.members)
    if total and (seen == 1).all() and consistent:
        return "pass", None
    stray = np.flatnonzero(seen != 1)
    if stray.size:
        return "fail", f"vertex {int(stray[0])} in {int(seen[stray[0]])} clusters"
    return "fail", "assignment mismatch"


def test_partition_total_disjoint_matches_loop_reference():
    b = built(BY_NAME["grid-5"])
    part = sample_padded_decomposition(b.host, b.net, b.delta, seed=1)
    assert len(part.clusters) >= 2
    first, second = part.clusters[0], part.clusters[1]
    v = min(second.members)
    duplicated = dataclasses.replace(first, members=first.members | {v})
    swapped = part.assignment.copy()
    swapped[v] = 0
    variants = [
        part,
        dataclasses.replace(part, clusters=(duplicated,) + part.clusters[1:]),
        dataclasses.replace(part, assignment=swapped),
        dataclasses.replace(part, clusters=part.clusters[1:]),
    ]
    statuses = []
    for p in variants:
        got = find(verify_partition(b.host, p, 3.0, b.delta, b.host_dist), "partition-total-disjoint")
        assert (got.status, got.witness) == _total_disjoint_by_loop(b.host.n, p)
        statuses.append(got.status)
    assert statuses == ["pass", "fail", "fail", "fail"]


# --- cover checks ------------------------------------------------------------


def test_cover_all_pass_single_cluster():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    tp = TreePartition(bags=(frozenset([0, 1, 2]),), parent=(-1,))
    net = build_tree_ordered_net(g, tp, 2.0)
    cover = build_sparse_cover(g, net, 2.0)
    rep = verify_cover(g, cover, 3.0, 2.0, oracle_cap=10)
    assert rep.ok


def test_inflated_padding_radius_detected():
    # checking the alpha-3 cover as an alpha-5 one doubles the guaranteed
    # radius, (5-1)*delta/2 = 2*delta; on a path that must break containment
    b = built(BY_NAME["path-30"])
    cover = build_sparse_cover(b.host, b.net, b.delta)
    rep = verify_cover(b.host, cover, 5.0, b.delta, oracle_cap=b.host.n)
    assert find(rep, "cover-ball-containment").status == "fail"


def test_cover_diameter_fault():
    b = built(BY_NAME["path-8"])
    far = frozenset([0, b.host.n - 1])
    fake = CoverCluster(center=0, members=far)
    cover = build_sparse_cover(b.host, b.net, b.delta)
    bad = dataclasses.replace(cover, clusters=cover.clusters + (fake,))
    rep = verify_cover(b.host, bad, 3.0, b.delta, oracle_cap=b.host.n)
    assert find(rep, "cover-strong-diameter").status == "fail"


def test_partition_cover_warn_band_and_fail():
    b = built(BY_NAME["grid-5"])
    pcover = build_partition_cover(b.host, b.net, b.delta)
    count = len(pcover.partitions)
    rep = verify_cover(b.host, pcover, 3.0, b.delta, oracle_cap=b.host.n, tau=count - 1)
    assert find(rep, "partition-cover-count").status == "warn"
    rep = verify_cover(b.host, pcover, 3.0, b.delta, oracle_cap=b.host.n, tau=count - 2)
    assert find(rep, "partition-cover-count").status == "fail"

    # duplicated vertex inside one partition
    first = pcover.partitions[0]
    dupe = PartitionCluster(kind="singleton", center=0, radius=0.0, members=frozenset([0]))
    bad = dataclasses.replace(pcover, partitions=(first + (dupe,),) + pcover.partitions[1:])
    rep = verify_cover(b.host, bad, 3.0, b.delta, oracle_cap=b.host.n, tau=b.net.tau_emp)
    assert find(rep, "partition-cover-partitions-valid").status == "fail"


# --- misc ----------------------------------------------------------------------


def test_sampler_ks_check_passes():
    res = sampler_ks_check(2.5, 1.0, 2.0, draws=50_000, seed=4)
    assert res.status == "pass"


def test_deep_packing_assertions_hold():
    for name in ["path-30", "cycle-16", "grid-5"]:
        b = built(BY_NAME[name])
        for v in range(0, b.host.n, max(1, b.host.n // 10)):
            deep_packing_assertions(b.host, b.net, b.tp, v, oracle_cap=b.host.n)


# --- the bounded center table, the core snapshot, the unique maximum ----------


def with_table(net, table):
    tampered = copy.copy(net)
    tampered._center_dist = table
    return tampered


def test_tampered_center_table_fails_oracle_agreement():
    b = built(BY_NAME["path-30"])
    rep = verify_net(b.host, b.net, b.delta, oracle_cap=b.host.n)
    assert find(rep, "net-distance-oracle-agreement").status == "pass"

    oracle_d = _oracle_center_distances(b.host, b.net, b.host.n)
    table = b.net.center_distance_matrix()
    far = np.argwhere(np.isfinite(oracle_d) & (oracle_d > b.net.center_radius))
    near = np.argwhere(np.isfinite(table) & (table > 0))
    assert far.size and near.size
    (i, v), (j, u) = far[0], near[len(near) // 2]

    finite_beyond = table.copy()
    finite_beyond[i, v] = oracle_d[i, v]  # the true distance, but past the radius
    wrong_inside = table.copy()
    wrong_inside[j, u] = np.nextafter(table[j, u], np.inf)
    inf_inside = table.copy()
    inf_inside[j, u] = np.inf
    for tampered in (finite_beyond, wrong_inside, inf_inside):
        rep = verify_net(b.host, with_table(b.net, tampered), b.delta, oracle_cap=b.host.n)
        assert find(rep, "net-distance-oracle-agreement").status == "fail"


def _tampered_core_checks(b, target, **fields):
    """verify_cores on b's carving with the fields of one core replaced."""
    bad = dataclasses.replace(b.construction)
    bad.cores = [dataclasses.replace(c, **fields) if c is target else c for c in bad.cores]
    return {c.name: c for c in verify_cores(b.host, b.tp, b.delta, bad)}


def test_tampered_members_fail_ball_replay():
    b = built(BY_NAME["cycle-16"])
    core = next(c for c in b.construction.cores if c.members - c.centers)
    dropped = core.members - {min(core.members - core.centers)}
    added = core.members | {min(set(range(b.host.n)) - core.members)}
    for members in (dropped, added):
        checks = _tampered_core_checks(b, core, members=frozenset(members))
        assert checks["core-ball-replay"].status == "fail"


def test_tampered_record_fails_without_raising():
    b = built(BY_NAME["cycle-16"])
    cores = b.construction.cores
    last = cores[-1]
    # no component of that round holds the center bag: the replayed support is empty
    checks = _tampered_core_checks(b, last, rank=b.construction.rounds + 1)
    assert checks["core-members-in-support"].status == "fail"
    assert "centers outside" in checks["core-ball-replay"].witness
    other_bag = next(c.center_bag for c in cores if c.center_bag != last.center_bag)
    checks = _tampered_core_checks(b, last, center_bag=other_bag)
    assert checks["core-ball-replay"].status == "fail"
    # a covered vertex of the first core that no later core holds, as an extra center
    stray = min(cores[0].members - set().union(*(c.members for c in cores[1:])))
    checks = _tampered_core_checks(b, last, centers=last.centers | {stray})
    assert "centers outside" in checks["core-ball-replay"].witness


def reference_maximal(order, members) -> int:
    """The double loop count_maximal replaced: members below no other member."""
    node_of = order.assign
    idx = members.tolist()
    return sum(
        1
        for u in idx
        if not any(
            v != u and order.node_is_ancestor(int(node_of[v]), int(node_of[u])) for v in idx
        )
    )


@pytest.mark.parametrize(
    "name", ["path-8", "wpath-12", "cycle-16", "grid-5", "btree-4", "sp-35d", "ktree3-30"]
)
def test_count_maximal_matches_double_loop(name):
    b = built(BY_NAME[name])
    rng = np.random.default_rng(len(name))
    everything = b.host.all_vertices()
    # the semi order puts several vertices on one node; the net's order is injective
    for order in (b.net, b.semi):
        for _ in range(40):
            if rng.random() < 0.5:
                size = int(rng.integers(1, min(b.host.n, 60) + 1))
                members = np.sort(rng.choice(b.host.n, size=size, replace=False))
            else:
                center = int(rng.integers(b.host.n))
                radius = float(rng.uniform(0, 4 * b.delta))
                members = np.flatnonzero(ball(b.host, everything, [center], radius))
            assert count_maximal(order, members) == reference_maximal(order, members)
