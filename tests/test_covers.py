import dataclasses
import math

import numpy as np
import pytest
from conftest import built
from hypothesis import given, settings
from hypothesis import strategies as st
from fixtures import (
    acceptance_fixtures,
    binary_tree_fixture,
    grid_fixture,
    heavy_path5,
    is_ancestor,
    partial_ktree_fixture,
    path_fixture,
    shuffled_ids,
    triangle_single_bag,
    weighted_path_fixture,
)

from padnet.covers import CoverCluster, PartitionCluster, build_partition_cover, build_sparse_cover
from padnet.decomposition import DecompositionParams
from padnet.graph import WeightedGraph
from padnet.ordered_net import build_tree_ordered_net
from padnet.trees import TreePartition, td_to_tree_partition
from padnet.verify import oracle_all_pairs, verify_cover

BY_NAME = {f.name: f for f in acceptance_fixtures()}


def single_center_net():
    g = WeightedGraph(5, [(0, i, 1.0) for i in range(1, 5)])
    tp = TreePartition(
        bags=(frozenset([0]),) + tuple(frozenset([i]) for i in range(1, 5)),
        parent=(-1, 0, 0, 0, 0),
    )
    return g, build_tree_ordered_net(g, tp, 1.0)


def test_alpha3_guarantee_numbers():
    b = built(BY_NAME["grid-5"])
    cover = build_sparse_cover(b.host, b.net, b.delta)
    assert cover.padding_ratio == 6.0
    assert cover.diameter_bound == 6 * b.delta
    pcover = build_partition_cover(b.host, b.net, b.delta)
    assert pcover.padding_ratio == 12.0
    assert pcover.diameter_bound == 3 * b.delta


def test_single_net_point_covers_everything():
    g, net = single_center_net()
    cover = build_sparse_cover(g, net, 1.0)
    assert len(cover.clusters) == 1
    assert sorted(cover.clusters[0].members) == list(range(5))
    assert cover.sparsity == 1


def test_per_vertex_membership_equals_packing_counts():
    g, tp, delta = heavy_path5()
    net = build_tree_ordered_net(g, tp, delta)
    cover = build_sparse_cover(g, net, delta)
    counts = net.packing_counts(net.alpha)
    member = np.zeros(g.n, dtype=int)
    for c in cover.clusters:
        for v in c.members:
            member[v] += 1
    assert np.array_equal(member, counts)
    assert cover.sparsity == counts.max()


def test_disjoint_clusters_one_partial_partition():
    # heavy path: every alpha*delta/2 ball is a singleton, all disjoint
    g, tp, delta = heavy_path5()
    net = build_tree_ordered_net(g, tp, delta)
    pcover = build_partition_cover(g, net, delta)
    assert len(pcover.partitions) == 1
    assert all(c.kind == "net" for c in pcover.partitions[0])


def test_triangle_greedy_hand_simulation():
    # expanded order is the path 0 -> 1 -> 2, every vertex a net point;
    # balls of radius 1.5: {0,1,2}, {1,2}, {2}; greedy picks the top each time
    g, tp, delta = triangle_single_bag()
    net = build_tree_ordered_net(g, tp, delta)
    pcover = build_partition_cover(g, net, delta)
    net_clusters = [
        [(c.center, sorted(c.members)) for c in part if c.kind == "net"]
        for part in pcover.partitions
    ]
    assert net_clusters == [
        [(0, [0, 1, 2])],
        [(1, [1, 2])],
        [(2, [2])],
    ]
    # singleton completion makes each partial partition a full partition
    for part in pcover.partitions:
        members = sorted(v for c in part for v in c.members)
        assert members == [0, 1, 2]


def test_alpha_preconditions():
    g, tp, delta = triangle_single_bag()
    net_low = build_tree_ordered_net(g, tp, delta, alpha=1.0)
    with pytest.raises(ValueError):
        build_sparse_cover(g, net_low, delta)
    net_two = build_tree_ordered_net(g, tp, delta, alpha=2.0)
    build_sparse_cover(g, net_two, delta)  # fine for the cover
    with pytest.raises(ValueError):
        build_partition_cover(g, net_two, delta)


def test_constructions_only_at_the_nets_delta():
    g, net = single_center_net()
    builders = [
        build_sparse_cover,
        build_partition_cover,
        lambda g, net, delta: DecompositionParams.from_net(net, delta),
    ]
    for build in builders:
        build(g, net, 1.0)
        with pytest.raises(ValueError, match="net was built for delta=1.0, asked for delta=2.0"):
            build(g, net, 2.0)
        for delta in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="delta must be finite and > 0"):
                build(g, net, delta)


def test_ball_containment_exhaustive():
    for name in ["path-30", "cycle-16", "grid-5", "sp-50w"]:
        b = built(BY_NAME[name])
        alpha, delta = 3.0, b.delta
        dg = oracle_all_pairs(b.host, range(b.host.n))
        cover = build_sparse_cover(b.host, b.net, delta)
        masks = np.zeros((len(cover.clusters), b.host.n), dtype=bool)
        for i, c in enumerate(cover.clusters):
            masks[i, sorted(c.members)] = True
        for v in range(b.host.n):
            bmask = dg[v] <= (alpha - 1) * delta / 2
            assert (~(bmask[None, :] & ~masks).any(axis=1)).any(), f"{name}: vertex {v}"

        pcover = build_partition_cover(b.host, b.net, delta)
        all_masks = []
        for part in pcover.partitions:
            for c in part:
                row = np.zeros(b.host.n, dtype=bool)
                row[sorted(c.members)] = True
                all_masks.append(row)
        all_masks = np.array(all_masks)
        for v in range(b.host.n):
            bmask = dg[v] <= (alpha - 2) * delta / 4
            assert (~(bmask[None, :] & ~all_masks).any(axis=1)).any(), f"{name}: vertex {v}"


def test_verify_cover_integration():
    b = built(BY_NAME["grid-5"])
    cover = build_sparse_cover(b.host, b.net, b.delta)
    counts = b.net.packing_counts(3.0)
    rep = verify_cover(b.host, cover, 3.0, b.delta, b.host_dist, counts, *b.rows)
    assert rep.ok, rep.format_table()
    pcover = build_partition_cover(b.host, b.net, b.delta)
    rep = verify_cover(b.host, pcover, 3.0, b.delta, b.host_dist, counts, *b.rows)
    assert rep.ok, rep.format_table()


def test_covers_compare_by_value():
    # a rebuilt cover is equal; a copy with one array entry or scalar changed is not
    b = built(BY_NAME["grid-5"])
    cover, pcover = build_sparse_cover(b.host, b.net, b.delta), build_partition_cover(b.host, b.net, b.delta)
    assert cover == build_sparse_cover(b.host, b.net, b.delta)
    assert pcover == build_partition_cover(b.host, b.net, b.delta)
    members = cover.members.copy()
    members[0] += 1
    for bad in (
        dataclasses.replace(cover, members=members),
        dataclasses.replace(cover, starts=cover.starts[:-1]),
        dataclasses.replace(cover, sparsity=cover.sparsity + 1),
    ):
        assert cover != bad
    first = pcover.partition_starts.copy()
    first[1] -= 1
    for bad in (
        dataclasses.replace(pcover, is_net=~pcover.is_net),
        dataclasses.replace(pcover, partition_starts=first),
        dataclasses.replace(pcover, delta=2 * pcover.delta),
    ):
        assert pcover != bad
    assert cover != pcover


# --- partition cover against the original greedy --------------------------------


def reference_partition_cover(g, net, delta) -> tuple[tuple[PartitionCluster, ...], ...]:
    """The original greedy: every pick rescans all candidate pairs, O(k^2).

    Its pick is the lowest-rank candidate, asserted to be maximal among the
    candidates: the invariant the count's tau bound needs.  Returns the
    partial partitions as frozenset clusters.
    """
    alpha = net.alpha
    centers = net.centers_in_order()
    member_mask = net.center_distance_matrix() <= alpha * delta / 2
    remaining = list(range(len(centers)))
    partial_partitions = []
    while remaining:
        occupied = np.zeros(g.n, dtype=bool)
        chosen = []
        while True:
            candidates = [i for i in remaining if not (member_mask[i] & occupied).any()]
            if not candidates:
                break
            maximal = [
                i
                for i in candidates
                if not any(
                    j != i
                    and is_ancestor(net.order_parent, net.assign[centers[j]], net.assign[centers[i]])
                    for j in candidates
                )
            ]
            pick = candidates[0]  # remaining stays in rank order
            assert pick in maximal
            chosen.append(pick)
            remaining.remove(pick)
            occupied |= member_mask[pick]
        partial_partitions.append(chosen)
    partitions = []
    for chosen in partial_partitions:
        part = []
        occupied = np.zeros(g.n, dtype=bool)
        for i in chosen:
            members = np.flatnonzero(member_mask[i])
            members_set = frozenset(members.tolist())
            part.append(PartitionCluster("net", int(centers[i]), alpha * delta / 2, members_set))
            occupied[members] = True
        for v in np.flatnonzero(~occupied).tolist():
            part.append(PartitionCluster("singleton", v, 0.0, frozenset([v])))
        partitions.append(tuple(part))
    return tuple(partitions)


def reference_partition_cover_json(partitions, alpha, delta) -> dict:
    """A partition cover's JSON written from its frozenset clusters, members sorted."""
    return {
        "params": {"alpha": alpha, "delta": delta},
        "guarantees": {
            "padding_ratio": 4 * alpha / (alpha - 2),
            "diameter_bound": alpha * delta,
            "partition_count": len(partitions),
        },
        "partitions": [
            [
                {"kind": c.kind, "center": c.center, "radius": c.radius, "members": sorted(c.members)}
                for c in part
            ]
            for part in partitions
        ],
    }


def reference_sparse_cover(net, delta) -> tuple[CoverCluster, ...]:
    """One frozenset cluster per row of the dense center table: the row's
    entries within alpha*delta."""
    rows = zip(net.centers_in_order().tolist(), net.center_distance_matrix())
    return tuple(CoverCluster(c, frozenset(np.flatnonzero(row <= net.alpha * delta).tolist())) for c, row in rows)


def fixture_net(fixture, alpha):
    emb = td_to_tree_partition(fixture.graph, fixture.td)
    net = build_tree_ordered_net(emb.host, emb.tree_partition, fixture.delta, alpha=alpha)
    return emb.host, net


def _seeded(make, seeds_deltas):
    fixtures = [(make(s, d), s) for s, d in seeds_deltas]
    return [pytest.param(f, id=f"{f.name}-seed{s}-delta{f.delta:g}") for f, s in fixtures]


def _ktree(n, k, **kw):
    return lambda s, d: partial_ktree_fixture(n, k, seed=s, delta=d, **kw)


COVER_FIXTURES = (
    [pytest.param(path_fixture(40, delta=d), id=f"path-40-delta{d:g}") for d in (1.0, 2.0)]
    + [
        pytest.param(grid_fixture(k, delta=d), id=f"grid-{k}-delta{d:g}")
        for k, d in ((6, 1.0), (7, 2.0), (8, 4.0))
    ]
    + _seeded(_ktree(60, 3, drop=0.3), ((1, 1.0), (2, 2.0), (3, 1.0)))
    # host ids not following depth, so a deep candidate can have the smallest id
    + _seeded(lambda s, d: shuffled_ids(_ktree(40, 2, drop=0.3)(s, d), s), ((1, 1.0), (3, 1.0)))
    + _seeded(lambda s, d: shuffled_ids(binary_tree_fixture(4, delta=d), s), ((1, 1.0),))
    + _seeded(_ktree(50, 2, weighted=True), ((4, 4.0), (5, 4.0)))
    + _seeded(lambda s, d: weighted_path_fixture(150, s, d), ((0, 6.0), (1, 3.0), (2, 9.0)))
)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 5.0])
@pytest.mark.parametrize("fixture", COVER_FIXTURES)
def test_partition_cover_matches_original_greedy(fixture, alpha):
    host, net = fixture_net(fixture, alpha)
    got = build_partition_cover(host, net, fixture.delta).to_json_dict()
    want = reference_partition_cover(host, net, fixture.delta)
    assert got == reference_partition_cover_json(want, alpha, fixture.delta)


@given(
    fixture=st.one_of(
        st.sampled_from([p.values[0] for p in COVER_FIXTURES]),
        st.builds(
            partial_ktree_fixture,
            n=st.integers(6, 60),
            k=st.integers(1, 4),
            seed=st.integers(0, 2**32 - 1),
            drop=st.sampled_from([0.0, 0.3]),
            weighted=st.booleans(),
            delta=st.sampled_from([1.0, 2.0, 4.0]),
        ),
    ),
    alpha=st.sampled_from([2.5, 3.0, 5.0]),
)
@settings(max_examples=40, deadline=None)
def test_cover_views_equal_frozenset_references(fixture, alpha):
    # the covers are arrays; their frozenset views equal the references',
    # built on first access and once, and the JSON lists the same members
    host, net = fixture_net(fixture, alpha)
    cover = build_sparse_cover(host, net, fixture.delta)
    assert "clusters" not in cover.__dict__
    assert cover.clusters == reference_sparse_cover(net, fixture.delta)
    assert cover.clusters is cover.clusters
    listed = [(c["center"], c["members"]) for c in cover.to_json_dict()["clusters"]]
    assert listed == [(c.center, sorted(c.members)) for c in cover.clusters]
    pcover = build_partition_cover(host, net, fixture.delta)
    assert "partitions" not in pcover.__dict__
    want = reference_partition_cover(host, net, fixture.delta)
    assert pcover.partitions == want
    assert pcover.partitions is pcover.partitions
    assert pcover.to_json_dict() == reference_partition_cover_json(want, alpha, fixture.delta)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 5.0])
@pytest.mark.parametrize("fixture", COVER_FIXTURES)
def test_covers_and_packing_counts_match_dense_table(fixture, alpha):
    # both covers and the packing counts read the sparse entries; the dense
    # view center_distance_matrix() gives the same sets and counts
    host, net = fixture_net(fixture, alpha)
    table = net.center_distance_matrix()
    delta = fixture.delta
    cover = build_sparse_cover(host, net, delta)
    assert [sorted(c.members) for c in cover.clusters] == [
        np.flatnonzero(row <= alpha * delta).tolist() for row in table
    ]
    for m in (0.0, 0.5, 1.0, 2.0, 3.0, alpha):
        assert np.array_equal(net.packing_counts(m), (table <= m * delta).sum(axis=0)), m


def test_partition_count_within_tau():
    for param in COVER_FIXTURES:  # the shuffled-id fixtures, where ids do not follow depth, too
        (fixture,) = param.values
        for alpha in (2.5, 3.0, 5.0):
            host, net = fixture_net(fixture, alpha)
            pcover = build_partition_cover(host, net, fixture.delta)
            assert len(pcover.partitions) <= net.tau_emp, (param.id, alpha)
