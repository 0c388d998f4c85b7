import math

import numpy as np
import pytest
from conftest import built
from fixtures import (
    acceptance_fixtures,
    binary_tree_fixture,
    grid_fixture,
    heavy_path5,
    partial_ktree_fixture,
    path_fixture,
    shuffled_ids,
    triangle_single_bag,
    weighted_path_fixture,
)

from padnet.covers import (
    PartitionCluster,
    PartitionCover,
    build_partition_cover,
    build_sparse_cover,
)
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
        dg = oracle_all_pairs(b.host, range(b.host.n), cap=b.host.n)
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


def test_partition_count_within_tau():
    for name in ["path-30", "grid-5", "star-25", "btree-4"]:
        b = built(BY_NAME[name])
        pcover = build_partition_cover(b.host, b.net, b.delta)
        assert len(pcover.partitions) <= b.net.tau_emp


def test_verify_cover_integration():
    b = built(BY_NAME["grid-5"])
    cover = build_sparse_cover(b.host, b.net, b.delta)
    counts = b.net.packing_counts(3.0)
    rep = verify_cover(b.host, cover, 3.0, b.delta, oracle_cap=b.host.n, packing_counts=counts)
    assert rep.ok, rep.format_table()
    pcover = build_partition_cover(b.host, b.net, b.delta)
    rep = verify_cover(b.host, pcover, 3.0, b.delta, oracle_cap=b.host.n, tau=b.net.tau_emp)
    assert rep.ok, rep.format_table()


# --- partition cover against the original greedy --------------------------------


def reference_partition_cover(g, net, delta) -> PartitionCover:
    """The original greedy: every pick rescans all candidate pairs, O(k^2)."""
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
                    and net.node_is_ancestor(int(net.assign[centers[j]]), int(net.assign[centers[i]]))
                    for j in candidates
                )
            ]
            pick = min(maximal, key=lambda i: int(centers[i]))
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
    return PartitionCover(tuple(partitions), alpha, delta, 4 * alpha / (alpha - 2), alpha * delta)


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
    assert got == reference_partition_cover(host, net, fixture.delta).to_json_dict()
