import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from conftest import built
from fixtures import (
    acceptance_fixtures,
    dense_oracle,
    heavy_path5,
    is_ancestor,
    partial_ktree_fixture,
    triangle_single_bag,
    vertex_mask,
    weighted_path_fixture,
)

from padnet.covers import build_partition_cover, build_sparse_cover
from padnet.decomposition import sample_assignments, sample_padded_decomposition
from padnet.graph import WeightedGraph, shortest_paths
from padnet.ordered_net import (
    build_semi_tree_order,
    build_tree_ordered_net,
    construct_cores_trace,
    packing_profile,
    semi_to_tree_order,
)
from padnet.trees import TreePartition, td_to_tree_partition
from padnet.verify import misplaced_attachments

BY_NAME = {f.name: f for f in acceptance_fixtures()}
ONE_BAG = TreePartition(bags=(frozenset({0, 1, 2}),), parent=(-1,))  # every vertex on one node


def test_heavy_path_hand_simulation():
    # one singleton core per bag, all carved in round one
    g, tp, delta = heavy_path5()
    cons = construct_cores_trace(g, tp, delta)
    assert cons.rounds == 1
    assert [(c.id, sorted(c.members), c.center_bag, sorted(c.centers), c.rank) for c in cons.cores] == [
        (0, [0], 0, [0], 1),
        (1, [1], 1, [1], 1),
        (2, [2], 2, [2], 1),
        (3, [3], 3, [3], 1),
        (4, [4], 4, [4], 1),
    ]
    assign, net = build_semi_tree_order(cons.cores, tp)
    assert assign.tolist() == [0, 1, 2, 3, 4]
    assert net.tolist() == [True] * 5
    assert not net.flags.writeable


def test_triangle_single_bag():
    g, tp, delta = triangle_single_bag()
    cores = construct_cores_trace(g, tp, delta).cores
    assert len(cores) == 1
    assert sorted(cores[0].members) == [0, 1, 2]
    assert sorted(cores[0].centers) == [0, 1, 2]
    assert cores[0].rank == 1
    assign, net = build_semi_tree_order(cores, tp)
    assert set(assign.tolist()) == {0}
    assert net.tolist() == [True] * 3


def test_star_single_round():
    g = WeightedGraph(5, [(0, i, 1.0) for i in range(1, 5)])
    tp = TreePartition(
        bags=(frozenset([0]),) + tuple(frozenset([i]) for i in range(1, 5)),
        parent=(-1, 0, 0, 0, 0),
    )
    cores = construct_cores_trace(g, tp, 1.0).cores
    assert len(cores) == 1
    assert sorted(cores[0].members) == [0, 1, 2, 3, 4]


def test_delta_must_be_positive():
    g, tp, _ = triangle_single_bag()
    with pytest.raises(ValueError):
        construct_cores_trace(g, tp, 0.0)
    with pytest.raises(ValueError):
        construct_cores_trace(g, tp, -1.0)


def test_core_fields_on_fixtures():
    for name in ["path-30", "cycle-16", "grid-5", "sp-35d"]:
        b = built(BY_NAME[name])
        tp = b.tp
        for c in b.construction.cores:
            assert c.centers <= tp.bags[c.center_bag]
            assert c.centers <= c.members
            bag_of = tp.bag_of()
            for v in c.members:
                assert is_ancestor(tp.parent, c.center_bag, int(bag_of[v]))


def test_attachments_let_later_cores_overlap_earlier():
    b = built(BY_NAME["path-30"])
    cores = b.construction.cores
    assert any(
        c1.rank > c2.rank and (c1.members & c2.members)
        for c1 in cores
        for c2 in cores
    )


def test_semi_order_covering_and_packing_oracle():
    # exhaustive witness search with oracle distances, at the semi level
    for name in ["path-30", "cycle-16", "wpath-12", "grid-5"]:
        b = built(BY_NAME[name])
        host, delta = b.host, b.delta
        tin, tout = (a[b.semi] for a in b.tp.bag_intervals())
        net = np.flatnonzero(b.net.net).tolist()
        tpw = b.tp.width
        counts2 = np.zeros(host.n, dtype=int)
        covered = np.zeros(host.n, dtype=bool)
        for x in net:
            below = np.flatnonzero((tin >= tin[x]) & (tin < tout[x]))
            row = dense_oracle(host, below)[x]
            covered |= row <= delta
            counts2 += row <= 2 * delta
        assert covered.all()
        assert counts2.max() <= tpw**4 + tpw**2


def test_single_node_expansion():
    # one shared order node, net = {0}: expansion is the rooted path 0 -> 1 -> 2
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    ton = semi_to_tree_order(ONE_BAG, np.zeros(3, dtype=np.int64), vertex_mask(3, [0]), g, 1.0)
    assert ton.node_vertex == (0, 1, 2)
    assert ton.order_parent == (-1, 0, 1)
    assert ton.assign.tolist() == [0, 1, 2]


def test_net_mask_is_a_read_only_copy():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    given = np.array([True, False, False])
    ton = semi_to_tree_order(ONE_BAG, np.zeros(3, dtype=np.int64), given, g, 1.0)
    given[1] = True
    assert ton.net.tolist() == [True, False, False]
    with pytest.raises(ValueError):
        ton.net[2] = True


@pytest.mark.parametrize("alpha", [math.inf, math.nan, 0.0, -1.0])
def test_alpha_must_be_finite_and_positive(alpha):
    g, tp, delta = heavy_path5()
    with pytest.raises(ValueError, match="alpha must be finite and > 0"):
        build_tree_ordered_net(g, tp, delta, alpha=alpha)


def test_misplaced_attachments_flags_all_but_proper_descendants():
    # bag 0 roots bags 1 and 3, bag 2 hangs below 1; vertex v sits in bag v
    tp = TreePartition(bags=tuple(frozenset({i}) for i in range(4)), parent=(-1, 0, 1, 0))
    tin, tout = tp.bag_intervals()
    bag_of = tp.bag_of()
    none = len(tp.bags)

    def flagged(held: dict[int, int]) -> list[int]:
        """Vertices misplaced when each held vertex v sits in bag held[v]'s attachment."""
        attached = np.full(4, none)
        attached[list(held)] = list(held.values())
        return misplaced_attachments(attached, bag_of, tin, tout).tolist()

    assert flagged({}) == []
    # proper descendants: bag 2 below bags 1 and 0, bags 1 and 3 below bag 0
    assert flagged({2: 0}) == flagged({2: 1}) == flagged({1: 0, 3: 0}) == []
    # the attachment's own bag
    assert flagged({1: 1}) == [1]
    assert flagged({0: 0}) == [0]
    # an ancestor bag, and a bag in another branch
    assert flagged({1: 2}) == [1]
    assert flagged({0: 3}) == [0]
    assert flagged({3: 1, 2: 1}) == [3]


def test_net_first_in_expansion_order():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    ton = semi_to_tree_order(ONE_BAG, np.zeros(3, dtype=np.int64), vertex_mask(3, [2]), g, 1.0)
    assert ton.node_vertex == (2, 0, 1)


def test_injective_semi_expands_to_isomorphic_order():
    g, tp, delta = heavy_path5()
    cores = construct_cores_trace(g, tp, delta).cores
    assign, net = build_semi_tree_order(cores, tp)
    ton = semi_to_tree_order(tp, assign, net, g, delta, cores=tuple(cores))
    assert ton.node_vertex == (0, 1, 2, 3, 4)
    assert ton.order_parent == (-1, 0, 1, 2, 3)


def test_placeholder_nodes_for_empty_preimages():
    # unit-weight 5-path, singleton bags, delta 1: bags 1 and 3 end up empty
    g = WeightedGraph(5, [(i, i + 1, 1.0) for i in range(4)])
    tp = TreePartition(bags=tuple(frozenset([i]) for i in range(5)), parent=(-1, 0, 1, 2, 3))
    ton = build_tree_ordered_net(g, tp, 1.0)
    assert sum(1 for v in ton.node_vertex if v is None) == 2
    assert sorted(v for v in ton.node_vertex if v is not None) == [0, 1, 2, 3, 4]
    # order must still be valid for every edge
    for u, v, _ in g.edges:
        a, b = int(ton.assign[u]), int(ton.assign[v])
        assert is_ancestor(ton.order_parent, a, b) or is_ancestor(ton.order_parent, b, a)


def test_packing_profile_zero_multiplier_distinct_weights():
    g, tp, delta = heavy_path5()
    ton = build_tree_ordered_net(g, tp, delta)
    assert packing_profile(ton, [0.0]) == {0.0: 1}


def test_packing_profile_triangle():
    g, tp, delta = triangle_single_bag()
    ton = build_tree_ordered_net(g, tp, delta)
    assert packing_profile(ton, [2.0]) == {2.0: 3}


def test_packing_profile_grid_within_bound():
    b = built(BY_NAME["grid-5"])
    prof = packing_profile(b.net, [2.0, 3.0])
    assert prof[2.0] <= b.tp.width**4 + b.tp.width**2
    assert b.net.tau_emp == prof[3.0]


def test_construction_deterministic():
    # full_report certifies the one carving and order it builds, so a rerun
    # on the same input must rebuild both exactly
    for f in acceptance_fixtures() + [decimal_weight_fixture()]:
        b = built(f)
        again = construct_cores_trace(b.host, b.tp, f.delta)
        assert again.cores == b.construction.cores, f.name
        assert again.components == b.construction.components, f.name
        assign, net_set = build_semi_tree_order(b.construction.cores, b.tp)
        cores = tuple(b.construction.cores)
        net2 = semi_to_tree_order(b.tp, assign, net_set, b.host, f.delta, alpha=3.0, cores=cores)
        assert net2.order_parent == b.net.order_parent, f.name
        assert net2.node_vertex == b.net.node_vertex, f.name
        assert np.array_equal(net2.assign, b.net.assign), f.name
        assert all(map(np.array_equal, net2.center_entries(), b.net.center_entries())), f.name


def test_built_cache_tells_same_named_instances_apart():
    base = BY_NAME["sp-35d"]
    built(base)
    for f in (
        partial_ktree_fixture(35, 2, seed=12, drop=0.4, delta=1.0),
        partial_ktree_fixture(35, 2, seed=99, drop=0.4, delta=2.0),
    ):
        assert f.name == base.name
        b = built(f)
        assert b.delta == f.delta
        assert b.graph.edges == f.graph.edges
        assert b.construction == construct_cores_trace(b.host, b.tp, f.delta)
    assert built(base).delta == base.delta


def test_converted_net_covering_packing_oracle():
    # after path expansion: covering still at delta, packing measured via oracle
    for name in ["path-30", "grid-5"]:
        b = built(BY_NAME[name])
        host, net, delta = b.host, b.net, b.delta
        centers = net.centers_in_order()
        covered = np.zeros(host.n, dtype=bool)
        counts2 = np.zeros(host.n, dtype=int)
        for i, x in enumerate(centers.tolist()):
            below = np.flatnonzero(net.descendant_vertices(x))
            row = dense_oracle(host, below)[x]
            covered |= row <= delta
            counts2 += row <= 2 * delta
        assert covered.all()
        assert counts2.max() <= net.tau_bound


def test_vertex_intervals_agree_with_ancestor_queries():
    b = built(BY_NAME["grid-4"])
    tin, tout = b.net.vertex_intervals()
    assert not tin.flags.writeable and not tout.flags.writeable
    bag_tin, bag_tout = b.tp.bag_intervals()
    # each order as (per-vertex intervals, parent pointers, each vertex's node)
    orders = [
        (bag_tin[b.semi], bag_tout[b.semi], b.tp.parent, b.semi),
        (tin, tout, b.net.order_parent, b.net.assign),
    ]
    for v_tin, v_tout, parent, node_of in orders:
        for u in range(0, b.host.n, 3):
            below = (v_tin[u] <= v_tin) & (v_tin < v_tout[u])
            assert below.tolist() == [
                is_ancestor(parent, node_of[u], node_of[v]) for v in range(b.host.n)
            ]
    for u in range(0, b.host.n, 3):
        assert np.array_equal(b.net.descendant_vertices(u), (tin[u] <= tin) & (tin < tout[u]))


# --- the center table ends at center_radius --------------------------------------


def unbounded_center_rows(net, g) -> np.ndarray:
    """The table as it was before it was bounded: one unbounded search per center."""
    return np.array(
        [
            shortest_paths(g, net.descendant_vertices(x), [x])
            for x in net.centers_in_order().tolist()
        ]
    )


def decimal_weight_fixture(seed: int = 4):
    """A partial 3-tree with non-dyadic weights, whose sums round by path."""
    f = partial_ktree_fixture(50, 3, seed=seed, delta=1.0)
    rng = np.random.default_rng(seed)
    weights = rng.choice([0.1, 0.2, 0.3, 0.7], size=f.graph.m).tolist()
    g = WeightedGraph(f.graph.n, [(u, v, w) for (u, v, _), w in zip(f.graph.edges, weights)])
    return dataclasses.replace(f, name=f"{f.name}-decimal", graph=g)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 5.0])
def test_bounded_table_is_thresholded_unbounded_rows(alpha):
    fixtures = acceptance_fixtures() + [decimal_weight_fixture()]
    beyond = 0
    for f in fixtures:
        emb = td_to_tree_partition(f.graph, f.td)
        net = build_tree_ordered_net(emb.host, emb.tree_partition, f.delta, alpha=alpha)
        assert net.center_radius == max(alpha, 3.0) * f.delta
        free = unbounded_center_rows(net, emb.host)
        expected = np.where(free <= net.center_radius, free, np.inf)
        assert np.array_equal(net.center_distance_matrix(), expected), f.name
        beyond += int((np.isfinite(free) & (free > net.center_radius)).sum())
    assert beyond > 0  # the bound cut something off


def test_packing_counts_stop_at_center_radius():
    b = built(BY_NAME["path-30"])
    assert b.net.packing_counts(3.0).max() == b.net.tau_emp
    for m in (3.0 + 1e-9, 4.0, float("inf")):
        with pytest.raises(ValueError, match="max\\(alpha, 3\\)"):
            b.net.packing_counts(m)
        with pytest.raises(ValueError):
            packing_profile(b.net, [2.0, m])
    wide = build_tree_ordered_net(b.host, b.tp, b.delta, alpha=5.0)
    assert packing_profile(wide, [5.0])[5.0] == wide.tau_emp
    with pytest.raises(ValueError):
        wide.packing_counts(5.5)
    narrow = build_tree_ordered_net(b.host, b.tp, b.delta, alpha=2.5)
    assert set(packing_profile(narrow, [2.0, 3.0, 2.5])) == {2.0, 2.5, 3.0}
    with pytest.raises(ValueError):
        narrow.packing_counts(3.5)


def _traced_peak(op):
    """op's result and the peak of traced memory above its start level."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    out = op()
    return out, tracemalloc.get_traced_memory()[1] - start


def test_center_table_stays_sparse_at_scale():
    # 4313 centers over a 9598-vertex host: the dense table alone would take
    # 316 MiB, and a (centers x n) bool mask 39 MiB
    f = weighted_path_fixture(4800, seed=0, delta=8.0)
    emb = td_to_tree_partition(f.graph, f.td)
    host = emb.host
    tracemalloc.start()
    try:
        net, setup_peak = _traced_peak(
            lambda: build_tree_ordered_net(host, emb.tree_partition, f.delta)
        )
        ops = (
            lambda: sample_padded_decomposition(host, net, f.delta, 0),
            lambda: next(sample_assignments(net, 0, trials=4)),
            lambda: build_sparse_cover(host, net, f.delta),
            lambda: build_partition_cover(host, net, f.delta),
        )
        op_peaks = [_traced_peak(op)[1] for op in ops]
    finally:
        tracemalloc.stop()
    assert len(net.centers_in_order()) * net.n > 39 * 2**20
    assert len(net.center_entries()[0]) <= 16 * net.n
    assert setup_peak < 64 * 2**20
    assert max(op_peaks) < 32 * 2**20, op_peaks
