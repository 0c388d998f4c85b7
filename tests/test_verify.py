import ast
import copy
import dataclasses
import inspect
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse import csgraph
from conftest import built
from fixtures import (
    Fixture,
    acceptance_fixtures,
    all_pairs,
    decimal_weight_fixture,
    dense_oracle,
    descendant_mask,
    grid_fixture,
    is_ancestor,
    partial_ktree_fixture,
    plain_floyd_warshall,
    shuffled_ids,
    triangle_single_bag,
    vertex_mask,
    weighted_path_fixture,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import padnet.oracle
import padnet.verify as verify
from padnet.covers import build_partition_cover, build_sparse_cover
from padnet.decomposition import sample_padded_decomposition
from padnet.graph import GraphFormatError, WeightedGraph, ball, shortest_paths
from padnet.ordered_net import (
    ComponentTrace,
    TreeOrderedNet,
    build_tree_ordered_net,
    semi_to_tree_order,
)
from padnet.trees import IsometricEmbedding, TreeDecomposition, TreePartition, td_to_tree_partition
from padnet.verify import (
    _bellman_ford_rows,
    _edge_lists,
    _oracle_center_distances,
    _replay_carving,
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
    return find_check(report.checks, name)


def find_check(checks, name):
    return next(c for c in checks if c.name == name)


# --- the oracle itself ---------------------------------------------------------


def test_oracle_triangle():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    d = oracle_all_pairs(g, range(3))
    off = d[~np.eye(3, dtype=bool)]
    assert set(off.tolist()) == {1.0}


def test_oracle_respects_restriction():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    d = oracle_all_pairs(g, [2, 0])  # rows and columns: vertices 0, 2
    assert d.tolist() == [[0.0, np.inf], [np.inf, 0.0]]  # 1 outside restrict


def test_oracle_returns_the_block_of_its_restriction():
    # vertices 1, 3, 4 of the path 0-1-2-3-4, in any order, give one (3, 3) block
    g = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0), (3, 4, 8.0)])
    for restrict in ([1, 3, 4], [4, 1, 3], np.array([3, 4, 1]), np.array([4, 3, 1], dtype=np.uint64)):
        d = oracle_all_pairs(g, restrict)
        assert d.tolist() == [[0.0, np.inf, np.inf], [np.inf, 0.0, 8.0], [np.inf, 8.0, 0.0]]
    assert oracle_all_pairs(g, range(5))[1].tolist() == [1.0, 0.0, 2.0, 6.0, 14.0]


@pytest.mark.parametrize(
    "restrict,message",
    [
        ([-1, 1], "vertex -1 outside 0..2"),
        ([0, 3], "vertex 3 outside 0..2"),
        ([1, 1, 2], "vertex 1 repeated"),
        ([2, 0, 5, 0], "vertex 5 outside 0..2"),  # the first bad id, in restrict's order
        ([2, 0, 2, 7], "vertex 2 repeated"),
        ([1.5, 2], "vertex 1.5 not an integer"),  # once read as vertex 1
        ([2**64, 1], f"vertex {2**64} outside 0..2"),  # once an OverflowError
        (np.array([0.0, 1.0]), "vertex 0.0 not an integer"),
    ],
)
def test_oracle_rejects_ids_it_cannot_honour(restrict, message):
    # on the path 0-1-2
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError, match=f"^restrict: {message}$"):
        oracle_all_pairs(g, restrict)


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
        matrix = oracle_all_pairs(g, members)
        for s, row in zip(members, matrix):  # members ascend, as the matrix's rows do
            d = shortest_paths(g, restrict, [s])
            assert d[members].tolist() == row.tolist()


def test_oracle_joins_zero_weight_edges_only_inside_restrict():
    # on the zero path 0-1-2, vertex 1 alone joins 0 and 2
    g = WeightedGraph(3, [(0, 1, 0.0), (1, 2, 0.0)])
    assert oracle_all_pairs(g, [0, 2]).tolist() == [[0.0, np.inf], [np.inf, 0.0]]
    assert oracle_all_pairs(g, [0, 1, 2]).tolist() == [[0.0] * 3] * 3


# the zero-weight chain 0-1-2-3 (three edges) and the zero edge 5-6 make the
# classes {0, 1, 2, 3}, {4}, {5, 6}; the heavier edges join the classes
ZERO_CHAINED = WeightedGraph(
    7, [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0), (3, 4, 2.0), (4, 5, 3.0), (5, 6, 0.0), (0, 6, 9.0), (2, 5, 4.0)]
)


@pytest.mark.parametrize(
    "restrict,classes,between",
    [
        # classes 0..2 are {0, 1, 2, 3}, {4}, {5, 6}: 4 through 2-5, not 5 through 4
        ([6, 0, 5, 3, 1, 4, 2], [0, 0, 0, 0, 1, 2, 2], [[0, 2, 4], [2, 0, 3], [4, 3, 0]]),
        # without 2 the chain splits into {0, 1} and {3}, and 2-5 is gone
        ([0, 1, 3, 4, 5, 6], [0, 0, 1, 2, 3, 3], [[0, 14, 12, 9], [14, 0, 2, 5], [12, 2, 0, 3], [9, 5, 3, 0]]),
    ],
)
def test_oracle_on_zero_weight_edges_of_g(restrict, classes, between):
    members = sorted(restrict)
    expected = np.array(between, dtype=float)[np.ix_(classes, classes)]
    assert oracle_all_pairs(ZERO_CHAINED, restrict).tolist() == expected.tolist()
    mask = vertex_mask(ZERO_CHAINED.n, members)
    rows = [shortest_paths(ZERO_CHAINED, mask, [s])[members] for s in members]
    assert np.array(rows).tolist() == expected.tolist()


def test_oracle_without_zero_edges_is_the_plain_recurrence_bit_for_bit():
    # decimal weights round, so any change in how the sums associate shows
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = 40
        edges = [(i, int(rng.integers(i)), float(rng.choice([0.1, 0.2, 0.3, 0.7]))) for i in range(1, n)]
        edges += [(int(u), int(v), float(rng.uniform(0.05, 2.0))) for u, v in rng.integers(n, size=(30, 2)) if u != v]
        g = WeightedGraph(n, edges)
        members = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()
        assert oracle_all_pairs(g, members).tobytes() == plain_floyd_warshall(g, members).tobytes()


@pytest.mark.parametrize("name", sorted(BY_NAME))
def test_oracle_matches_bellman_ford_on_every_acceptance_host(name):
    # copy-expanded hosts are mostly zero-weight classes; on integer (and
    # dyadic) weights the contracted recurrence is exact
    host = built(BY_NAME[name]).host
    rows = _bellman_ford_rows(_edge_lists(host), np.arange(host.n), bytes(host.n), 0, 1, np.inf)
    assert np.array_equal(oracle_all_pairs(host, range(host.n)), rows)


def _decimal(f):
    return decimal_weight_fixture(f, seed=6)


@pytest.mark.parametrize(
    "fixture,exact",
    [(f, True) for f in acceptance_fixtures()[-5:]]  # sp-50w has integer weights 1..7
    + [
        (partial_ktree_fixture(250, 3, seed=51, drop=0.2, delta=1.0), True),  # host 988
        (_decimal(partial_ktree_fixture(250, 3, seed=51, drop=0.2, delta=1.0)), False),
        (_decimal(partial_ktree_fixture(60, 4, seed=31, drop=0.2, delta=1.0)), False),
        (_decimal(grid_fixture(7)), False),
    ],
    ids=lambda x: getattr(x, "name", None),
)
def test_oracle_matches_scipy_on_hosts(fixture, exact):
    # scipy shares no code with padnet.  Built from (data, (i, j)), the sparse
    # matrix keeps the explicit zero-weight copy edges
    host = built(fixture).host
    a, b, w = (np.array(column) for column in zip(*host.edges))
    matrix = scipy.sparse.csr_matrix((w, (a, b)), shape=(host.n, host.n))
    assert matrix.nnz == host.m and (w == 0.0).any()
    reference = csgraph.shortest_path(matrix, method="D", directed=False)
    got = oracle_all_pairs(host, range(host.n))
    if exact:
        assert np.array_equal(got, reference)
    else:
        np.testing.assert_allclose(got, reference, rtol=1e-12, atol=0.0)


def test_oracle_module_imports_nothing_from_padnet():
    # the oracle checks graph, ordered_net, decomposition and covers, and
    # reads none of them: it imports no padnet module at all
    tree = ast.parse(Path(padnet.oracle.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {"." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported and not any(name.startswith((".", "padnet")) for name in imported), imported


@pytest.mark.parametrize(
    "oracle",
    [
        oracle_all_pairs, padnet.oracle._least_joined, _bellman_ford_rows, _replay_carving, _edge_lists,
        verify._edge_arrays, verify._isometry_fault,
    ],
)
def test_oracle_reads_nothing_from_the_code_it_checks(oracle):
    checked = {"padnet.graph", "padnet.ordered_net", "padnet.decomposition", "padnet.covers"}
    refs = inspect.getclosurevars(oracle)
    for name, value in {**refs.globals, **refs.nonlocals}.items():
        module = value.__name__ if inspect.ismodule(value) else getattr(value, "__module__", None)
        assert module not in checked, f"{oracle.__name__} reads {name} from {module}"


# --- net checks and fault injection ---------------------------------------------


def order_over(g, parent, node_of) -> TreeOrderedNet:
    """The order putting vertex v at node node_of[v], with no centers."""
    return TreeOrderedNet(
        net=vertex_mask(g.n), order_parent=tuple(parent), node_vertex=(None,) * len(parent),
        assign=np.asarray(node_of), alpha=3.0, delta=1.0, tp_width=1, cores=(), g=g,
    )


def test_verify_net_all_pass():
    g, tp, delta = triangle_single_bag()
    net = build_tree_ordered_net(g, tp, delta)
    rep = verify_net(g, net, delta, _oracle_center_distances(g, net))
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
        b.tp, b.semi, smaller, b.host, b.delta, alpha=3.0, cores=tuple(b.construction.cores)
    )
    rep = verify_net(b.host, corrupted, b.delta, _oracle_center_distances(b.host, corrupted))
    cov = find(rep, "net-covering")
    assert cov.status == "fail"
    assert cov.witness and "vertex" in cov.witness


def test_fake_tight_bound_fails_packing():
    # lie about the tree-partition width: clique-5's real packing count is 5
    f = BY_NAME["clique-5"]
    b = built(f)
    lied = TreeOrderedNet(
        net=b.net.net,
        order_parent=b.net.order_parent,
        node_vertex=b.net.node_vertex,
        assign=b.net.assign,
        alpha=3.0,
        delta=b.delta,
        tp_width=1,
        cores=(),
        g=b.host,
    )
    rep = verify_net(b.host, lied, b.delta, _oracle_center_distances(b.host, lied))
    assert find(rep, "net-packing-2delta").status == "fail"


def test_invalid_order_fails_validity_and_maximum():
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
    rep = verify_net(g, broken, 1.0, _oracle_center_distances(g, broken))
    for name in ("order-valid-for-edges", "connected-subset-unique-maximum"):
        assert find(rep, name).status == "fail"
        assert find(rep, name).witness == "edge (1,2) order-incomparable"


def test_edge_validity_witness_matches_edge_loop():
    # random orders over random graphs: the first incomparable edge in g.edges
    # order, found by walking parent pointers
    rng = np.random.default_rng(5)
    failing = 0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        edges = [(i, int(rng.integers(i)), 1.0) for i in range(1, n)]
        edges += [(int(u), int(v), 1.0) for u, v in rng.integers(n, size=(4, 2)) if u != v]
        g = WeightedGraph(n, edges)
        nodes = int(rng.integers(1, n + 3))
        parent = (-1, *(int(rng.integers(i)) for i in range(1, nodes)))
        assign = rng.integers(nodes, size=n)
        order = order_over(g, parent, assign)
        expected = next(
            (
                f"edge ({u},{v}) order-incomparable"
                for u, v, _ in g.edges
                if not (
                    is_ancestor(parent, assign[u], assign[v])
                    or is_ancestor(parent, assign[v], assign[u])
                )
            ),
            None,
        )
        rep = verify_net(g, order, 1.0, _oracle_center_distances(g, order))
        assert find(rep, "order-valid-for-edges").witness == expected
        failing += expected is not None
    assert 20 < failing < 80


def test_center_subtree_witness_matches_member_loop():
    # cores moved to random bags, some outside the partition: the first core,
    # in core order, whose center bag is out of range or that has a member,
    # in its iteration order, whose bag is not below the center bag
    b = built(BY_NAME["grid-5"])
    nb = len(b.tp.bags)
    rng = np.random.default_rng(6)
    bag_of = b.tp.bag_of()
    failing = strays = 0
    for _ in range(40):
        bad = dataclasses.replace(b.construction)
        bad.cores = [
            dataclasses.replace(c, center_bag=int(rng.choice([-1, nb, *rng.integers(nb, size=3)])))
            if rng.random() < 0.5
            else c
            for c in b.construction.cores
        ]
        expected = next(
            (
                f"core {c.id}: center bag {c.center_bag} outside bags 0..{nb - 1}"
                if not 0 <= c.center_bag < nb
                else f"core {c.id}: member {v} outside subtree of bag {c.center_bag}"
                for c in bad.cores
                for v in c.members
                if not 0 <= c.center_bag < nb or not is_ancestor(b.tp.parent, c.center_bag, bag_of[v])
            ),
            None,
        )
        checks = {c.name: c for c in verify_cores(b.host, b.tp, b.delta, bad)}
        assert checks["core-members-in-center-subtree"].witness == expected
        failing += expected is not None
        strays += sum(not 0 <= c.center_bag < nb for c in bad.cores) > 1
    assert failing > 20 and strays > 3


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


def test_laminar_check_names_its_first_fault():
    # two round-2 components of path-30 whose clusters each gain a vertex
    # outside their parent's (and outside the host), so neither overlaps
    # the other: the witness names the earlier one
    b = built(BY_NAME["path-30"])
    cons = b.construction
    assert [c.root_bag for c in cons.components[1:4]] == [3, 7, 11]
    bad = dataclasses.replace(cons, components=list(cons.components))
    for i, extra in ((2, b.host.n), (3, b.host.n + 1)):
        bad.components[i] = dataclasses.replace(
            cons.components[i], cluster=cons.components[i].cluster | {extra}
        )
    check = find_check(verify_cores(b.host, b.tp, b.delta, bad), "component-clusters-laminar")
    assert check.status == "fail"
    assert check.witness == "round 2 component at bag 7 cluster escapes its parent cluster"

    # two overlapping pairs in round 2, (1, 4) met first in component order
    # and (0, 5) met later: the witness is the least pair
    assert [c.root_bag for c in cons.components[1:8]] == [3, 7, 11, 15, 19, 23, 27]
    bad = dataclasses.replace(cons, components=list(cons.components))
    for i, j in ((1, 4), (0, 5)):
        shared = min(cons.components[1 + i].cluster)
        bad.components[1 + j] = dataclasses.replace(
            cons.components[1 + j], cluster=cons.components[1 + j].cluster | {shared}
        )
    check = find_check(verify_cores(b.host, b.tp, b.delta, bad), "component-clusters-laminar")
    assert check.status == "fail"
    assert check.witness == "round 2: clusters of components 0,5 overlap"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 12), max_size=5), max_size=8))
def test_laminar_overlap_matches_pairwise_scan(clusters):
    # the membership table names the pair the scan of every pair of one
    # round's components finds first; round 1 has no parent check
    comps = [ComponentTrace(1, k, frozenset(), c) for k, c in enumerate(clusters)]
    pairs = [(i, j) for j in range(len(comps)) for i in range(j) if clusters[i] & clusters[j]]
    want = "round 1: clusters of components {},{} overlap".format(*min(pairs)) if pairs else None
    assert verify._laminar_fault(comps) == want


def _core_counts_by_loop(n, bag_of, cores):
    """The per-core loops that verify_cores' table counts replaced: measured
    values and witnesses of the checks they fed."""
    by_rank, same_rank = {}, None
    per_vertex = np.zeros(n, dtype=np.int64)
    per_bag = np.zeros(int(bag_of.max()) + 1, dtype=np.int64)
    for c in cores:
        hit = by_rank.setdefault(c.rank, set()) & c.members
        if hit and same_rank is None:
            same_rank = f"rank {c.rank}: vertex {min(hit)} in two cores"
        by_rank[c.rank] |= c.members
        for v in c.members:
            per_vertex[v] += 1
        for bag in {int(bag_of[v]) for v in c.members}:
            per_bag[bag] += 1
    return {
        "cores-cover-all-vertices": len(set().union(*(c.members for c in cores))),
        "same-rank-cores-disjoint": same_rank,
        "per-vertex-core-bound": int(per_vertex.max()),
        "per-bag-core-bound": int(per_bag.max()),
    }


@pytest.mark.parametrize("name", ["cycle-16", "path-30", "btree-4", "star-25"])
def test_core_counts_match_member_loops(name):
    # cores given random ranks and a member of another core
    b = built(BY_NAME[name])
    cores = b.construction.cores
    rng = np.random.default_rng(8)
    bag_of = b.tp.bag_of()
    failing = 0
    for _ in range(10):
        bad = dataclasses.replace(b.construction)
        bad.cores = [
            dataclasses.replace(
                c,
                rank=int(rng.integers(1, 3)),
                members=c.members | {max(cores[rng.integers(len(cores))].members)},
            )
            if rng.random() < 0.3
            else c
            for c in cores
        ]
        checks = verify_cores(b.host, b.tp, b.delta, bad)
        expected = _core_counts_by_loop(b.host.n, bag_of, bad.cores)
        assert find_check(checks, "same-rank-cores-disjoint").witness == expected.pop(
            "same-rank-cores-disjoint"
        )
        for check_name, measured in expected.items():
            assert find_check(checks, check_name).measured == measured, check_name
        failing += find_check(checks, "same-rank-cores-disjoint").status == "fail"
    assert failing > 3


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

    # a host vertex in two bags
    tp = emb.tree_partition
    v = min(tp.bags[1])
    twice = dataclasses.replace(tp, bags=(tp.bags[0] | {v}, *tp.bags[1:]))
    rep = verify_embedding(b.graph, b.td, dataclasses.replace(emb, tree_partition=twice), b.host.n)
    assert find_check(rep, "host-bags-partition").witness == f"host vertex {v} in bags 0 and 1"

    # a vertex in no bag: its edges fit no pair of bags, not even into the root bag
    g, tp, _ = triangle_single_bag()
    td = TreeDecomposition(bags=tp.bags, parent=tp.parent)
    short = dataclasses.replace(tp, bags=(frozenset([0, 1]),))
    emb = IsometricEmbedding(g, short, forward=np.arange(3), copies=((0,), (1,), (2,)))
    rep = verify_embedding(g, td, emb, oracle_cap=3)
    assert find_check(rep, "host-bags-partition").status == "fail"
    assert find_check(rep, "host-edge-validity").status == "fail"


# --- partition checks ------------------------------------------------------------


def test_partition_checks_and_fault_injection():
    # path host: long diameter, so a merged first+last cluster breaks the bound
    b = built(BY_NAME["path-30"])
    part = sample_padded_decomposition(b.host, b.net, b.delta, seed=3)
    rep = verify_partition(b.host, part, 3.0, b.delta, dist_matrix=b.host_dist)
    assert rep.ok

    k = len(part.centers)
    assert k >= 2
    # the last cluster merged into the first
    assignment = part.assignment.copy()
    assignment[assignment == k - 1] = 0
    bad = dataclasses.replace(part, assignment=assignment, centers=part.centers[:-1])
    rep = verify_partition(b.host, bad, 3.0, b.delta, dist_matrix=b.host_dist)
    assert find(rep, "partition-total-disjoint").status == "pass"
    assert find(rep, "partition-weak-diameter").status == "fail"
    assert find(rep, "partition-weak-diameter").witness == "cluster 0"

    # out-of-range recorded radius
    radii = part.radii.copy()
    radii[0] = 100.0 * b.delta
    bad = dataclasses.replace(part, radii=radii)
    rep = verify_partition(b.host, bad, 3.0, b.delta, dist_matrix=b.host_dist)
    assert find(rep, "partition-radius-range").status == "fail"

    # a vertex in no cluster
    assignment = part.assignment.copy()
    assignment[0] = -1
    bad = dataclasses.replace(part, assignment=assignment)
    rep = verify_partition(b.host, bad, 3.0, b.delta, dist_matrix=b.host_dist)
    assert find(rep, "partition-total-disjoint").status == "fail"
    assert find(rep, "partition-total-disjoint").witness == f"vertex 0: cluster -1 outside clusters 0..{k - 1}"


def test_weak_diameter_sweep_copies_no_whole_cluster_block():
    # one cluster of the whole host: its distance block is the whole matrix
    f = partial_ktree_fixture(50, 3, seed=1, drop=0.25, delta=4.0)
    emb = td_to_tree_partition(f.graph, f.td)
    host = emb.host
    assert host.n == 188
    part = sample_padded_decomposition(
        host, build_tree_ordered_net(host, emb.tree_partition, f.delta), f.delta, seed=0
    )
    whole = dataclasses.replace(
        part, assignment=np.zeros(host.n, dtype=np.int64), centers=part.centers[:1]
    )
    d = all_pairs(host)
    tracemalloc.start()
    try:
        rep = verify_partition(host, whole, 3.0, f.delta, dist_matrix=d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert find(rep, "partition-weak-diameter").measured == d.max()
    assert peak < d.nbytes // 2, peak


def _total_disjoint_by_loop(n, p):
    """Reference for partition-total-disjoint: one Python pass per vertex,
    then one per cluster."""
    k = len(p.centers)
    if p.assignment.shape != (n,):
        return "fail", f"assignment of shape {p.assignment.shape}, not ({n},)"
    held = [0] * k
    for v in range(n):
        c = int(p.assignment[v])
        if not 0 <= c < k:
            return "fail", f"vertex {v}: cluster {c} outside clusters 0..{k - 1}"
        held[c] += 1
    empty = [c for c in range(k) if not held[c]]
    return ("fail", f"cluster {empty[0]} has no member") if empty else ("pass", None)


def test_partition_total_disjoint_matches_loop_reference():
    b = built(BY_NAME["grid-5"])
    part = sample_padded_decomposition(b.host, b.net, b.delta, seed=1)
    k = len(part.centers)
    assert k >= 2

    def reassigned(v, c):
        a = part.assignment.copy()
        a[v] = c
        return dataclasses.replace(part, assignment=a)

    second = np.flatnonzero(part.assignment == 1)
    variants = [
        part,
        reassigned(int(second[-1]), k),  # an id past the last cluster
        reassigned(int(second[0]), -1),
        dataclasses.replace(part, centers=np.append(part.centers, part.centers[0])),  # an unused id
        dataclasses.replace(part, centers=part.centers[1:]),  # the last id names no cluster
        dataclasses.replace(part, assignment=part.assignment[:-1]),
    ]
    statuses = []
    for p in variants:
        got = find(verify_partition(b.host, p, 3.0, b.delta, b.host_dist), "partition-total-disjoint")
        assert (got.status, got.witness) == _total_disjoint_by_loop(b.host.n, p)
        statuses.append(got.status)
    assert statuses == ["pass"] + ["fail"] * 5


# --- cover checks ------------------------------------------------------------


def test_cover_all_pass_single_cluster():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    tp = TreePartition(bags=(frozenset([0, 1, 2]),), parent=(-1,))
    net = build_tree_ordered_net(g, tp, 2.0)
    cover = build_sparse_cover(g, net, 2.0)
    rows = _oracle_center_distances(g, net)
    counts = (rows <= 3.0 * 2.0).sum(axis=0)
    host_dist = oracle_all_pairs(g, range(3))
    rep = verify_cover(g, cover, 3.0, 2.0, host_dist, counts, rows, net.centers_in_order())
    assert rep.ok


def test_inflated_padding_radius_detected():
    # checking the alpha-3 cover as an alpha-5 one doubles the guaranteed
    # radius, (5-1)*delta/2 = 2*delta; on a path that must break containment
    b = built(BY_NAME["path-30"])
    cover = build_sparse_cover(b.host, b.net, b.delta)
    rep = verify_cover(b.host, cover, 5.0, b.delta, b.host_dist, b.packing_counts, *b.rows)
    assert find(rep, "cover-ball-containment").status == "fail"


def _containment_by_loop(host_dist, mask, radius):
    """cover-ball-containment's verdict and witness, one vertex at a time."""
    for v in range(host_dist.shape[0]):
        inside = host_dist[v] <= radius
        if not any((inside <= row).all() for row in mask if row[v]):
            return False, f"ball around vertex {v} fits in no cluster"
    return True, None


@pytest.mark.parametrize("name", ["path-8", "cycle-16", "grid-5"])
def test_ball_containment_matches_the_per_vertex_loop(name):
    # the sparse cover, members dropped at random, and a vertex in no cluster
    b = built(BY_NAME[name])
    mask = np.zeros((len(b.net.centers_in_order()), b.host.n), dtype=bool)
    for i, c in enumerate(build_sparse_cover(b.host, b.net, b.delta).clusters):
        mask[i, sorted(c.members)] = True
    rng = np.random.default_rng(5)
    masks = [mask, mask & (rng.random(mask.shape) < 0.9), mask & (rng.random(mask.shape) < 0.5)]
    masks.append(mask.copy())
    masks[-1][:, b.host.n // 2] = False
    for radius in (0.0, b.delta, 2 * b.delta, 4 * b.delta):
        for m in masks:
            got = verify._ball_containment(b.host_dist, m, radius)
            assert got == _containment_by_loop(b.host_dist, m, radius)


def _members(cover, i) -> list[int]:
    """Cluster i's members in a cover's CSR table."""
    return cover.members[cover.starts[i] : cover.starts[i + 1]].tolist()


def _with_members(cover, replace):
    """cover with cluster i's members replaced by the ids replace[i]: its CSR
    table rebuilt, every other array kept."""
    groups = [sorted(replace[i]) if i in replace else _members(cover, i) for i in range(len(cover.starts) - 1)]
    members = np.array([v for m in groups for v in m], dtype=np.int64)
    return dataclasses.replace(cover, members=members, starts=np.cumsum([0, *map(len, groups)]))


def _with_cluster(cover, i, center, members, **fields):
    """cover with a cluster of `center` and `members` inserted before cluster
    i in its centers and CSR table, and `fields` replaced."""
    members = np.asarray(members, dtype=np.int64)
    return dataclasses.replace(
        cover,
        centers=np.insert(cover.centers, i, center),
        members=np.insert(cover.members, cover.starts[i], members),
        starts=np.concatenate([cover.starts[: i + 1], cover.starts[i:] + members.size]),
        **fields,
    )


def _renamed_member(cover, old, new):
    """cover with the first entry of member old renamed new, and the index of
    that entry's cluster."""
    members = cover.members.copy()
    at = int(np.flatnonzero(members == old)[0])
    members[at] = new
    return int(np.searchsorted(cover.starts, at, side="right")) - 1, dataclasses.replace(cover, members=members)


def _cover_diameter(b, replace):
    """The cover-strong-diameter entry of the sparse cover with cluster i's
    members replaced by replace[i]."""
    cover = _with_members(build_sparse_cover(b.host, b.net, b.delta), replace)
    rep = verify_cover(b.host, cover, 3.0, b.delta, b.host_dist, b.packing_counts, *b.rows)
    return find(rep, "cover-strong-diameter")


def test_cover_diameter_fault():
    # path-8's cluster 1 is center 1's ball at 3 * delta, vertices 1..13
    b = built(BY_NAME["path-8"])
    cover = build_sparse_cover(b.host, b.net, b.delta)
    assert (cover.centers[1], _members(cover, 1)) == (1, list(range(1, 14)))
    got = _cover_diameter(b, {1: range(1, 13)})
    assert got.status == "fail"
    assert got.witness == "cluster 1: vertex 13 is in the oracle ball of center 1, not a member"


def test_cover_diameter_names_a_far_member():
    # vertex 0 lies outside center 22's descendant subgraph, so no row reaches it
    b = built(BY_NAME["cycle-16"])
    cover = build_sparse_cover(b.host, b.net, b.delta)
    assert cover.centers[5] == 22 and 0 not in _members(cover, 5)
    got = _cover_diameter(b, {5: _members(cover, 5) + [0]})
    assert got.status == "fail"
    assert got.witness == "cluster 5: vertex 0 is a member, not in the oracle ball of center 22"
    assert got.measured is None
    json.dumps(got.to_json_dict(), allow_nan=False)


def test_cover_diameter_fails_a_small_cluster_that_is_no_ball():
    # {11, 13} is connected (a zero-weight edge) and its strong diameter is 0,
    # far inside the bound, but it is not center 11's ball: no certificate
    # reads it, so the check fails where a diameter alone would pass
    b = built(BY_NAME["cycle-16"])
    cover = build_sparse_cover(b.host, b.net, b.delta)
    assert cover.centers[3] == 11 and {11, 13, 14} <= set(_members(cover, 3))
    assert oracle_all_pairs(b.host, [11, 13]).max() == 0.0
    got = _cover_diameter(b, {3: {11, 13}})
    assert got.status == "fail"
    assert got.witness == "cluster 3: vertex 14 is in the oracle ball of center 11, not a member"
    assert (got.measured, got.bound) == (None, 2 * 3.0 * b.delta + verify.TOL)


def _partition_cover_diameter(b, p, j, center=None, members=None):
    """The partition-cover-diameter entry with cluster j of partition p given
    another center or other members."""
    pcover = build_partition_cover(b.host, b.net, b.delta)
    i = pcover.partition_starts[p] + j
    if center is not None:
        centers = pcover.centers.copy()
        centers[i] = center
        pcover = dataclasses.replace(pcover, centers=centers)
    if members is not None:
        pcover = _with_members(pcover, {i: members})
    rep = verify_cover(b.host, pcover, 3.0, b.delta, b.host_dist, b.packing_counts, *b.rows)
    return find(rep, "partition-cover-diameter")


def test_partition_cover_diameter_faults():
    # cycle-16's partition 0 holds net clusters at 0, 11 and 23, then the
    # singletons 8 and 10; vertex 13 is in 11's cluster and no net center
    b = built(BY_NAME["cycle-16"])
    pcover = build_partition_cover(b.host, b.net, b.delta)
    assert pcover.partition_starts[1] >= 5
    kinds = list(zip(pcover.is_net[:5].tolist(), pcover.centers[:5].tolist()))
    assert kinds == [(True, 0), (True, 11), (True, 23), (False, 8), (False, 10)]
    assert 13 not in b.net.centers_in_order()
    got = _partition_cover_diameter(b, 0, 1, center=13)
    assert (got.status, got.witness) == ("fail", "partition 0 cluster 1: center 13 is no net center")
    got = _partition_cover_diameter(b, 0, 3, members=[8, 10])
    assert (got.status, got.witness) == ("fail", "partition 0 cluster 3: vertex 10 is a member, not in {8}")
    got = _partition_cover_diameter(b, 0, 3, members=[])
    assert (got.status, got.witness) == ("fail", "partition 0 cluster 3: vertex 8 is in {8}, not a member")
    got = _partition_cover_diameter(b, 0, 2, members=set(_members(pcover, 2)) - {34})
    assert got.status == "fail"
    assert got.witness == "partition 0 cluster 2: vertex 34 is in the oracle ball of center 23, not a member"


def test_partition_cover_warn_band_and_fail():
    b = built(BY_NAME["grid-5"])
    pcover = build_partition_cover(b.host, b.net, b.delta)
    count = len(pcover.partition_starts) - 1
    rep = verify_cover(b.host, pcover, 3.0, b.delta, b.host_dist, np.full(b.host.n, count - 1), *b.rows)
    assert find(rep, "partition-cover-count").status == "warn"
    rep = verify_cover(b.host, pcover, 3.0, b.delta, b.host_dist, np.full(b.host.n, count - 2), *b.rows)
    assert find(rep, "partition-cover-count").status == "fail"

    # duplicated vertex inside one partition: a singleton {0} after partition 0's last cluster
    first = pcover.partition_starts.copy()
    first[1:] += 1
    i = pcover.partition_starts[1]
    bad = _with_cluster(pcover, i, 0, [0], is_net=np.insert(pcover.is_net, i, False), partition_starts=first)
    rep = verify_cover(b.host, bad, 3.0, b.delta, b.host_dist, b.packing_counts, *b.rows)
    assert find(rep, "partition-cover-partitions-valid").status == "fail"


# --- misc ----------------------------------------------------------------------


def test_sampler_ks_check_passes():
    res = sampler_ks_check(2.5, 1.0, 2.0, draws=50_000, seed=4)
    assert res.status == "pass"


def deep_packing_assertions(g, net, tp, v):
    """Assertions on the ancestor-core chain of one vertex.

    Splits the cores that meet v's 2*delta ancestor net points into greedy
    links anchored at minimum-rank cores; asserts each minimum rank is
    realized by a single core and that every ancestor core in a link
    intersects its anchor's center set.  These are the structural facts the
    packing bound rests on, spot-checked here rather than on every run.
    """
    cores = net.cores
    if not cores:
        raise ValueError("net carries no core table")
    oracle_d = _oracle_center_distances(g, net)
    centers = net.centers_in_order()
    near = {int(centers[i]) for i in np.flatnonzero(oracle_d[:, v] <= 2 * net.delta)}
    meeting = [c for c in cores if c.members & near]
    remaining = sorted((c for c in meeting if v not in c.members), key=lambda c: c.id)
    tin, tout = tp.bag_intervals()
    while remaining:
        lowest = min(c.rank for c in remaining)
        lowest_cores = [c for c in remaining if c.rank == lowest]
        assert len(lowest_cores) == 1, (
            f"vertex {v}: {len(lowest_cores)} chain cores share minimum rank {lowest}"
        )
        anchor = lowest_cores[0]
        at = tin[anchor.center_bag]
        link = [c for c in remaining if tin[c.center_bag] <= at < tout[c.center_bag]]
        for c in link:
            assert c is anchor or c.members & anchor.centers, (
                f"vertex {v}: core {c.id} in chain link misses the center of core {anchor.id}"
            )
        remaining = [c for c in remaining if c not in link]


def test_deep_packing_assertions_hold():
    for name in ["path-30", "cycle-16", "grid-5"]:
        b = built(BY_NAME[name])
        for v in range(0, b.host.n, max(1, b.host.n // 10)):
            deep_packing_assertions(b.host, b.net, b.tp, v)


# --- the oracle's center rows ---------------------------------------------------


def _random_fixture(ktree, n, k, graph_seed, delta):
    if ktree:
        return partial_ktree_fixture(n, k, seed=graph_seed, drop=0.3, weighted=True, delta=delta)
    return weighted_path_fixture(n, seed=graph_seed, delta=delta)


def _host_and_net(f):
    emb = td_to_tree_partition(f.graph, f.td)
    return emb.host, build_tree_ordered_net(emb.host, emb.tree_partition, f.delta)


def _floyd_warshall_center_rows(host, net):
    """Each center's all-pairs oracle row in its descendant subgraph, thresholded
    at center_radius."""
    rows = np.zeros((0, host.n))
    for x in net.centers_in_order().tolist():
        full = dense_oracle(host, np.flatnonzero(descendant_mask(net, x)))
        rows = np.vstack([rows, full[x]])
    return np.where(rows <= net.center_radius, rows, np.inf)


@given(
    ktree=st.booleans(),
    n=st.integers(6, 30),
    k=st.integers(1, 3),
    graph_seed=st.integers(0, 10**6),
    delta=st.sampled_from([1.0, 2.0, 8.0, 40.0]),
    scale=st.sampled_from([1.0, 0.5, 0.125]),
)
@example(ktree=True, n=30, k=3, graph_seed=0, delta=2.0, scale=0.5)
@settings(max_examples=40, deadline=None)
def test_center_rows_match_floyd_warshall(ktree, n, k, graph_seed, delta, scale):
    # integer weights, or dyadic ones: every sum is exact, in any order
    f = _random_fixture(ktree, n, k, graph_seed, delta)
    g = WeightedGraph(f.graph.n, [(u, v, w * scale) for u, v, w in f.graph.edges])
    host, net = _host_and_net(Fixture(f.name, g, f.td, delta * scale))
    rows = _oracle_center_distances(host, net)
    assert rows.shape == (len(net.centers_in_order()), host.n)
    assert np.array_equal(rows, _floyd_warshall_center_rows(host, net))


@given(
    ktree=st.booleans(),
    n=st.integers(6, 40),
    k=st.integers(1, 3),
    graph_seed=st.integers(0, 10**6),
    delta=st.sampled_from([0.5, 1.0, 2.0]),
)
@example(ktree=True, n=30, k=3, graph_seed=21, delta=1.0)
@settings(max_examples=40, deadline=None)
def test_center_rows_match_bounded_dijkstra_on_decimal_weights(ktree, n, k, graph_seed, delta):
    # decimal sums depend on their order; both sum each path in path order
    f = decimal_weight_fixture(_random_fixture(ktree, n, k, graph_seed, delta), seed=graph_seed)
    host, net = _host_and_net(f)
    rows = _oracle_center_distances(host, net)
    expected = np.zeros((0, host.n))
    for x in net.centers_in_order().tolist():
        row = shortest_paths(host, descendant_mask(net, x), [x], limit=net.center_radius)
        expected = np.vstack([expected, row])
    assert rows.tobytes() == expected.tobytes()
    assert rows.tobytes() == net.center_distance_matrix().tobytes()


def test_center_rows_of_a_net_without_centers():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    empty = TreeOrderedNet(
        net=vertex_mask(3), order_parent=(-1,), node_vertex=(None,), assign=np.zeros(3, dtype=int),
        alpha=3.0, delta=1.0, tp_width=1, cores=(), g=g,
    )
    assert _oracle_center_distances(g, empty).shape == (0, 3)


# --- the bounded center table, the core snapshot, the unique maximum ----------


def with_entries(net, vertex, rank, dist):
    tampered = copy.copy(net)
    tampered._entries = (vertex, rank, dist)
    return tampered


def test_tampered_center_table_fails_oracle_agreement():
    b = built(BY_NAME["path-30"])
    rep = verify_net(b.host, b.net, b.delta, b.center_dist)
    assert find(rep, "net-distance-oracle-agreement").status == "pass"

    # the oracle's center rows end at center_radius, as the table does; the
    # true distance beyond it comes from the all-pairs oracle
    centers = b.net.centers_in_order()
    oracle_d = np.stack([
        dense_oracle(b.host, np.flatnonzero(descendant_mask(b.net, x)))[x]
        for x in centers.tolist()
    ])
    vertex, rank, dist = b.net.center_entries()
    far = np.argwhere(np.isfinite(oracle_d) & (oracle_d > b.net.center_radius))
    near = np.flatnonzero(dist > 0)
    assert far.size and near.size
    (i, v), e = far[0], near[len(near) // 2]

    # the true distance, but past the radius, at its place in (vertex, rank) order
    k = len(oracle_d)
    at = np.searchsorted(vertex * k + rank, v * k + i)
    inserted = zip((vertex, rank, dist), (v, i, oracle_d[i, v]))
    finite_beyond = tuple(np.insert(a, at, x) for a, x in inserted)
    wrong_inside = (vertex, rank, dist.copy())
    wrong_inside[2][e] = np.nextafter(dist[e], np.inf)
    inf_inside = tuple(np.delete(a, e) for a in (vertex, rank, dist))
    listed_twice = tuple(np.insert(a, e, a[e]) for a in (vertex, rank, dist))
    for tampered in (finite_beyond, wrong_inside, inf_inside, listed_twice):
        rep = verify_net(b.host, with_entries(b.net, *tampered), b.delta, b.center_dist)
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
    # a center outside the host
    for center in (b.host.n, -1):
        checks = _tampered_core_checks(b, last, centers=last.centers | {center})
        assert "centers outside" in checks["core-ball-replay"].witness


def test_misplaced_attachment_names_its_smallest_vertex():
    # core 2 of cycle-16 is carved at bag 7, below its component's root, so its
    # members go to the attachment of bag 7's parent, bag 6; planted vertices
    # of bag 6 itself and of the root bag 0 are not proper descendants of it
    b = built(BY_NAME["cycle-16"])
    core = next(c for c in b.construction.cores if c.id == 2)
    assert (core.center_bag, b.tp.parent[core.center_bag]) == (7, 6)
    bag_of = b.tp.bag_of()
    for planted, witness in (
        ({6}, "attachment of bag 6 holds vertex 18 of bag 6, not a proper descendant"),
        ({6, 0}, "attachment of bag 6 holds vertex 0 of bag 0, not a proper descendant"),
    ):
        extra = frozenset(np.flatnonzero(np.isin(bag_of, list(planted))).tolist())
        checks = _tampered_core_checks(b, core, members=core.members | extra)
        assert checks["attachments-descendant-only"].witness == witness


def test_replay_reads_the_edge_list_once(monkeypatch):
    # each core's replay costs its ball: the edge lists are built once per
    # call, not once per core
    b = built(weighted_path_fixture(60, 0))
    calls = []
    monkeypatch.setattr(verify, "_edge_lists", lambda g: calls.append(g) or _edge_lists(g))
    checks = verify_cores(b.host, b.tp, b.delta, b.construction)
    assert all(c.status == "pass" for c in checks)
    assert len(b.construction.cores) > 30 and calls == [b.host]


@pytest.mark.parametrize("center_bag", ["len", -1])
def test_center_bag_outside_partition_fails_without_raising(center_bag):
    b = built(BY_NAME["cycle-16"])
    last = b.construction.cores[-1]
    nb = len(b.tp.bags)
    bag = nb if center_bag == "len" else center_bag
    checks = _tampered_core_checks(b, last, center_bag=bag)
    witness = f"core {last.id}: center bag {bag} outside bags 0..{nb - 1}"
    for name in ("core-members-in-center-subtree", "core-centers-in-center-bag", "core-ball-replay"):
        assert checks[name].status == "fail"
        assert checks[name].witness == witness
    assert checks["core-members-in-support"].status == "fail"
    assert checks["noncenter-rank-drop"].status == "pass"


def _renamed(items, old, new):
    """items with member old renamed new in the first item holding it, and that item's index."""
    i = next(i for i, x in enumerate(items) if old in x.members)
    moved = dataclasses.replace(items[i], members=items[i].members - {old} | {new})
    return i, (*items[:i], moved, *items[i + 1 :])


def _core_record(b, v):
    i, cores = _renamed(b.construction.cores, b.host.n - 1, v)
    bad = dataclasses.replace(b.construction, cores=list(cores))
    checks = verify_cores(b.host, b.tp, b.delta, bad)
    witness = f"core {cores[i].id}: member {v} outside vertices 0..{b.host.n - 1}"
    names = ("core-members-in-center-subtree", "core-centers-in-center-bag", "core-ball-replay")
    return checks, {name: witness for name in names} | {"cores-cover-all-vertices": None}


def _partition_record(b, v):
    # a partition is its assignment: vertex n - 1 gets cluster id v instead
    part = sample_padded_decomposition(b.host, b.net, b.delta, seed=0)
    assignment = part.assignment.copy()
    assignment[b.host.n - 1] = v
    bad = dataclasses.replace(part, assignment=assignment)
    rep = verify_partition(b.host, bad, 3.0, b.delta, dist_matrix=b.host_dist)
    witness = f"vertex {b.host.n - 1}: cluster {v} outside clusters 0..{len(part.centers) - 1}"
    return rep.checks, {"partition-total-disjoint": witness}


def _sparse_cover_record(b, v):
    i, bad = _renamed_member(build_sparse_cover(b.host, b.net, b.delta), b.host.n - 1, v)
    rep = verify_cover(b.host, bad, 3.0, b.delta, b.host_dist, b.packing_counts, *b.rows)
    witness = f"cluster {i}: member {v} outside vertices 0..{b.host.n - 1}"
    return rep.checks, {"cover-every-vertex-covered": witness}


def _partition_cover_record(b, v):
    pcover = build_partition_cover(b.host, b.net, b.delta)
    i, bad = _renamed_member(pcover, b.host.n - 1, v)
    p = int(np.searchsorted(pcover.partition_starts, i, side="right")) - 1
    rep = verify_cover(b.host, bad, 3.0, b.delta, b.host_dist, b.packing_counts, *b.rows)
    witness = f"partition {p}: member {v} outside vertices 0..{b.host.n - 1}"
    return rep.checks, {"partition-cover-partitions-valid": witness}


def _host_bags_record(b, v):
    bags = b.tp.bags
    i = next(i for i, bag in enumerate(bags) if b.host.n - 1 in bag)
    moved = bags[i] - {b.host.n - 1} | {v}
    tp = dataclasses.replace(b.tp, bags=(*bags[:i], moved, *bags[i + 1 :]))
    emb = dataclasses.replace(b.embedding, tree_partition=tp)
    checks = verify_embedding(b.graph, b.td, emb, oracle_cap=b.host.n)
    witness = f"bag {i}: member {v} outside host vertices 0..{b.host.n - 1}"
    # vertex n - 1 is now in no bag, so no edge at it fits the tree
    return checks, {"host-bags-partition": witness, "host-edge-validity": None}


@pytest.mark.parametrize("outside", ["n", -1])
@pytest.mark.parametrize(
    "record",
    [_core_record, _partition_record, _sparse_cover_record, _partition_cover_record, _host_bags_record],
    ids=["cores", "partition", "sparse-cover", "partition-cover", "host-bags"],
)
def test_member_outside_vertices_fails_without_raising(record, outside):
    # vertex n, or -1 standing in for vertex n - 1, in place of vertex n - 1
    b = built(BY_NAME["cycle-16"])
    v = b.host.n if outside == "n" else -1
    checks, expected = record(b, v)
    for name, witness in expected.items():
        assert find_check(checks, name).status == "fail", name
        if witness is not None:
            assert find_check(checks, name).witness == witness, name


@pytest.mark.parametrize("outside", ["n", -1])
def test_embedding_entry_outside_host_fails_without_raising(outside):
    # a forward entry, or a copy, naming host vertex n, or -1 standing in for n - 1
    b = built(BY_NAME["cycle-16"])
    emb, n = b.embedding, b.host.n
    v = n if outside == "n" else -1
    last = b.graph.n - 1
    forward = emb.forward.copy()
    forward[last] = v
    checks = verify_embedding(b.graph, b.td, dataclasses.replace(emb, forward=forward), n)
    assert find_check(checks, "isometry-exact").status == "fail"
    assert find_check(checks, "isometry-exact").witness == (
        f"vertex {last}: forward {v} outside host vertices 0..{n - 1}"
    )
    assert find_check(checks, "copy-zero-distance").status == "pass"

    copies = (*emb.copies[:-1], (*emb.copies[-1], v))
    checks = verify_embedding(b.graph, b.td, dataclasses.replace(emb, copies=copies), n)
    assert find_check(checks, "copy-zero-distance").status == "fail"
    assert find_check(checks, "copy-zero-distance").witness == (
        f"vertex {last}: copy {v} outside host vertices 0..{n - 1}"
    )
    assert find_check(checks, "isometry-exact").status == "pass"


def test_isometry_witness_names_input_vertices():
    # forward[0] points at vertex 1's copy: condition (a), no measured value
    b = built(BY_NAME["path-8"])
    forward = b.embedding.forward.copy()
    forward[0] = forward[1]
    checks = verify_embedding(b.graph, b.td, dataclasses.replace(b.embedding, forward=forward), b.host.n)
    c = find_check(checks, "isometry-exact")
    assert (c.status, c.measured) == ("fail", None)
    assert c.witness == f"vertex 0: forward {forward[1]} is a copy of vertex 1"
    json.dumps([x.to_json_dict() for x in checks], allow_nan=False)


# --- the isometry certificate ---------------------------------------------------

ISOMETRY_FIXTURES = [
    *acceptance_fixtures(),
    decimal_weight_fixture(partial_ktree_fixture(50, 3, seed=4, delta=1.0), seed=4),
    decimal_weight_fixture(partial_ktree_fixture(35, 2, seed=12, drop=0.4, delta=1.0), seed=5),
    decimal_weight_fixture(grid_fixture(5, delta=1.0), seed=6),
    shuffled_ids(partial_ktree_fixture(40, 3, seed=22, drop=0.3, delta=2.0), seed=1),
    shuffled_ids(grid_fixture(4), seed=2),
]
_CONVERTED: dict[str, IsometricEmbedding] = {}


def _converted(f: Fixture) -> IsometricEmbedding:
    if f.name not in _CONVERTED:
        _CONVERTED[f.name] = td_to_tree_partition(f.graph, f.td)
    return _CONVERTED[f.name]


def _isometry_fault(g: WeightedGraph, emb: IsometricEmbedding) -> str | None:
    """The certificate on emb's record, its copies read as _embedding_checks reads them."""
    owner, member, _ = verify._memberships(emb.copies, emb.host.n)
    return verify._isometry_fault(g, emb.host, emb.forward, owner, member)


def _isometry_rows(g: WeightedGraph, emb: IsometricEmbedding) -> tuple[np.ndarray, np.ndarray]:
    """The all-vertex Bellman-Ford rows of g, and of the host from the
    designated copies read at the designated copies: what the certificate implies."""
    fwd = emb.forward
    dg = _bellman_ford_rows(_edge_lists(g), np.arange(g.n), bytes(g.n), 0, 1, np.inf)
    dh = _bellman_ford_rows(_edge_lists(emb.host), fwd, bytes(emb.host.n), 0, 1, np.inf)
    return dg, dh[:, fwd]


@pytest.mark.parametrize("fixture", ISOMETRY_FIXTURES, ids=lambda f: f.name)
def test_isometry_certificate_passes_every_conversion(fixture):
    emb = _converted(fixture)
    assert _isometry_fault(fixture.graph, emb) is None
    dg, dh = _isometry_rows(fixture.graph, emb)
    assert dg.tobytes() == dh.tobytes()


# each planted fault and the witness prefix of the condition that must catch it;
# an extra edge over an edge of g, no lighter than it, changes no distance
TAMPERINGS = {
    "raised": "edge (",  # (c)
    "lowered": "host edge (",  # (b)
    "dropped": "edge (",  # (c)
    "dropped-zero": "copy ",  # (d)
    "extra": "host edge (",  # (b), or no fault
    "swapped-forward": "vertex ",  # (a)
    "two-copies": "host vertex ",  # (a)
}


def _tampered(g: WeightedGraph, emb: IsometricEmbedding, how: str, pick) -> IsometricEmbedding | None:
    """emb with one fault of kind `how` planted where pick(candidates) says;
    None when emb has no place for it or the host would fall apart."""
    host, forward, copies = emb.host, emb.forward.copy(), list(emb.copies)
    orig = np.empty(host.n, dtype=np.int64)
    for v, held in enumerate(copies):
        orig[list(held)] = v
    edges = list(host.edges)
    cross = [i for i, (a, b, _) in enumerate(edges) if orig[a] != orig[b]]
    zero = [i for i, (a, b, _) in enumerate(edges) if orig[a] == orig[b]]
    if how in ("raised", "lowered", "dropped") or (how == "dropped-zero" and zero):
        i = pick(zero if how == "dropped-zero" else cross)
        a, b, w = edges.pop(i)
        if how == "raised":
            edges.append((a, b, pick([float(np.nextafter(w, np.inf)), w + 1.0])))
        elif how == "lowered":
            edges.append((a, b, pick([float(np.nextafter(w, 0.0)), w / 2])))
    elif how == "extra":
        weight = {(u, v): w for u, v, w in g.edges}
        a = pick(range(host.n))
        near = [h for h in range(host.n) if (min(orig[a], orig[h]), max(orig[a], orig[h])) in weight]
        b = pick(pick([near, [h for h in range(host.n) if orig[h] != orig[a]]]))
        w = weight.get((min(orig[a], orig[b]), max(orig[a], orig[b])), 1.0)
        edges.append((a, b, pick([w, float(np.nextafter(w, np.inf)), w + 1.0, float(np.nextafter(w, 0.0)), 0.0])))
    elif how == "swapped-forward":
        u = pick(range(g.n))
        v = pick([x for x in range(g.n) if x != u])
        forward[u], forward[v] = forward[v], forward[u]
    elif how == "two-copies":
        h = pick(range(host.n))
        u = pick([x for x in range(g.n) if x != orig[h]])
        copies[u] = (*copies[u], h)
    else:
        return None
    try:
        host = WeightedGraph(host.n, edges)
    except GraphFormatError:  # a dropped bridge
        return None
    return dataclasses.replace(emb, host=host, forward=forward, copies=tuple(copies))


@pytest.mark.parametrize("fixture", ISOMETRY_FIXTURES, ids=lambda f: f.name)
@given(how=st.sampled_from(sorted(TAMPERINGS)), rnd=st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_isometry_certificate_is_sound(fixture, how, rnd):
    # whatever passes the certificate has the distances the rows would compare,
    # bit for bit, and every fault but a harmless extra edge is caught by its condition
    g = fixture.graph
    emb = _tampered(g, _converted(fixture), how, rnd.choice)
    if emb is None:
        return
    fault = _isometry_fault(g, emb)
    if fault is None:
        assert how == "extra"
        dg, dh = _isometry_rows(g, emb)
        assert dg.tobytes() == dh.tobytes()
    else:
        assert fault.startswith(TAMPERINGS[how]), fault


@pytest.mark.parametrize(
    "edit,witness",
    [
        (dict(drop=(1, 2), add=(1, 2, 1.5)), "edge (1,2) of g, weight 1.0: no host edge over it of that weight"),
        (
            dict(drop=(1, 2), add=(1, 2, 0.5)),
            "host edge (1,2) weight 0.5 lies over no edge of g between 1 and 2 of weight <= 0.5",
        ),
        (dict(drop=(1, 2)), "edge (1,2) of g, weight 1.0: no host edge over it of that weight"),
        (dict(drop=(2, 4)), "copy 4 of vertex 2 is joined to forward 2 by no zero-weight path"),
        (
            dict(add=(1, 5, 0.5)),
            "host edge (1,5) weight 0.5 lies over no edge of g between 1 and 3 of weight <= 0.5",
        ),
        (dict(swap=(1, 2)), "vertex 1: forward 2 is a copy of vertex 2"),
        (dict(copy=(4, 1)), "host vertex 4 is a copy of vertices 1 and 2"),
        (dict(cut=15), "forward lists 15 vertices, g has 16"),
    ],
    ids=["raised", "lowered", "dropped", "dropped-zero", "extra", "swapped-forward", "two-copies", "short-forward"],
)
def test_isometry_failure_names_its_condition(edit, witness):
    # cycle-16's host: vertex 1's one copy is host 1, vertex 2's are 2 and 4
    # (joined by a zero-weight edge), vertex 3's first is 5; g's edge (1,2)
    # lies under host edge (1,2) of weight 1
    b = built(BY_NAME["cycle-16"])
    emb = b.embedding
    assert emb.copies[1:4] == ((1,), (2, 4), (5, 7)) and (1, 2, 1.0) in emb.host.edges
    edges = [e for e in emb.host.edges if e[:2] != edit.get("drop")]
    if "add" in edit:
        edges.append(edit["add"])
    forward, copies = emb.forward[: edit.get("cut")].copy(), list(emb.copies)
    if "swap" in edit:
        u, v = edit["swap"]
        forward[u], forward[v] = forward[v], forward[u]
    if "copy" in edit:
        h, v = edit["copy"]
        copies[v] = (*copies[v], h)
    bad = IsometricEmbedding(WeightedGraph(b.host.n, edges), emb.tree_partition, forward, tuple(copies))
    checks = verify_embedding(b.graph, b.td, bad, b.host.n)
    c = find_check(checks, "isometry-exact")
    assert (c.status, c.measured, c.bound, c.witness) == ("fail", None, 0.0, witness)
    json.dumps([x.to_json_dict() for x in checks], allow_nan=False)


@pytest.mark.parametrize("bag", ["len", -1])
def test_component_bag_outside_partition_fails_without_raising(bag):
    b = built(BY_NAME["cycle-16"])
    nb = len(b.tp.bags)
    bag = nb if bag == "len" else bag
    comps = list(b.construction.components)
    comps[-1] = dataclasses.replace(comps[-1], bags=comps[-1].bags | {bag})
    bad = dataclasses.replace(b.construction, components=comps)
    checks = verify_cores(b.host, b.tp, b.delta, bad)
    assert find_check(checks, "core-ball-replay").status == "fail"
    assert find_check(checks, "core-ball-replay").witness == (
        f"component {len(comps) - 1}: bag {bag} outside bags 0..{nb - 1}"
    )
    # the bag is left out of the replay: every other replayed check still passes
    assert find_check(checks, "core-members-in-support").status == "pass"
    assert find_check(checks, "attachments-descendant-only").status == "pass"


@pytest.mark.parametrize("member", [2**64, -(2**63) - 1])
def test_member_beyond_int64_fails_without_raising(member):
    # a core's frozenset can hold any int; the int64 arrays of a partition
    # and of both covers cannot, so a core stands for the sets
    b = built(BY_NAME["path-8"])
    checks, expected = _core_record(b, member)
    for name, witness in expected.items():
        assert find_check(checks, name).status == "fail", name
        if witness is not None:
            assert find_check(checks, name).witness == witness, name


@pytest.mark.parametrize("kind", ["partition", "sparse-cover", "partition-cover"])
def test_cluster_of_outside_members_only_fails_without_raising(kind):
    # an extra cluster {n, n + 1}: nothing of it is left in range to measure
    b = built(BY_NAME["cycle-16"])
    n = b.host.n
    outside = frozenset([n, n + 1])
    witness = f"member {next(iter(outside))} outside vertices 0..{n - 1}"
    if kind == "partition":
        # a partition lists no members: the extra cluster is an id no vertex has
        part = sample_padded_decomposition(b.host, b.net, b.delta, seed=0)
        bad = dataclasses.replace(part, centers=np.append(part.centers, n))
        checks = verify_partition(b.host, bad, 3.0, b.delta, dist_matrix=b.host_dist).checks
        name, witness = "partition-total-disjoint", f"cluster {len(part.centers)} has no member"
    elif kind == "sparse-cover":
        cover = build_sparse_cover(b.host, b.net, b.delta)
        k = len(cover.centers)
        bad = _with_cluster(cover, k, n, sorted(outside))
        checks = verify_cover(b.host, bad, 3.0, b.delta, b.host_dist, b.packing_counts, *b.rows).checks
        name, witness = "cover-every-vertex-covered", f"cluster {k}: {witness}"
    else:
        pcover = build_partition_cover(b.host, b.net, b.delta)
        first, k = pcover.partition_starts, len(pcover.centers)
        bad = _with_cluster(
            pcover, k, n, sorted(outside), is_net=np.append(pcover.is_net, True), partition_starts=np.append(first, k + 1)
        )
        checks = verify_cover(b.host, bad, 3.0, b.delta, b.host_dist, b.packing_counts, *b.rows).checks
        name, witness = "partition-cover-partitions-valid", f"partition {len(first) - 1}: {witness}"
    assert find_check(checks, name).status == "fail"
    assert find_check(checks, name).witness == witness


def reference_maximal(parent, node_of, members) -> int:
    """Members below no other member, by a double loop, with vertex v at node
    node_of[v] of the parent-pointer tree."""
    idx = members.tolist()
    return sum(
        1
        for u in idx
        if not any(v != u and is_ancestor(parent, node_of[v], node_of[u]) for v in idx)
    )


def unique_maximum_check(g, order):
    rep = verify_net(g, order, 1.0, _oracle_center_distances(g, order))
    return find(rep, "connected-subset-unique-maximum")


def first_shared_node(node_of) -> str | None:
    """The expected witness of a non-injective order: the first vertex at a
    node an earlier vertex holds, and that node's first vertex."""
    first = {}
    for v, x in enumerate(np.asarray(node_of).tolist()):
        if x in first:
            return f"vertices {first[x]},{v} share an order node"
        first[x] = v
    return None


def neighbours(g) -> list[set[int]]:
    adj = [set() for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def elimination_order(g, rng) -> tuple[list[int], np.ndarray]:
    """An injective order valid for g's edges: a random vertex of each
    connected set is the parent of the orders of the components it leaves."""
    adj = neighbours(g)
    parent, node_of = [], np.zeros(g.n, dtype=np.int64)
    stack = [(set(range(g.n)), -1)]
    while stack:
        left, above = stack.pop()
        root = int(rng.choice(sorted(left)))
        node_of[root] = len(parent)
        parent.append(above)
        left.discard(root)
        while left:
            comp, todo = set(), [min(left)]
            while todo:
                v = todo.pop()
                if v not in comp:
                    comp.add(v)
                    todo.extend(adj[v] & left)
            stack.append((comp, int(node_of[root])))
            left -= comp
    return parent, node_of


def connected_subsets(g):
    adj = neighbours(g)
    for bits in range(1, 2**g.n):
        members = {v for v in range(g.n) if bits >> v & 1}
        seen, todo = set(), [min(members)]
        while todo:
            v = todo.pop()
            if v not in seen:
                seen.add(v)
                todo.extend(adj[v] & members)
        if seen == members:
            yield np.array(sorted(members))


def test_unique_maximum_check_implies_one_maximal_member():
    # small random graphs under valid orders, some with a vertex moved to a
    # random node or onto another vertex's node: whenever the check passes,
    # every connected subset has exactly one maximal member, and it fails
    # exactly on an incomparable edge or a shared node
    rng = np.random.default_rng(26)
    passed = failed = 0
    for _ in range(120):
        n = int(rng.integers(2, 9))
        edges = [(i, int(rng.integers(i)), 1.0) for i in range(1, n)]
        edges += [(int(u), int(v), 1.0) for u, v in rng.integers(n, size=(3, 2)) if u != v]
        g = WeightedGraph(n, edges)
        parent, node_of = elimination_order(g, rng)
        u, v = rng.choice(n, size=2, replace=False).tolist()
        change = rng.integers(3)
        if change == 1:
            node_of[v] = rng.integers(len(parent))
        elif change == 2:
            node_of[v] = node_of[u]
        check = unique_maximum_check(g, order_over(g, parent, node_of))
        bad_edge = next(
            (
                f"edge ({a},{b}) order-incomparable"
                for a, b, _ in g.edges
                if not (
                    is_ancestor(parent, node_of[a], node_of[b])
                    or is_ancestor(parent, node_of[b], node_of[a])
                )
            ),
            None,
        )
        assert check.witness == (bad_edge or first_shared_node(node_of))
        if check.status == "pass":
            passed += 1
            for members in connected_subsets(g):
                assert reference_maximal(parent, node_of, members) == 1, members
        else:
            failed += 1
    assert passed > 30 and failed > 30, (passed, failed)


@pytest.mark.parametrize(
    "name", ["path-8", "wpath-12", "cycle-16", "grid-5", "btree-4", "sp-35d", "ktree3-30"]
)
def test_unique_maximum_on_built_orders(name):
    # the net's order passes, and every ball (a connected set) has one maximal
    # member; the semi order puts several vertices on one bag and fails
    b = built(BY_NAME[name])
    assert unique_maximum_check(b.host, b.net).status == "pass"
    rng = np.random.default_rng(len(name))
    everything = b.host.all_vertices()
    for _ in range(20):
        center = int(rng.integers(b.host.n))
        members = np.flatnonzero(ball(b.host, everything, [center], float(rng.uniform(0, 4 * b.delta))))
        assert reference_maximal(b.net.order_parent, b.net.assign, members) == 1
    semi = unique_maximum_check(b.host, order_over(b.host, b.tp.parent, b.semi))
    assert semi.status == "fail"
    assert semi.witness == first_shared_node(b.semi)
