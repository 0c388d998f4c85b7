import numpy as np
import pytest
from fixtures import acceptance_fixtures

from padnet.graph import GraphFormatError, WeightedGraph
from padnet.trees import (
    TdValidationError,
    TreeDecomposition,
    TreePartition,
    load_tree_decomposition,
    td_to_tree_partition,
)
from padnet.verify import oracle_all_pairs

PATH3 = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])

PATH3_TD = """c a path
s td 2 2 3
b 1 1 2
b 2 2 3
1 2
"""


def test_load_path_td():
    td = load_tree_decomposition(PATH3_TD, PATH3)
    assert td.width == 1
    assert td.bags == (frozenset({0, 1}), frozenset({1, 2}))
    assert td.parent == (-1, 0)


def test_load_triangle_single_bag():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    td = load_tree_decomposition("s td 1 3 3\nb 1 1 2 3\n", g)
    assert td.width == 2


def test_uncovered_edge_rejected():
    bad = "s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n"
    with pytest.raises(TdValidationError) as err:
        load_tree_decomposition(bad, PATH3)
    assert "(2,3)" in str(err.value)


def test_unknown_vertex_rejected():
    bad = "s td 2 2 3\nb 1 1 2\nb 2 2 3 9\n1 2\n"
    with pytest.raises(TdValidationError) as err:
        load_tree_decomposition(bad, PATH3)
    assert "unknown vertex 9" in str(err.value)


def test_disconnected_vertex_subtree_rejected():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    bad = "s td 3 3 4\nb 1 1 2\nb 2 2 3 4\nb 3 4 1\n1 2\n2 3\n"
    with pytest.raises(TdValidationError) as err:
        load_tree_decomposition(bad, g)
    assert "connected subtree" in str(err.value)


def test_malformed_td_lines():
    with pytest.raises(GraphFormatError):
        load_tree_decomposition("b 1 1 2\n", PATH3)  # bag before header
    with pytest.raises(GraphFormatError):
        load_tree_decomposition("s td 2 2 3\nb 1 1 2\nb 1 2 3\n1 2\n", PATH3)  # dup bag
    with pytest.raises(GraphFormatError):
        load_tree_decomposition("s td 2 2 3\nb 1 1 2\nb 2 2 3\n", PATH3)  # missing edge


def test_conversion_on_two_bag_path():
    td = load_tree_decomposition(PATH3_TD, PATH3)
    emb = td_to_tree_partition(PATH3, td)
    host = emb.host
    assert host.n == 4
    # one zero edge between the two copies of the middle vertex, two unit edges
    weights = sorted(w for _, _, w in host.edges)
    assert weights == [0.0, 1.0, 1.0]
    assert emb.copies[1] == (1, 2)
    d = oracle_all_pairs(host, range(host.n), cap=10)
    assert d[emb.forward[0], emb.forward[2]] == 2.0


def test_single_bag_identity():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0)])
    td = TreeDecomposition(bags=(frozenset({0, 1, 2}),), parent=(-1,))
    emb = td_to_tree_partition(g, td)
    assert emb.host.n == 3
    assert emb.host.edges == g.edges
    assert [len(c) for c in emb.copies] == [1, 1, 1]


def test_empty_leaf_bag_accepted():
    td = load_tree_decomposition("s td 3 2 3\nb 1 1 2\nb 2 2 3\nb 3\n1 2\n2 3\n", PATH3)
    emb = td_to_tree_partition(PATH3, td)
    assert emb.host.n == 4
    assert [len(b) for b in emb.tree_partition.bags] == [2, 2, 0]


def test_empty_bag_cannot_break_vertex_subtree():
    bad = "s td 3 2 3\nb 1 1 2\nb 2\nb 3 2 3\n1 2\n2 3\n"
    with pytest.raises(TdValidationError):
        load_tree_decomposition(bad, PATH3)


def test_tree_partition_validation():
    g = PATH3
    with pytest.raises(TdValidationError):
        TreePartition(bags=(frozenset({0}), frozenset({0, 1, 2})), parent=(-1, 0)).validate(g)
    with pytest.raises(TdValidationError):
        # edge (0,1) spans two bags that are not parent-child
        TreePartition(
            bags=(frozenset({2}), frozenset({0}), frozenset({1})), parent=(-1, 0, 0)
        ).validate(g)


def test_bag_trees_share_structure_and_ancestor_queries():
    # bag 0 roots children 1 and 3; bag 2 hangs below 1
    parent = (-1, 0, 1, 0)
    bags = tuple(frozenset({i}) for i in range(4))
    for tree in (TreeDecomposition(bags, parent), TreePartition(bags, parent)):
        assert [a.tolist() for a in tree.bag_intervals()] == [[0, 1, 2, 3], [4, 3, 3, 4]]
        assert tree.level == [0, 1, 2, 1]
        ancestors = {(a, b) for a in range(4) for b in range(4) if tree.is_bag_ancestor(a, b)}
        assert ancestors == {(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 2), (3, 3)}
    with pytest.raises(TdValidationError, match="single rooted tree"):
        TreePartition(bags, (-1, 2, 1, 0))


@pytest.mark.parametrize("fixture", acceptance_fixtures(), ids=lambda f: f.name)
def test_conversion_isometric_on_fixtures(fixture):
    g, td = fixture.graph, fixture.td
    emb = td_to_tree_partition(g, td)
    host, tp = emb.host, emb.tree_partition
    tp.validate(host)
    assert tp.width == td.max_bag_size
    dg = oracle_all_pairs(g, range(g.n), cap=g.n)
    dh = oracle_all_pairs(host, range(host.n), cap=host.n)
    fwd = emb.forward
    assert np.array_equal(dh[np.ix_(fwd, fwd)], dg)
    for copies in emb.copies:
        idx = np.array(copies)
        assert dh[np.ix_(idx, idx)].max() == 0.0


def reference_validate(td: TreeDecomposition, g: WeightedGraph) -> str | None:
    """The quadratic validate the linear one replaced; returns its first error."""
    seen = set()
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not 0 <= v < g.n:
                return f"bag {i + 1} references unknown vertex {v + 1}"
        seen |= bag
    if seen != set(range(g.n)):
        return f"vertex {min(set(range(g.n)) - seen) + 1} appears in no bag"
    for u, v, _ in g.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            return f"edge ({u + 1},{v + 1}) is covered by no bag"
    adjacent = [[] for _ in td.bags]
    for b, p in enumerate(td.parent):
        if p != -1:
            adjacent[b].append(p)
            adjacent[p].append(b)
    for x in range(g.n):
        holding = [i for i, bag in enumerate(td.bags) if x in bag]
        reached, stack = {holding[0]}, [holding[0]]
        while stack:
            b = stack.pop()
            for nb in adjacent[b]:
                if nb in holding and nb not in reached:
                    reached.add(nb)
                    stack.append(nb)
        if reached != set(holding):
            return f"bags containing vertex {x + 1} do not form a connected subtree"
    return None


def validate_error(td: TreeDecomposition, g: WeightedGraph) -> str | None:
    try:
        td.validate(g)
    except TdValidationError as exc:
        return str(exc)
    return None


ERROR_KINDS = (
    "references unknown vertex",
    "appears in no bag",
    "is covered by no bag",
    "do not form a connected subtree",
)


def test_validate_matches_quadratic_reference():
    rng = np.random.default_rng(3)
    kinds = set()
    for f in acceptance_fixtures():
        g, td = f.graph, f.td
        assert validate_error(td, g) is None and reference_validate(td, g) is None
        for _ in range(12):
            bags = [set(b) for b in td.bags]
            for _ in range(int(rng.integers(1, 4))):
                b = int(rng.integers(len(bags)))
                action = rng.integers(4)
                if action == 0:  # an unknown vertex
                    bags[b].add(g.n + int(rng.integers(3)))
                elif action == 1:  # a vertex dropped from every bag
                    x = int(rng.integers(g.n))
                    bags = [bag - {x} for bag in bags]
                elif action == 2 and bags[b]:  # a vertex dropped from one bag
                    bags[b].discard(int(rng.choice(sorted(bags[b]))))
                else:  # a vertex added to one more bag
                    bags[b].add(int(rng.integers(g.n)))
            tampered = TreeDecomposition(tuple(frozenset(x) for x in bags), td.parent)
            error = validate_error(tampered, g)
            assert error == reference_validate(tampered, g)
            kinds.update(k for k in ERROR_KINDS if error and k in error)
    assert kinds == set(ERROR_KINDS)
