"""The per-element loop forms of the set-up, kept as references.

padnet builds a graph, indexes and converts a tree decomposition, and
expands a semi order into a tree order in whole-array passes.  These are
the loops those passes replaced, one element at a time, with the same
results and the same first error; the tests require equal outputs, bit for
bit, on random and fixture inputs.
"""

from __future__ import annotations

import math

from padnet.graph import GraphFormatError
from padnet.trees import TdValidationError, rooted_tree_arrays


def graph_loop(n: int, edges) -> tuple[tuple, tuple]:
    """(edges, neighbour lists) of WeightedGraph(n, edges), or its error."""
    if n < 1:
        raise GraphFormatError(f"vertex count must be >= 1, got {n}")
    collapsed: dict[tuple[int, int], float] = {}
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u},{v}) references vertex outside 0..{n - 1}")
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        w = float(w)
        if not (w >= 0.0) or math.isinf(w):
            raise GraphFormatError(f"edge ({u},{v}) has invalid weight {w}")
        key = (u, v) if u < v else (v, u)
        if key in collapsed:
            collapsed[key] = min(collapsed[key], w)
        else:
            collapsed[key] = w
    if not math.isfinite(sum(collapsed.values())):
        raise GraphFormatError("total edge weight overflows a float")
    if len(collapsed) < n - 1:
        raise GraphFormatError("graph is not connected")
    out = tuple(sorted((u, v, w) for (u, v), w in collapsed.items()))
    nbrs: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in out:
        nbrs[u].append((v, w))
        nbrs[v].append((u, w))
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        for v, _ in nbrs[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    if not all(seen):
        raise GraphFormatError("graph is not connected")
    return out, tuple(map(tuple, nbrs))


def _common_bags(bags, holding, u: int, v: int) -> list[int]:
    if len(holding[v]) < len(holding[u]):
        u, v = v, u
    return [b for b in holding[u] if v in bags[b]]


def holding_loop(td, g) -> list[list[int]]:
    """Each vertex's holding bags, ascending, as validation indexes them, or
    the first violated axiom."""
    holding: list[list[int]] = [[] for _ in range(g.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not 0 <= v < g.n:
                raise TdValidationError(f"bag {i + 1} references unknown vertex {v + 1}")
            holding[v].append(i)
    for x in range(g.n):
        if not holding[x]:
            raise TdValidationError(f"vertex {x + 1} appears in no bag")
    for u, v, _ in g.edges:
        if not _common_bags(td.bags, holding, u, v):
            raise TdValidationError(f"edge ({u + 1},{v + 1}) is covered by no bag")
    for x in range(g.n):
        tops = sum(1 for b in holding[x] if td.parent[b] == -1 or x not in td.bags[td.parent[b]])
        if tops != 1:
            raise TdValidationError(f"bags containing vertex {x + 1} do not form a connected subtree")
    return holding


def conversion_loop(g, td) -> dict:
    """The copy expansion of a valid decomposition: host edges and neighbour
    lists (from `graph_loop`), host bags, forward and copies."""
    holding = holding_loop(td, g)
    order_key = lambda b: (td.level[b], b)
    copy_id: dict[tuple[int, int], int] = {}
    host_bags = []
    for b in range(len(td.bags)):
        ids = []
        for v in sorted(td.bags[b]):
            ids.append(len(copy_id))
            copy_id[(v, b)] = ids[-1]
        host_bags.append(frozenset(ids))
    host_edges = []
    for b in range(len(td.bags)):
        p = td.parent[b]
        if p != -1:
            for v in td.bags[b] & td.bags[p]:
                host_edges.append((copy_id[(v, b)], copy_id[(v, p)], 0.0))
    for u, v, w in g.edges:
        b = min(_common_bags(td.bags, holding, u, v), key=order_key)
        host_edges.append((copy_id[(u, b)], copy_id[(v, b)], w))
    edges, nbrs = graph_loop(len(copy_id), host_edges)
    return {
        "edges": edges,
        "nbrs": nbrs,
        "bags": tuple(host_bags),
        "forward": [copy_id[(v, min(holding[v], key=order_key))] for v in range(g.n)],
        "copies": tuple(
            tuple(copy_id[(v, b)] for b in sorted(holding[v])) for v in range(g.n)
        ),
    }


def semi_order_loop(cores, n: int) -> tuple[list[int], list[bool]]:
    """Each vertex's bag of its first covering core, and the net mask."""
    assign = [-1] * n
    for core in cores:
        for v in core.members:
            if assign[v] == -1:
                assign[v] = core.center_bag
    net = [False] * n
    for core in cores:
        for v in core.centers:
            net[v] = True
    return assign, net


def expansion_loop(tp, assign, net) -> dict:
    """Every bag of the semi order expanded into a path, net vertices first:
    the order tree's parents and node vertices, each vertex's node, its
    node's (tin, tout) from a walk of the order tree, and the centers
    root to leaf, ties by id."""
    n, nb = len(assign), len(tp.parent)
    preimage: list[list[int]] = [[] for _ in range(nb)]
    for v in range(n):
        preimage[assign[v]].append(v)
    order_parent: list[int] = []
    node_vertex: list[int | None] = []
    node_of = [-1] * n
    path_leaf = [-1] * nb
    for b in sorted(range(nb), key=lambda b: (tp.level[b], b)):
        members = preimage[b]
        seq = sorted(v for v in members if net[v]) + sorted(v for v in members if not net[v])
        prev = path_leaf[tp.parent[b]] if tp.parent[b] != -1 else -1
        for item in seq or [None]:
            node = len(node_vertex)
            node_vertex.append(item)
            order_parent.append(prev)
            if item is not None:
                node_of[item] = node
            prev = node
        path_leaf[b] = prev
    level, tin, tout = rooted_tree_arrays(tuple(order_parent), 0)
    centers = sorted((x for x in range(n) if net[x]), key=lambda x: (level[node_of[x]], x))
    return {
        "order_parent": tuple(order_parent),
        "node_vertex": tuple(node_vertex),
        "assign": node_of,
        "tin": [tin[node_of[v]] for v in range(n)],
        "tout": [tout[node_of[v]] for v in range(n)],
        "centers": centers,
    }
