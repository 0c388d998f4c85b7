"""Fixture graphs with constructively valid tree decompositions.

Random families (partial k-trees, series-parallel = partial 2-trees) carry
the decomposition from their own construction, so no solver is involved.
All weights are small integers or halves, keeping every distance exactly
representable; oracle-vs-search comparisons can then demand equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from padnet.graph import WeightedGraph, shortest_paths
from padnet.trees import TreeDecomposition, TreePartition
from padnet.verify import oracle_all_pairs


@dataclass
class Fixture:
    name: str
    graph: WeightedGraph
    td: TreeDecomposition
    delta: float


def vertex_mask(n: int, ids=()) -> np.ndarray:
    """Read-only bool mask over 0..n-1 holding the given vertex ids."""
    mask = np.zeros(n, dtype=bool)
    mask[list(ids)] = True
    mask.flags.writeable = False
    return mask


def all_pairs(g: WeightedGraph) -> np.ndarray:
    """(n, n) matrix whose row v is shortest_paths(g, all vertices, [v])."""
    everything = g.all_vertices()
    return np.stack([shortest_paths(g, everything, [v]) for v in range(g.n)])


def dense_oracle(g: WeightedGraph, restrict) -> np.ndarray:
    """oracle_all_pairs(g, restrict) spread over (n, n): entry [u, v]
    is the distance in G[restrict], +inf when u or v is outside restrict."""
    ids = np.sort(np.asarray(restrict, dtype=np.int64))
    out = np.full((g.n, g.n), np.inf)
    out[np.ix_(ids, ids)] = oracle_all_pairs(g, restrict)
    return out


def plain_floyd_warshall(g: WeightedGraph, restrict) -> np.ndarray:
    """The recurrence over every id of restrict, ascending, with no zero-weight
    classes: the (r, r) distances in G[restrict], each sum associated as the
    plain Floyd-Warshall associates it."""
    ids = sorted(restrict)
    pos = {v: i for i, v in enumerate(ids)}
    d = np.full((len(ids), len(ids)), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in g.edges:
        if u in pos and v in pos:
            d[pos[u], pos[v]] = d[pos[v], pos[u]] = min(d[pos[u], pos[v]], w)
    for k in range(len(ids)):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def descendant_mask(net, x: int) -> np.ndarray:
    """Boolean mask of the vertices u <= x in the net's order, read from its
    preorder intervals."""
    tin, tout = net.vertex_intervals()
    return (tin[x] <= tin) & (tin < tout[x])


def is_ancestor(parent, a: int, b: int) -> bool:
    """Node a is an ancestor of node b (or b itself) in the parent-pointer
    tree: found by walking up from b, not from preorder intervals."""
    while b != -1:
        if b == a:
            return True
        b = parent[b]
    return False


def _td(bags, parent) -> TreeDecomposition:
    return TreeDecomposition(bags=tuple(frozenset(b) for b in bags), parent=tuple(parent))


def path_fixture(n: int, w: float = 1.0, name: str | None = None, delta: float = 4.0) -> Fixture:
    g = WeightedGraph(n, [(i, i + 1, w) for i in range(n - 1)])
    bags = [[i, i + 1] for i in range(n - 1)]
    parent = [-1] + list(range(n - 2))
    return Fixture(name or f"path-{n}", g, _td(bags, parent), delta)


def weighted_path_fixture(n: int, seed: int, delta: float = 6.0) -> Fixture:
    rng = np.random.default_rng(seed)
    ws = rng.integers(1, 10, size=n - 1)
    g = WeightedGraph(n, [(i, i + 1, float(ws[i])) for i in range(n - 1)])
    bags = [[i, i + 1] for i in range(n - 1)]
    parent = [-1] + list(range(n - 2))
    return Fixture(f"wpath-{n}", g, _td(bags, parent), delta)


def star_fixture(leaves: int, delta: float = 4.0) -> Fixture:
    g = WeightedGraph(leaves + 1, [(0, i, 1.0) for i in range(1, leaves + 1)])
    bags = [[0, i] for i in range(1, leaves + 1)]
    parent = [-1] + [0] * (leaves - 1)
    return Fixture(f"star-{leaves}", g, _td(bags, parent), delta)


def clique_fixture(n: int, delta: float = 2.0) -> Fixture:
    g = WeightedGraph(n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])
    return Fixture(f"clique-{n}", g, _td([list(range(n))], [-1]), delta)


def cycle_fixture(n: int, delta: float = 4.0) -> Fixture:
    g = WeightedGraph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])
    bags = [[0, i, i + 1] for i in range(1, n - 1)]
    parent = [-1] + list(range(n - 3))
    return Fixture(f"cycle-{n}", g, _td(bags, parent), delta)


def grid_fixture(k: int, delta: float = 4.0, w: float = 1.0) -> Fixture:
    def vid(r, c):
        return r * k + c

    edges = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                edges.append((vid(r, c), vid(r, c + 1), w))
            if r + 1 < k:
                edges.append((vid(r, c), vid(r + 1, c), w))
    g = WeightedGraph(k * k, edges)
    # row-sweep path decomposition, bag size k+1
    bags, parent = [], []
    for r in range(k - 1):
        for c in range(k):
            bag = [vid(r, cc) for cc in range(c, k)] + [vid(r + 1, cc) for cc in range(c + 1)]
            parent.append(len(bags) - 1)
            bags.append(bag)
    parent[0] = -1
    name = f"grid-{k}" if w == 1.0 else f"grid-{k}-half"
    return Fixture(name, g, _td(bags, parent), delta)


def grid_column_partition(k: int) -> TreePartition:
    """Natural tree partition of the k x k grid: one bag per column."""
    bags = [frozenset(r * k + c for r in range(k)) for c in range(k)]
    parent = [-1] + list(range(k - 1))
    return TreePartition(bags=tuple(bags), parent=tuple(parent))


def binary_tree_fixture(depth: int, delta: float = 4.0) -> Fixture:
    n = 2 ** (depth + 1) - 1
    edges = [(v, (v - 1) // 2, 1.0) for v in range(1, n)]
    g = WeightedGraph(n, edges)
    bags = [[v, (v - 1) // 2] for v in range(1, n)]
    parent = [-1] + [((v - 1) // 2) - 1 if (v - 1) // 2 >= 1 else 0 for v in range(2, n)]
    return Fixture(f"btree-{depth}", g, _td(bags, parent), delta)


def partial_ktree_fixture(
    n: int, k: int, seed: int, drop: float = 0.0, weighted: bool = False, delta: float = 4.0
) -> Fixture:
    """Random k-tree grown bag by bag, optionally thinned by edge drops.

    The decomposition is the construction itself: one bag per added vertex
    (the vertex plus its chosen k-clique), rooted at the seed clique.
    """
    rng = np.random.default_rng(seed)
    bags: list[list[int]] = [list(range(k + 1))]
    parent = [-1]
    edges = {(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)}
    for v in range(k + 1, n):
        host = int(rng.integers(len(bags)))
        clique = sorted(rng.choice(bags[host], size=k, replace=False).tolist())
        for u in clique:
            edges.add((min(u, v), max(u, v)))
        bags.append(sorted(clique + [v]))
        parent.append(host)
    if drop > 0:
        candidates = sorted(edges)
        rng.shuffle(candidates)
        for e in candidates:
            if rng.random() < drop and _still_connected(n, edges - {e}):
                edges.discard(e)
    if weighted:
        wlist = [(u, v, float(rng.integers(1, 8))) for u, v in sorted(edges)]
    else:
        wlist = [(u, v, 1.0) for u, v in sorted(edges)]
    g = WeightedGraph(n, wlist)
    label = "sp" if k == 2 else f"ktree{k}"
    suffix = "w" if weighted else ("d" if drop else "")
    return Fixture(f"{label}-{n}{suffix}", g, _td(bags, parent), delta)


def decimal_weight_fixture(f: Fixture, seed: int, weights=(0.1, 0.2, 0.3, 0.7)) -> Fixture:
    """The same instance with each edge weight redrawn from decimal `weights`.

    Decimal weights are not exactly representable, so distances summed in a
    different order can differ in the last bit; the verifier's exact
    comparisons see that.
    """
    rng = np.random.default_rng(seed)
    picks = rng.integers(len(weights), size=len(f.graph.edges))
    g = WeightedGraph(
        f.graph.n, [(u, v, float(weights[i])) for (u, v, _), i in zip(f.graph.edges, picks)]
    )
    return Fixture(f"{f.name}-dec", g, f.td, f.delta)


def _still_connected(n: int, edges: set[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == n


def heavy_path5() -> tuple[WeightedGraph, TreePartition, float]:
    """Five-vertex path, weight 10 per edge, singleton bags; delta = 1."""
    g = WeightedGraph(5, [(i, i + 1, 10.0) for i in range(4)])
    tp = TreePartition(
        bags=tuple(frozenset([i]) for i in range(5)), parent=(-1, 0, 1, 2, 3)
    )
    return g, tp, 1.0


def triangle_single_bag() -> tuple[WeightedGraph, TreePartition, float]:
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    tp = TreePartition(bags=(frozenset([0, 1, 2]),), parent=(-1,))
    return g, tp, 1.0


def acceptance_fixtures() -> list[Fixture]:
    """The registry every acceptance criterion iterates over."""
    out = [
        path_fixture(8),
        path_fixture(30, delta=2.0),
        path_fixture(3, name="path-3"),
        weighted_path_fixture(12, seed=5),
        star_fixture(6),
        star_fixture(25, delta=0.5),
        clique_fixture(3),
        clique_fixture(5),
        cycle_fixture(9),
        cycle_fixture(16, delta=2.0),
        binary_tree_fixture(4, delta=1.0),
    ]
    out.extend(grid_fixture(k) for k in (2, 3, 4, 7, 8))
    out.append(grid_fixture(5, delta=2.0))
    out.append(grid_fixture(6, delta=2.0))
    out.append(grid_fixture(5, delta=1.0, w=0.5))
    out.extend(
        [
            partial_ktree_fixture(20, 2, seed=11, drop=0.3, delta=2.0),
            partial_ktree_fixture(35, 2, seed=12, drop=0.4, delta=2.0),
            partial_ktree_fixture(50, 2, seed=13, drop=0.2, weighted=True, delta=8.0),
            partial_ktree_fixture(30, 3, seed=21, delta=2.0),
            partial_ktree_fixture(40, 3, seed=22, drop=0.3, delta=2.0),
            partial_ktree_fixture(60, 4, seed=31, drop=0.2, delta=2.0),
            partial_ktree_fixture(100, 3, seed=41, drop=0.25),
        ]
    )
    return out


def shuffled_ids(f: Fixture, seed: int) -> Fixture:
    """The same instance with vertex labels and non-root bag ids permuted.

    The copy-expanded host numbers its vertices bag by bag, so shuffling the
    bags stops host ids from growing with depth in the tree order.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(f.graph.n).tolist()
    nb = len(f.td.bags)
    new_bag = [0] + (1 + rng.permutation(nb - 1)).tolist()  # the root stays bag 0
    bags: list[list[int]] = [[] for _ in range(nb)]
    parent = [-1] * nb
    for b in range(nb):
        bags[new_bag[b]] = [perm[v] for v in f.td.bags[b]]
        if f.td.parent[b] != -1:
            parent[new_bag[b]] = new_bag[f.td.parent[b]]
    g = WeightedGraph(f.graph.n, [(perm[u], perm[v], w) for u, v, w in f.graph.edges])
    return Fixture(f"{f.name}-shuffled", g, _td(bags, parent), f.delta)
