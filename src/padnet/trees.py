"""Tree decompositions, tree partitions, and the conversion between them.

A tree decomposition may assign a vertex to several (overlapping) bags; a
tree partition has pairwise-disjoint bags.  The conversion replaces a vertex
that lives in k bags by k copies chained with zero-weight edges, producing a
host graph whose shortest-path metric restricted to designated copies equals
the original metric exactly, and whose max bag size equals the source's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import GraphFormatError, WeightedGraph


class TdValidationError(ValueError):
    """A decomposition violates one of its structural axioms."""


def rooted_tree_arrays(parent: tuple[int, ...], root: int):
    """Hop levels and Euler tin/tout for a parent-pointer tree."""
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if v == root:
            if p != -1:
                raise TdValidationError(f"root {root} has parent {p}")
            continue
        if not 0 <= p < n:
            raise TdValidationError(f"node {v} has invalid parent {p}")
        children[p].append(v)
    level = [-1] * n
    tin = [0] * n
    tout = [0] * n
    level[root] = 0
    clock = 0
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            tout[node] = clock
            continue
        tin[node] = clock
        clock += 1
        stack.append((node, True))
        for c in reversed(children[node]):
            level[c] = level[node] + 1
            stack.append((c, False))
    if clock != n:
        raise TdValidationError("parent pointers do not form a single rooted tree")
    return level, tin, tout


@dataclass
class _BagTree:
    """Rooted tree of vertex bags given by parent pointers, with its hop
    levels and preorder intervals."""

    bags: tuple[frozenset[int], ...]
    parent: tuple[int, ...]
    root: int = 0
    level: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        self.level, self._tin, self._tout = rooted_tree_arrays(self.parent, self.root)

    @classmethod
    def on_tree_of(cls, tree: "_BagTree", bags: tuple[frozenset[int], ...]):
        """New bags on tree's rooted tree, whose levels and intervals are
        reused instead of walked again."""
        out = cls.__new__(cls)
        out.bags, out.parent, out.root = bags, tree.parent, tree.root
        out.level, out._tin, out._tout = tree.level, tree._tin, tree._tout
        return out

    def bag_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Preorder (tin, tout) of every bag, as new arrays: bag a is an
        ancestor of bag b (or b itself) iff tin[a] <= tin[b] < tout[a]."""
        return np.asarray(self._tin), np.asarray(self._tout)


def _common_bags(
    bags: tuple[frozenset[int], ...], holding: list[list[int]], u: int, v: int
) -> list[int]:
    """The bags holding both u and v, found by scanning the holding list of
    whichever endpoint lies in fewer bags."""
    if len(holding[v]) < len(holding[u]):
        u, v = v, u
    return [b for b in holding[u] if v in bags[b]]


class TreeDecomposition(_BagTree):
    """Rooted tree of (possibly overlapping) vertex bags."""

    _accepted = None  # (graph, bags, parent, holding index) of validate's last acceptance

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    @property
    def max_bag_size(self) -> int:
        return max(len(b) for b in self.bags)

    def validate(self, g: WeightedGraph) -> list[list[int]]:
        """Check the three tree-decomposition axioms against g.

        Each vertex's holding bags are indexed once; an edge is covered when
        a holding bag of its endpoint in fewer bags holds the other one; and
        a vertex's bags form a connected subtree exactly when one of them
        has a parent that does not hold the vertex.  Returns that index:
        each vertex's holding bags in increasing order.  The index is kept
        for the graph object last accepted, and returned again for that
        object while the bags and parents are the ones checked; graphs and
        bags are immutable, so the axioms still hold.
        """
        accepted = self._accepted
        if accepted and accepted[0] is g and accepted[1] is self.bags and accepted[2] is self.parent:
            return accepted[3]
        holding = self._holding_index(g)
        self._accepted = (g, self.bags, self.parent, holding)
        return holding

    def _holding_index(self, g: WeightedGraph) -> list[list[int]]:
        """`validate`'s index, checked from scratch; raises on a violated axiom."""
        holding: list[list[int]] = [[] for _ in range(g.n)]
        for i, bag in enumerate(self.bags):
            for v in bag:
                if not 0 <= v < g.n:
                    raise TdValidationError(f"bag {i + 1} references unknown vertex {v + 1}")
                holding[v].append(i)
        for x in range(g.n):
            if not holding[x]:
                raise TdValidationError(f"vertex {x + 1} appears in no bag")
        for u, v, _ in g.edges:
            if not _common_bags(self.bags, holding, u, v):
                raise TdValidationError(f"edge ({u + 1},{v + 1}) is covered by no bag")
        for x in range(g.n):
            tops = sum(
                1 for b in holding[x] if self.parent[b] == -1 or x not in self.bags[self.parent[b]]
            )
            if tops != 1:
                raise TdValidationError(
                    f"bags containing vertex {x + 1} do not form a connected subtree"
                )
        return holding


class TreePartition(_BagTree):
    """Rooted tree of pairwise-disjoint vertex bags covering the whole graph."""

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.bags)

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags)

    def bag_of(self) -> np.ndarray:
        out = np.full(self.n, -1, dtype=np.int64)
        for i, bag in enumerate(self.bags):
            for v in bag:
                out[v] = i
        return out

    def validate(self, g: WeightedGraph) -> None:
        seen: dict[int, int] = {}
        for i, bag in enumerate(self.bags):
            for v in bag:
                if not 0 <= v < g.n:
                    raise TdValidationError(f"bag {i + 1} references unknown vertex {v + 1}")
                if v in seen:
                    raise TdValidationError(
                        f"vertex {v + 1} appears in bags {seen[v] + 1} and {i + 1}"
                    )
                seen[v] = i
        if len(seen) != g.n:
            missing = min(set(range(g.n)) - set(seen))
            raise TdValidationError(f"vertex {missing + 1} appears in no bag")
        for u, v, _ in g.edges:
            bu, bv = seen[u], seen[v]
            if bu == bv:
                continue
            if self.parent[bu] != bv and self.parent[bv] != bu:
                raise TdValidationError(
                    f"edge ({u + 1},{v + 1}) spans bags {bu + 1},{bv + 1} "
                    "which are neither equal nor in parent-child relation"
                )


@dataclass
class IsometricEmbedding:
    """Distance-preserving embedding of a graph into a tree-partition host.

    `forward[v]` is the designated host copy of v and `copies[v]` all of them.
    """

    host: WeightedGraph
    tree_partition: TreePartition
    forward: np.ndarray
    copies: tuple[tuple[int, ...], ...]

    @cached_property
    def _original(self) -> dict[int, int]:  # host vertex -> the vertex it is the designated copy of
        return {h: v for v, h in enumerate(self.forward.tolist())}

    def original_assignment(self, assignment: np.ndarray) -> np.ndarray:
        """Each vertex's entry of a host assignment: its designated copy's."""
        return assignment[self.forward]

    def original_members(self, members) -> list[int]:
        """The vertices whose designated copy is among the host vertices `members`, sorted."""
        return sorted(self._original[h] for h in members if h in self._original)


def load_tree_decomposition(text: str, g: WeightedGraph) -> TreeDecomposition:
    """Parse and validate a PACE-2017 `.td` file against g; rooted at bag 1."""
    header = None
    bag_map: dict[int, frozenset[int]] = {}
    tree_edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise GraphFormatError("duplicate 's td' header", lineno)
            if len(parts) != 5 or parts[1] != "td":
                raise GraphFormatError(f"malformed header {line!r}", lineno)
            try:
                header = (int(parts[2]), int(parts[3]), int(parts[4]))
            except ValueError:
                raise GraphFormatError(f"non-integer header fields in {line!r}", lineno)
        elif parts[0] == "b":
            if header is None:
                raise GraphFormatError("bag line before 's td' header", lineno)
            try:
                bag_id = int(parts[1])
                vertices = frozenset(int(p) - 1 for p in parts[2:])
            except (ValueError, IndexError):
                raise GraphFormatError(f"malformed bag line {line!r}", lineno)
            if bag_id in bag_map:
                raise GraphFormatError(f"duplicate bag id {bag_id}", lineno)
            if not 1 <= bag_id <= header[0]:
                raise GraphFormatError(f"bag id {bag_id} outside 1..{header[0]}", lineno)
            bag_map[bag_id] = vertices
        else:
            if header is None:
                raise GraphFormatError("tree edge before 's td' header", lineno)
            if len(parts) != 2:
                raise GraphFormatError(f"malformed tree-edge line {line!r}", lineno)
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"non-integer tree edge {line!r}", lineno)
            tree_edges.append((a, b))
    if header is None:
        raise GraphFormatError("missing 's td' header")
    nb, _, nv = header
    if nv != g.n:
        raise GraphFormatError(f"header declares {nv} vertices, graph has {g.n}")
    # bag ids are distinct and in 1..nb, so a short map misses one of 1..len(bag_map) + 1
    if len(bag_map) < nb:
        missing = next(i for i in range(1, nb + 1) if i not in bag_map)
        raise GraphFormatError(f"bag {missing} is not defined")
    if len(tree_edges) != nb - 1:
        raise GraphFormatError(f"expected {nb - 1} tree edges, found {len(tree_edges)}")

    adj: list[list[int]] = [[] for _ in range(nb)]
    for a, b in tree_edges:
        if not (1 <= a <= nb and 1 <= b <= nb):
            raise GraphFormatError(f"tree edge ({a},{b}) references unknown bag")
        adj[a - 1].append(b - 1)
        adj[b - 1].append(a - 1)
    parent = [-1] * nb
    seen = [False] * nb
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                stack.append(v)
    if not all(seen):
        raise GraphFormatError("bag tree is not connected")

    td = TreeDecomposition(
        bags=tuple(bag_map[i + 1] for i in range(nb)), parent=tuple(parent), root=0
    )
    td.validate(g)
    return td


def td_to_tree_partition(g: WeightedGraph, td: TreeDecomposition) -> IsometricEmbedding:
    """Copy-expand a tree decomposition into an isometric tree-partition host.

    One copy of a vertex per bag holding it; zero-weight edges chain copies of
    adjacent bags; each original edge is placed once, in the common bag
    nearest the root (ties by smaller bag id); the designated copy of a vertex
    is likewise its root-most one.
    """
    # a td with one vertex's bags disconnected still converts to a valid
    # partition, over a host that is not isometric; only this check sees it
    # (on a td that load_tree_decomposition read from g, it returns the index
    # that load computed)
    holding = td.validate(g)
    nb = len(td.bags)
    order_key = lambda b: (td.level[b], b)

    copy_id: dict[tuple[int, int], int] = {}
    host_bag: list[frozenset[int]] = []
    for b in range(nb):
        ids = []
        for v in sorted(td.bags[b]):
            ids.append(len(copy_id))
            copy_id[(v, b)] = ids[-1]
        host_bag.append(frozenset(ids))

    host_edges: list[tuple[int, int, float]] = []
    for b in range(nb):
        p = td.parent[b]
        if p == -1:
            continue
        for v in td.bags[b] & td.bags[p]:
            host_edges.append((copy_id[(v, b)], copy_id[(v, p)], 0.0))
    for u, v, w in g.edges:
        b = min(_common_bags(td.bags, holding, u, v), key=order_key)
        host_edges.append((copy_id[(u, b)], copy_id[(v, b)], w))

    host = WeightedGraph(len(copy_id), host_edges)
    tp = TreePartition.on_tree_of(td, tuple(host_bag))

    forward = np.zeros(g.n, dtype=np.int64)
    copies: list[tuple[int, ...]] = []
    for v in range(g.n):
        forward[v] = copy_id[(v, min(holding[v], key=order_key))]
        copies.append(tuple(copy_id[(v, b)] for b in sorted(holding[v])))

    return IsometricEmbedding(
        host=host, tree_partition=tp, forward=forward, copies=tuple(copies)
    )
