"""Tree decompositions, tree partitions, and the conversion between them.

A tree decomposition may assign a vertex to several (overlapping) bags; a
tree partition has pairwise-disjoint bags.  The conversion replaces a vertex
that lives in k bags by k copies chained with zero-weight edges, producing a
host graph whose shortest-path metric restricted to designated copies equals
the original metric exactly, and whose max bag size equals the source's.

Validation and conversion work on one table, the decomposition's (vertex,
bag) memberships sorted by vertex and then bag (`HoldingIndex`): edge
coverage, the connected-subtree test, the chain edges and each edge's bag
are `searchsorted` lookups in it, so neither step loops over bags or edges
in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .graph import GraphFormatError, WeightedGraph, int_array
from .oracle import _edge_arrays


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


class HoldingIndex(NamedTuple):
    """A decomposition's (vertex, bag) memberships, sorted by vertex and
    then bag, as read-only arrays.  `up[i]` is the index of the membership
    of vertex[i] in the parent of bag[i], -1 where that parent does not hold
    the vertex: a vertex's bags form a connected subtree exactly when one of
    its memberships has up == -1, the one of its top bag."""

    vertex: np.ndarray
    bag: np.ndarray
    up: np.ndarray


def _find(key: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Index of each wanted membership in the non-empty ascending keys
    vertex * nb + bag of a table over bags 0..nb-1; -1 where it is absent."""
    at = np.minimum(np.searchsorted(key, want), key.size - 1)
    return np.where(key[at] == want, at, -1)


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """start[i], start[i] + 1, ..., start[i] + count[i] - 1 for each i, in turn."""
    end = np.cumsum(count)
    return np.arange(end[-1] if end.size else 0) + np.repeat(start - end + count, count)


class TreeDecomposition(_BagTree):
    """Rooted tree of (possibly overlapping) vertex bags."""

    _accepted = None  # (graph, bags, parent, holding index) of validate's last acceptance

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    @property
    def max_bag_size(self) -> int:
        return max(len(b) for b in self.bags)

    def validate(self, g: WeightedGraph) -> HoldingIndex:
        """Check the three tree-decomposition axioms against g.

        The (vertex, bag) memberships are sorted once; an edge is covered
        when a bag of its end in fewer bags holds the other end; and a
        vertex's bags form a connected subtree exactly when one of them has
        a parent that does not hold the vertex.  Each test is a lookup in
        the sorted memberships, and each failure names the first bag entry,
        vertex or edge (in g.edges order) that breaks its axiom.  Returns
        the memberships as a `HoldingIndex`.  The index is kept for the
        graph object last accepted, and returned again for that object
        while the bags and parents are the ones checked; graphs and bags
        are immutable, so the axioms still hold.
        """
        accepted = self._accepted
        if accepted and accepted[0] is g and accepted[1] is self.bags and accepted[2] is self.parent:
            return accepted[3]
        holding = self._holding_index(g)
        self._accepted = (g, self.bags, self.parent, holding)
        return holding

    def _holding_index(self, g: WeightedGraph) -> HoldingIndex:
        """`validate`'s index, checked from scratch; raises on a violated axiom."""
        nb = len(self.bags)
        entries = list(chain.from_iterable(self.bags))  # each bag in its iteration order
        vertex = int_array(entries)
        bag = np.repeat(np.arange(nb), [len(b) for b in self.bags])
        unknown = (vertex < 0) | (vertex >= g.n)
        if unknown.any():
            i = int(np.argmax(unknown))
            raise TdValidationError(f"bag {bag[i] + 1} references unknown vertex {entries[i] + 1}")
        by_vertex = np.argsort(vertex, kind="stable")  # bags ascend in each vertex's run
        vertex, bag = vertex[by_vertex], bag[by_vertex]
        count = np.bincount(vertex, minlength=g.n)
        if not count.all():
            raise TdValidationError(f"vertex {int(np.argmin(count)) + 1} appears in no bag")
        key = vertex * nb + bag
        # an edge is covered when a bag of its end in fewer bags holds the other end
        u, v, _ = _edge_arrays(g)
        swap = count[v] < count[u]
        few, other = np.where(swap, v, u), np.where(swap, u, v)
        edge = np.repeat(np.arange(u.size), count[few])
        entry = _ranges((np.cumsum(count) - count)[few], count[few])  # the bags of few
        held = _find(key, other[edge] * nb + bag[entry]) >= 0
        uncovered = np.bincount(edge[held], minlength=u.size) == 0
        if uncovered.any():
            i = int(np.argmax(uncovered))
            raise TdValidationError(f"edge ({u[i] + 1},{v[i] + 1}) is covered by no bag")
        parent = np.asarray(self.parent)[bag]
        up = np.where(parent >= 0, _find(key, key - bag + parent), -1)
        tops = np.bincount(vertex[up < 0], minlength=g.n)
        if (tops != 1).any():
            x = int(np.argmax(tops != 1))
            raise TdValidationError(
                f"bags containing vertex {x + 1} do not form a connected subtree"
            )
        for a in (vertex, bag, up):
            a.flags.writeable = False
        return HoldingIndex(vertex, bag, up)


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
            if header[0] < 1:
                raise GraphFormatError(f"bag count must be >= 1, got {header[0]}", lineno)
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

    One copy of a vertex per bag holding it, numbered bag by bag and by
    vertex inside a bag; zero-weight edges chain copies of adjacent bags;
    each original edge is placed once, in the common bag nearest the root
    (ties by smaller bag id); the designated copy of a vertex is likewise
    its root-most one, the copy in its top bag.

    The common bag nearest the root is the deeper of the two ends' top
    bags.  In a valid decomposition the bags of u form a subtree T_u with
    top t_u, and every bag of T_u lies below t_u.  A common bag c lies
    below both t_u and t_v, so the two tops are on c's root path; say t_v
    is the deeper.  The path from t_u down to c stays in T_u, so t_v is in
    T_u and is a common bag, and every common bag lies below it.  So t_v is
    the one common bag of least level, and no tie arises.  The argument
    needs both subtrees connected, which `validate` checks first.
    """
    # a td with one vertex's bags disconnected still converts to a valid
    # partition, over a host that is not isometric; only this check sees it
    # (on a td that load_tree_decomposition read from g, it returns the index
    # that load computed)
    vertex, bag, up = td.validate(g)
    nb = len(td.bags)
    size = vertex.size
    copy = np.empty(size, dtype=np.int64)  # each membership's copy
    copy[np.lexsort((vertex, bag))] = np.arange(size)
    top = np.flatnonzero(up < 0)  # each vertex's top-bag membership, by vertex
    # host edges: every copy to its vertex's copy in the parent bag, then
    # every edge of g between its ends' copies in the deeper top bag
    (chained,) = np.nonzero(up >= 0)
    u, v, w = _edge_arrays(g)
    level = np.asarray(td.level)
    top_u, top_v = bag[top[u]], bag[top[v]]
    home = np.where(level[top_u] >= level[top_v], top_u, top_v)
    key = vertex * nb + bag
    a = np.append(copy[chained], copy[_find(key, u * nb + home)])
    b = np.append(copy[up[chained]], copy[_find(key, v * nb + home)])
    weight = np.append(np.zeros(chained.size), w)
    host = WeightedGraph(size, zip(a.tolist(), b.tolist(), weight.tolist()))
    bounds = np.append(0, np.cumsum(np.bincount(bag, minlength=nb))).tolist()
    tp = TreePartition.on_tree_of(td, tuple(frozenset(range(a, b)) for a, b in zip(bounds, bounds[1:])))

    runs = np.append(0, np.cumsum(np.bincount(vertex, minlength=g.n))).tolist()
    copies = copy.tolist()
    return IsometricEmbedding(
        host=host,
        tree_partition=tp,
        forward=copy[top],
        copies=tuple(tuple(copies[a:b]) for a, b in zip(runs, runs[1:])),
    )
