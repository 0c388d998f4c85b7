"""Weighted-graph core.

Immutable undirected graphs with nonnegative edge weights, induced-subgraph
shortest paths (multi-source Dijkstra), balls, and weak/strong diameters.
Every other module treats these as its metric substrate.

Vertices are dense integer ids 0..n-1.  Input files use 1-indexed labels; the
parser maps label k to id k-1.  Zero-weight edges are first class (the tree
conversion produces them), so all routines use nonnegative-weight semantics
with no epsilon tricks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

INF = math.inf


class GraphFormatError(ValueError):
    """Malformed or invalid graph / decomposition input."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class VertexSet:
    """Immutable membership bitmap over vertex ids 0..n-1."""

    __slots__ = ("mask",)

    def __init__(self, n: int, members: Iterable[int] = ()):
        mask = np.zeros(n, dtype=bool)
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} outside 0..{n - 1}")
            mask[v] = True
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "VertexSet":
        vs = cls.__new__(cls)
        m = np.asarray(mask, dtype=bool).copy()
        m.setflags(write=False)
        object.__setattr__(vs, "mask", m)
        return vs

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls.from_mask(np.ones(n, dtype=bool))

    @property
    def n(self) -> int:
        return self.mask.shape[0]

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __contains__(self, v: int) -> bool:
        return bool(self.mask[v])

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices.tolist())

    def __len__(self) -> int:
        return int(self.mask.sum())

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexSet) and np.array_equal(self.mask, other.mask)

    def __hash__(self) -> int:
        return hash(self.mask.tobytes())

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(self.mask & ~other.mask)

    def issubset(self, other: "VertexSet") -> bool:
        return not bool((self.mask & ~other.mask).any())

    def __repr__(self) -> str:
        return f"VertexSet(n={self.n}, members={self.indices.tolist()})"


class WeightedGraph:
    """Immutable connected undirected graph with nonnegative edge weights.

    Parallel edges are collapsed to the minimum weight, self-loops are
    rejected, and connectivity is enforced at construction.  Safe to share
    across threads; all operations on it are pure.
    """

    __slots__ = ("n", "edges", "_adj_ptr", "_adj_v", "_adj_w")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]):
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
        self.n = n
        self.edges = tuple(sorted((u, v, w) for (u, v), w in collapsed.items()))
        self._build_adjacency()
        if not self._is_connected():
            raise GraphFormatError("graph is not connected")

    def _build_adjacency(self):
        deg = np.zeros(self.n, dtype=np.int64)
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(deg, out=ptr[1:])
        adj_v = np.zeros(2 * len(self.edges), dtype=np.int64)
        adj_w = np.zeros(2 * len(self.edges), dtype=np.float64)
        fill = ptr[:-1].copy()
        for u, v, w in self.edges:
            adj_v[fill[u]], adj_w[fill[u]] = v, w
            fill[u] += 1
            adj_v[fill[v]], adj_w[fill[v]] = u, w
            fill[v] += 1
        self._adj_ptr, self._adj_v, self._adj_w = ptr, adj_v, adj_w

    def _is_connected(self) -> bool:
        seen = np.zeros(self.n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for j in range(self._adj_ptr[u], self._adj_ptr[u + 1]):
                v = int(self._adj_v[j])
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return bool(seen.all())

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> list[tuple[int, float]]:
        lo, hi = self._adj_ptr[v], self._adj_ptr[v + 1]
        return [(int(self._adj_v[j]), float(self._adj_w[j])) for j in range(lo, hi)]

    def all_vertices(self) -> VertexSet:
        return VertexSet.full(self.n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Ball:
    """Ball around a center set inside a restricting induced subgraph.

    `distances` has one entry per vertex of the host graph: the distance from
    the center set realized inside the restricting subgraph, +inf outside.
    """

    center_set: VertexSet
    radius: float
    members: VertexSet
    distances: np.ndarray


def shortest_paths(
    g: WeightedGraph, restrict: VertexSet, sources: VertexSet, limit: float = INF
) -> np.ndarray:
    """Multi-source distances inside the induced subgraph G[restrict].

    Returns a float array of length g.n with d_{G[restrict]}(sources, v) for
    v in restrict (+inf when unreachable or outside restrict).

    `limit` bounds the search radius: a tentative distance above it is never
    recorded, so entries beyond `limit` stay +inf.  Weights are nonnegative,
    so every vertex within `limit` is reached along a path whose prefixes are
    all within `limit`, and `d <= r` is bit-for-bit the same as in the
    unbounded search for every r <= limit.
    """
    if not limit >= 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if len(restrict) == 0:
        raise ValueError("restrict must be non-empty")
    if not sources.issubset(restrict):
        raise ValueError("sources must be a subset of restrict")
    dist = np.full(g.n, INF, dtype=np.float64)
    rmask = restrict.mask
    heap: list[tuple[float, int]] = []
    for s in sources:
        dist[s] = 0.0
        heap.append((0.0, s))
    heapq.heapify(heap)
    ptr, adj_v, adj_w = g._adj_ptr, g._adj_v, g._adj_w
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for j in range(ptr[u], ptr[u + 1]):
            v = int(adj_v[j])
            if not rmask[v]:
                continue
            nd = d + adj_w[j]
            if nd < dist[v]:
                if nd > limit:
                    continue
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def all_pairs(g: WeightedGraph) -> np.ndarray:
    """(n, n) matrix whose row v is shortest_paths(g, all vertices, {v})."""
    everything = g.all_vertices()
    return np.stack([shortest_paths(g, everything, VertexSet(g.n, [v])) for v in range(g.n)])


def ball_pairs(g: WeightedGraph, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, u, d(z, u)) for every pair with d(z, u) <= radius, sorted by z then u.

    The sparse form of `all_pairs` thresholded at `radius`: each row comes
    from a Dijkstra bounded at `radius`, and no n x n matrix is allocated.
    """
    everything = g.all_vertices()
    rows, cols, pair_d = [], [], []
    for z in range(g.n):
        dist = shortest_paths(g, everything, VertexSet(g.n, [z]), radius)
        (inside,) = np.nonzero(dist <= radius)
        rows.append(np.full(inside.size, z))
        cols.append(inside)
        pair_d.append(dist[inside])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(pair_d)


def ball(g: WeightedGraph, restrict: VertexSet, centers: VertexSet, radius: float) -> Ball:
    """All vertices of restrict within `radius` of the centers in G[restrict]."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    dist = shortest_paths(g, restrict, centers)
    members = VertexSet.from_mask(dist <= radius)
    return Ball(center_set=centers, radius=radius, members=members, distances=dist)


def weak_diameter(g: WeightedGraph, cluster: VertexSet) -> float:
    """max d_G(u, v) over pairs of the cluster, measured in the whole graph."""
    members = cluster.indices
    if members.size == 0:
        raise ValueError("cluster must be non-empty")
    if members.size == 1:
        return 0.0
    everything = g.all_vertices()
    best = 0.0
    for u in members.tolist():
        dist = shortest_paths(g, everything, VertexSet(g.n, [u]))
        best = max(best, float(dist[members].max()))
    return best


def strong_diameter(g: WeightedGraph, cluster: VertexSet) -> float:
    """Diameter of the induced subgraph G[cluster]; +inf when disconnected."""
    members = cluster.indices
    if members.size == 0:
        raise ValueError("cluster must be non-empty")
    if members.size == 1:
        return 0.0
    best = 0.0
    for u in members.tolist():
        dist = shortest_paths(g, cluster, VertexSet(g.n, [u]))
        best = max(best, float(dist[members].max()))
    return best


def parse_edge_list(text: str) -> WeightedGraph:
    """Parse the `p ge <n> <m>` edge-list format (1-indexed labels, # comments)."""
    n = m = None
    edges: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate 'p' header", lineno)
            if len(parts) != 4 or parts[1] != "ge":
                raise GraphFormatError(f"malformed header {line!r}", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError(f"non-integer header fields in {line!r}", lineno)
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError("edge line before 'p ge' header", lineno)
            if len(parts) != 4:
                raise GraphFormatError(f"malformed edge line {line!r}", lineno)
            try:
                u, v, w = int(parts[1]), int(parts[2]), float(parts[3])
            except ValueError:
                raise GraphFormatError(f"bad edge fields in {line!r}", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"edge label outside 1..{n} in {line!r}", lineno)
            edges.append((u - 1, v - 1, w))
        else:
            raise GraphFormatError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise GraphFormatError("missing 'p ge' header")
    if m is not None and m != len(edges):
        raise GraphFormatError(f"header declares {m} edges, found {len(edges)}")
    try:
        return WeightedGraph(n, edges)
    except GraphFormatError:
        raise
    except ValueError as exc:
        raise GraphFormatError(str(exc))


def format_edge_list(g: WeightedGraph) -> str:
    """Serialize to the edge-list format; round-trips bit-exactly through parse."""
    lines = [f"p ge {g.n} {g.m}"]
    for u, v, w in g.edges:
        lines.append(f"e {u + 1} {v + 1} {w!r}")
    return "\n".join(lines) + "\n"
