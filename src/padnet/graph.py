"""Weighted-graph core.

Immutable undirected graphs with nonnegative edge weights, induced-subgraph
shortest paths (multi-source Dijkstra), balls, and weak/strong diameters.
Every other module treats these as its metric substrate.

A vertex set is a bool mask of length n where it is tested for membership
(a restricting subgraph, a ball, a cluster) and a sequence of vertex ids
where it is iterated (the sources of a search).

Vertices are dense integer ids 0..n-1.  Input files use 1-indexed labels; the
parser maps label k to id k-1.  Zero-weight edges are first class (the tree
conversion produces them), so all routines use nonnegative-weight semantics
with no epsilon tricks.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Sequence

import numpy as np

INF = math.inf


class GraphFormatError(ValueError):
    """Malformed or invalid graph / decomposition input."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


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

    def all_vertices(self) -> np.ndarray:
        """Read-only all-True membership mask."""
        mask = np.ones(self.n, dtype=bool)
        mask.setflags(write=False)
        return mask

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


def shortest_paths(
    g: WeightedGraph, restrict: np.ndarray, sources: Sequence[int], limit: float = INF
) -> np.ndarray:
    """Multi-source distances inside the induced subgraph G[restrict].

    `restrict` is a bool mask of length g.n and `sources` a sequence of
    vertex ids inside it.  Returns a float array of length g.n with
    d_{G[restrict]}(sources, v) for v in restrict (+inf when unreachable or
    outside restrict).

    `limit` bounds the search radius: a tentative distance above it is never
    recorded, so entries beyond `limit` stay +inf.  Weights are nonnegative,
    so every vertex within `limit` is reached along a path whose prefixes are
    all within `limit`, and `d <= r` is bit-for-bit the same as in the
    unbounded search for every r <= limit.
    """
    if not limit >= 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if not restrict.any():
        raise ValueError("restrict must be non-empty")
    sources = np.asarray(sources, dtype=np.int64)
    if not restrict[sources].all():
        raise ValueError("sources must be a subset of restrict")
    dist = np.full(g.n, INF, dtype=np.float64)
    heap: list[tuple[float, int]] = []
    for s in sources.tolist():
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
            if not restrict[v]:
                continue
            nd = d + adj_w[j]
            if nd < dist[v]:
                if nd > limit:
                    continue
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def all_pairs(g: WeightedGraph) -> np.ndarray:
    """(n, n) matrix whose row v is shortest_paths(g, all vertices, [v])."""
    everything = g.all_vertices()
    return np.stack([shortest_paths(g, everything, [v]) for v in range(g.n)])


def ball_pairs(g: WeightedGraph, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, u, d(z, u)) for every pair with d(z, u) <= radius, sorted by z then u.

    The sparse form of `all_pairs` thresholded at `radius`: each row comes
    from a Dijkstra bounded at `radius`, and no n x n matrix is allocated.
    """
    everything = g.all_vertices()
    rows, cols, pair_d = [], [], []
    for z in range(g.n):
        dist = shortest_paths(g, everything, [z], radius)
        (inside,) = np.nonzero(dist <= radius)
        rows.append(np.full(inside.size, z))
        cols.append(inside)
        pair_d.append(dist[inside])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(pair_d)


def ball(
    g: WeightedGraph, restrict: np.ndarray, centers: Sequence[int], radius: float
) -> np.ndarray:
    """Member mask: the vertices of restrict within `radius` of the centers
    in G[restrict]."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return shortest_paths(g, restrict, centers) <= radius


def weak_diameter(g: WeightedGraph, cluster: np.ndarray) -> float:
    """max d_G(u, v) over pairs of the cluster mask, measured in the whole graph."""
    members = np.flatnonzero(cluster)
    if members.size == 0:
        raise ValueError("cluster must be non-empty")
    if members.size == 1:
        return 0.0
    everything = g.all_vertices()
    best = 0.0
    for u in members.tolist():
        dist = shortest_paths(g, everything, [u])
        best = max(best, float(dist[members].max()))
    return best


def strong_diameter(g: WeightedGraph, cluster: np.ndarray) -> float:
    """Diameter of the induced subgraph G[cluster]; +inf when disconnected."""
    members = np.flatnonzero(cluster)
    if members.size == 0:
        raise ValueError("cluster must be non-empty")
    if members.size == 1:
        return 0.0
    best = 0.0
    for u in members.tolist():
        dist = shortest_paths(g, cluster, [u])
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
