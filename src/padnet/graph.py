"""Weighted-graph core.

Immutable undirected graphs with nonnegative edge weights, induced-subgraph
shortest paths (multi-source Dijkstra), balls, and weak/strong diameters.
Every other module treats these as its metric substrate.

A vertex set is a bool mask of shape (n,) where it is tested for membership
(a restricting subgraph, a ball, a cluster) and a sequence of vertex ids
where it is iterated (the sources of a search).

The adjacency is a tuple of per-vertex tuples of (neighbour, weight) pairs,
built once at construction, so the Dijkstra loop reads Python ints and floats
rather than numpy scalars.

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

    __slots__ = ("n", "edges", "_nbrs")

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
        # plain sum: it overflows to inf where math.fsum would raise
        if not math.isfinite(sum(collapsed.values())):
            raise GraphFormatError("total edge weight overflows a float")
        if len(collapsed) < n - 1:  # too few edges to connect n vertices: no n-sized array yet
            raise GraphFormatError("graph is not connected")
        self.n = n
        self.edges = tuple(sorted((u, v, w) for (u, v), w in collapsed.items()))
        self._build_adjacency()
        if not self._is_connected():
            raise GraphFormatError("graph is not connected")

    def _build_adjacency(self):
        nbrs: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            nbrs[u].append((v, w))
            nbrs[v].append((u, w))
        self._nbrs = tuple(map(tuple, nbrs))

    def _is_connected(self) -> bool:
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        while stack:
            for v, _ in self._nbrs[stack.pop()]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return all(seen)

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

    `restrict` is a bool array of shape (g.n,) and `sources` a sequence of
    vertex ids inside it.  Returns a float array of length g.n with
    d_{G[restrict]}(sources, v) for v in restrict (+inf when unreachable or
    outside restrict).

    `limit` bounds the search radius: a tentative distance above it is never
    recorded, so entries beyond `limit` stay +inf.  Weights are nonnegative,
    so every vertex within `limit` is reached along a path whose prefixes are
    all within `limit`, and `d <= r` is bit-for-bit the same as in the
    unbounded search for every r <= limit.

    The search itself touches only Python objects: the mask is read once as
    bytes, tentative distances live in a dict over the reached vertices, and
    the n-entry row is filled from it at the end.
    """
    if not limit >= 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if not (isinstance(restrict, np.ndarray) and restrict.dtype == bool
            and restrict.shape == (g.n,)):
        raise ValueError(f"restrict must be a bool array of shape ({g.n},)")
    if not restrict.any():
        raise ValueError("restrict must be non-empty")
    sources = np.asarray(sources, dtype=np.int64)
    if not restrict[sources].all() or (sources < 0).any():
        raise ValueError("sources must be a subset of restrict")
    inside = restrict.tobytes()
    nbrs = g._nbrs
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    for s in sources.tolist():
        dist[s] = 0.0
        heap.append((0.0, s))
    heapq.heapify(heap)
    pop, push, known = heapq.heappop, heapq.heappush, dist.get
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue
        for v, w in nbrs[u]:
            if inside[v]:
                nd = d + w
                if nd < known(v, INF) and nd <= limit:
                    dist[v] = nd
                    push(heap, (nd, v))
    row = np.full(g.n, INF, dtype=np.float64)
    row[np.fromiter(dist, np.int64, len(dist))] = np.fromiter(dist.values(), np.float64, len(dist))
    return row


def ball_pairs(g: WeightedGraph, labels: np.ndarray, radius: float) -> tuple[np.ndarray, ...]:
    """(z, c, d(z, c)) for every vertex z within `radius` of a vertex labelled
    c, sorted by z then c; d(z, c) is the distance from z to the nearest
    vertex labelled c, from one multi-source Dijkstra per label bounded at
    `radius`, so it is summed from the labelled end.  With labels 0..n-1 this
    is the all-pairs matrix, transposed and thresholded at `radius`."""
    everything = g.all_vertices()
    by_label = np.argsort(labels, kind="stable")
    names, starts = np.unique(labels[by_label], return_index=True)
    found = []
    for c, members in zip(names.tolist(), np.split(by_label, starts[1:])):
        dist = shortest_paths(g, everything, members, radius)
        (inside,) = np.nonzero(dist <= radius)
        found.append((inside, np.full(inside.size, c), dist[inside]))
    z, c, d = map(np.concatenate, zip(*found))
    by_z = np.argsort(z, kind="stable")  # labels ascend within each z
    return z[by_z], c[by_z], d[by_z]


def ball(
    g: WeightedGraph, restrict: np.ndarray, centers: Sequence[int], radius: float
) -> np.ndarray:
    """Member mask: the vertices of restrict within `radius` of the centers
    in G[restrict], from one search bounded at `radius`."""
    if not radius >= 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return shortest_paths(g, restrict, centers, limit=radius) <= radius


def _diameter(g: WeightedGraph, cluster: np.ndarray, restrict: np.ndarray) -> float:
    """max over pairs of the cluster mask of their distance inside G[restrict]."""
    members = np.flatnonzero(cluster)
    if members.size == 0:
        raise ValueError("cluster must be non-empty")
    if members.size == 1:
        return 0.0
    best = 0.0
    for u in members.tolist():
        dist = shortest_paths(g, restrict, [u])
        best = max(best, float(dist[members].max()))
    return best


def weak_diameter(g: WeightedGraph, cluster: np.ndarray) -> float:
    """max d_G(u, v) over pairs of the cluster mask, measured in the whole graph."""
    return _diameter(g, cluster, g.all_vertices())


def strong_diameter(g: WeightedGraph, cluster: np.ndarray) -> float:
    """Diameter of the induced subgraph G[cluster]; +inf when disconnected."""
    return _diameter(g, cluster, cluster)


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
