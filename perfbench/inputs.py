"""Seeded input generators owned by the benchmark.

Each generator returns the `.gr` edge-list text and the PACE-2017 `.td` text
of one instance; padnet only ever sees that text.  The generators live here,
not in the test fixtures, so that editing a test cannot change what the
benchmark measures.  The same arguments always yield the same text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    name: str
    gr: str
    td: str
    delta: float
    host_n: int  # vertices after copy expansion: the sum of the bag sizes


def _gr_text(n: int, edges: list[tuple[int, int, float]], comment: str) -> str:
    lines = [f"# {comment}", f"p ge {n} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1} {w!r}" for u, v, w in edges]
    return "\n".join(lines) + "\n"


def _td_text(n: int, bags: list[list[int]], parent: list[int], comment: str) -> str:
    width = max(len(b) for b in bags)
    lines = [f"c {comment}", f"s td {len(bags)} {width} {n}"]
    lines += [f"b {i + 1} " + " ".join(str(v + 1) for v in sorted(b)) for i, b in enumerate(bags)]
    lines += [f"{p + 1} {i + 1}" for i, p in enumerate(parent) if p != -1]
    return "\n".join(lines) + "\n"


def _instance(name, n, edges, bags, parent, delta) -> Instance:
    return Instance(
        name=name,
        gr=_gr_text(n, edges, name),
        td=_td_text(n, bags, parent, name),
        delta=delta,
        host_n=sum(len(b) for b in bags),
    )


def weighted_path(n: int, seed: int, delta: float) -> Instance:
    """Path 1..n with integer weights 1..9; bags are the edges, chained."""
    rng = np.random.default_rng(seed)
    ws = rng.integers(1, 10, size=n - 1)
    edges = [(i, i + 1, float(ws[i])) for i in range(n - 1)]
    bags = [[i, i + 1] for i in range(n - 1)]
    parent = [-1] + list(range(n - 2))
    return _instance(f"path-{n}", n, edges, bags, parent, delta)


def unit_grid(k: int, delta: float) -> Instance:
    """k x k unit grid with the row-sweep path decomposition (bag size k+1)."""

    def vid(r, c):
        return r * k + c

    edges = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                edges.append((vid(r, c), vid(r, c + 1), 1.0))
            if r + 1 < k:
                edges.append((vid(r, c), vid(r + 1, c), 1.0))
    bags = [
        [vid(r, cc) for cc in range(c, k)] + [vid(r + 1, cc) for cc in range(c + 1)]
        for r in range(k - 1)
        for c in range(k)
    ]
    parent = [-1] + list(range(len(bags) - 1))
    return _instance(f"grid-{k}", k * k, edges, bags, parent, delta)


def partial_ktree(
    name: str,
    n: int,
    k: int,
    seed: int,
    delta: float,
    drop: float = 0.0,
    weights: tuple[float, ...] = (1.0,),
) -> Instance:
    """Random k-tree grown one vertex at a time, then thinned by edge drops.

    The decomposition is the construction: a root bag holding the first k+1
    vertices, then one bag per added vertex (the vertex plus the k-clique it
    joined), hung below the bag it took the clique from.  Dropped edges keep
    the graph connected, so the decomposition stays valid.  Edge weights are
    drawn uniformly from `weights`.
    """
    rng = np.random.default_rng(seed)
    bags: list[list[int]] = [list(range(k + 1))]
    parent = [-1]
    edges = {(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)}
    for v in range(k + 1, n):
        host = int(rng.integers(len(bags)))
        clique = sorted(rng.choice(bags[host], size=k, replace=False).tolist())
        edges.update((u, v) for u in clique)
        bags.append(sorted(clique + [v]))
        parent.append(host)
    if drop > 0:
        candidates = sorted(edges)
        rng.shuffle(candidates)
        for e in candidates:
            if rng.random() < drop and _connected(n, edges - {e}):
                edges.discard(e)
    picks = rng.integers(len(weights), size=len(edges))
    wlist = [(u, v, float(weights[i])) for (u, v), i in zip(sorted(edges), picks)]
    return _instance(name, n, wlist, bags, parent, delta)


def _connected(n: int, edges: set[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                stack.append(y)
    return all(seen)
