"""The all-pairs oracle: Floyd-Warshall over a graph's zero-weight classes.

It reads a graph's vertex count and edge list alone, in numpy, and imports
nothing from the modules it checks, so it is an oracle of any graph.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np


def _edge_arrays(g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g's edge list as arrays (a, b, w), in its order: a < b, ascending."""
    flat = np.fromiter(chain.from_iterable(g.edges), dtype=np.float64, count=3 * len(g.edges))
    a, b, w = flat.reshape(-1, 3).T
    return a.astype(np.int64), b.astype(np.int64), w


def _least_joined(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each of the vertices 0..n-1 labelled by the least vertex that the
    edges (a, b) join it to: min-label propagation, with pointer jumping
    between rounds."""
    label = np.arange(n)
    while True:
        step = label.copy()
        np.minimum.at(step, a, label[b])
        np.minimum.at(step, b, label[a])
        step = step[step]
        if np.array_equal(step, label):
            return label
        label = step


def oracle_all_pairs(g, restrict: Sequence[int]) -> np.ndarray:
    """Exact all-pairs distances in G[restrict] via the Floyd-Warshall recurrence.

    `restrict` holds r distinct integer vertex ids in 0..n-1, in any order;
    the first id that is not an integer, outside that range or repeated
    raises ValueError.  Returns the (r, r) matrix over the ids in ascending
    order, +inf for pairs G[restrict] does not connect.

    The two ends of every zero-weight edge inside restrict are joined into
    classes, numbered in the order of their least ids, and the recurrence
    runs over the classes, in that order, from the least weight of the edges
    between two classes; each id reads its class's row.  This is exact:
    x + 0.0 == x for every nonnegative float, so dropping a path's
    zero-weight edges leaves its path-order sum unchanged, and the members
    of one class lie at distance 0.  It costs O(c^3) for c classes, and
    O(r^2) to gather the output: on a copy-expanded host, c is at most the
    input graph's vertex count.  With no zero-weight edge inside restrict
    every id is its own class, and the recurrence is the plain one bit for
    bit.  Otherwise its sums are associated in another order, so on weights
    whose sums round (decimals) an entry may differ from the plain
    recurrence's in the last bit; on integer weights the two are equal.
    """
    ids = np.asarray(restrict)
    if ids.size == 0:
        raise ValueError("restrict must be non-empty")
    if ids.dtype.kind not in "iu":  # floats, or ints beyond 64 bits, which numpy keeps as objects
        for v in ids.tolist():
            if type(v) is not int or not 0 <= v < g.n:
                why = f"outside 0..{g.n - 1}" if type(v) is int else "not an integer"
                raise ValueError(f"restrict: vertex {v} {why}")
        ids = ids.astype(np.int64)
    by_id = np.argsort(ids, kind="stable")
    idx = ids[by_id]
    wrong = (ids < 0) | (ids >= g.n)
    wrong[by_id[1:][idx[1:] == idx[:-1]]] = True  # every occurrence after the first
    if wrong.any():
        v = int(ids[np.argmax(wrong)])
        why = "repeated" if 0 <= v < g.n else f"outside 0..{g.n - 1}"
        raise ValueError(f"restrict: vertex {v} {why}")
    r = idx.size
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[idx] = np.arange(r)
    a, b, w = _edge_arrays(g)
    a, b = pos[a], pos[b]
    inside = (a >= 0) & (b >= 0)
    a, b, w = a[inside], b[inside], w[inside]
    zero = w == 0.0
    label = _least_joined(r, a[zero], b[zero])
    least = label == np.arange(r)
    cls = (np.cumsum(least) - 1)[label]  # positions ascend with ids, so classes do too
    c = int(least.sum())
    d = np.full((c, c), np.inf)
    np.fill_diagonal(d, 0.0)
    a, b, w = cls[a[~zero]], cls[b[~zero]], w[~zero]
    np.minimum.at(d, (a, b), w)
    np.minimum.at(d, (b, a), w)
    for k in range(c):  # ascending classes: the sums, and so every bit, depend on this order
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d[np.ix_(cls, cls)]
