"""A fixed reference loop that measures how fast the machine runs right now.

On a shared machine other tenants slow every op by 10-30% for tens of
seconds at a time, so the raw medians of whole runs moved by about a quarter
between runs, more than a bound can absorb.  The benchmark interleaves this
loop with the ops it times and scales their medians by
REF_S / (median time of this loop in the same run): the end-to-end figures
are seconds on a machine where one pass of this loop takes REF_S.  The loop
does what padnet's hot paths do, a heapq Dijkstra over Python lists and
small numpy array updates, and calls no padnet code, so no change to padnet
can move it.
"""

from __future__ import annotations

import functools
import heapq
import random
import time

import numpy as np

REF_S = 0.01


@functools.cache
def _inputs():
    rnd = random.Random(7)
    n = 400
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for v in range(1, n):
        for u in (rnd.randrange(v), rnd.randrange(n)):
            if u != v:
                w = rnd.randint(1, 9)
                adj[u].append((v, w))
                adj[v].append((u, w))
    matrix = np.random.default_rng(7).random((150, 150))
    return adj, matrix


def measure() -> float:
    """Seconds one pass of the loop takes now."""
    adj, matrix = _inputs()
    t0 = time.perf_counter()
    for source in range(0, len(adj), 32):
        dist = [float("inf")] * len(adj)
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                if d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
    m = matrix.copy()
    for k in range(0, len(m), 3):
        np.minimum(m, m[:, k, None] + m[None, k, :], out=m)
    return time.perf_counter() - t0
