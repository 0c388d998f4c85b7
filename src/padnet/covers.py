"""Deterministic sparse cover and padded partition cover from a tree-ordered net.

The sparse cover takes, per net vertex, the alpha*Delta ball inside the
subgraph induced by its descendants: strong diameter 2*alpha*Delta, at most
tau clusters per vertex, and every ball of radius (alpha-1)*Delta/2 lands
inside some cluster.

The partition cover shrinks the radius to alpha*Delta/2 and packs disjoint
balls into partial partitions, each built by one pass over the centers still
waiting, in rank order (root to leaf, ties by id): a center joins when its
ball misses the balls already in the partition, otherwise it waits for the
next one.  An order ancestor has a lower level, so it comes first in rank
order; every pick is therefore maximal among the partition's candidates, and
whatever blocks a center is an order ancestor within alpha*Delta, which its
packing count bounds.  So at most tau partial partitions arise, each
completed with singletons, each 3*Delta-bounded at alpha=3, padding radius
(alpha-2)*Delta/4.  The at most tau passes make O(tau*k) ball tests over k
centers, each reading one ball.

Both covers are arrays: each cluster's center, and its members, ascending,
as a CSR table (members[starts[i] : starts[i + 1]]).  Their `clusters` and
`partitions` are frozenset views built on first access; padnet reads the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import WeightedGraph
from .ordered_net import ArrayRecord, TreeOrderedNet, _cut, check_net_delta


@dataclass(frozen=True)
class CoverCluster:
    center: int
    members: frozenset[int]


@dataclass(frozen=True)
class PartitionCluster:
    kind: str  # "net" or "singleton"
    center: int
    radius: float
    members: frozenset[int]


@dataclass(eq=False)
class _Cover(ArrayRecord):
    """Cluster i's center is centers[i] and its members, ascending, are
    members[starts[i] : starts[i + 1]]."""

    centers: np.ndarray
    members: np.ndarray
    starts: np.ndarray
    alpha: float
    delta: float
    padding_ratio: float
    diameter_bound: float

    def _groups(self) -> list[tuple[int, list[int]]]:
        return list(zip(self.centers.tolist(), _cut(self.members.tolist(), self.starts)))

    def _json(self, key: str, clusters: list, **guarantees) -> dict:
        guarantees = {"padding_ratio": self.padding_ratio, "diameter_bound": self.diameter_bound, **guarantees}
        return {"params": {"alpha": self.alpha, "delta": self.delta}, "guarantees": guarantees, key: clusters}


@dataclass(eq=False)
class SparseCover(_Cover):
    """Cluster i is centers[i]'s ball; `clusters` is their frozenset view."""

    sparsity: int  # measured max per-vertex cluster count

    @cached_property
    def clusters(self) -> tuple[CoverCluster, ...]:
        return tuple(CoverCluster(c, frozenset(m)) for c, m in self._groups())

    def to_json_dict(self) -> dict:
        clusters = [{"center": c, "members": m} for c, m in self._groups()]
        return self._json("clusters", clusters, sparsity=self.sparsity)


@dataclass(eq=False)
class PartitionCover(_Cover):
    """Partial partition p is clusters partition_starts[p] up to
    partition_starts[p + 1], its balls in rank order, then its singletons by
    id; cluster i is centers[i]'s ball of radius alpha*delta/2 when
    is_net[i], else the singleton {centers[i]}.  `partitions` is their
    frozenset view."""

    partition_starts: np.ndarray
    is_net: np.ndarray

    def _partitions(self) -> list[list[tuple[str, int, float, list[int]]]]:
        """(kind, center, radius, members) of each cluster, cut into the partial partitions."""
        radius, net = self.alpha * self.delta / 2, self.is_net.tolist()
        flat = [("net", c, radius, m) if s else ("singleton", c, 0.0, m) for (c, m), s in zip(self._groups(), net)]
        return _cut(flat, self.partition_starts)

    @cached_property
    def partitions(self) -> tuple[tuple[PartitionCluster, ...], ...]:
        parts = self._partitions()
        return tuple(tuple(PartitionCluster(k, c, r, frozenset(m)) for k, c, r, m in part) for part in parts)

    def to_json_dict(self) -> dict:
        parts = self._partitions()
        partitions = [[{"kind": k, "center": c, "radius": r, "members": m} for k, c, r, m in part] for part in parts]
        return self._json("partitions", partitions, partition_count=len(self.partition_starts) - 1)


def _balls(net: TreeOrderedNet, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(members, starts) of the centers' balls at radius, by rank: the
    entries are sorted by vertex, so a stable argsort keeps each ascending."""
    vertex, rank, dist = net.center_entries()
    inside = dist <= radius
    vertex, rank = vertex[inside], rank[inside]
    count = np.bincount(rank, minlength=len(net.centers_in_order()))
    return vertex[np.argsort(rank, kind="stable")], np.concatenate(([0], np.cumsum(count)))


def build_sparse_cover(g: WeightedGraph, net: TreeOrderedNet, delta: float) -> SparseCover:
    """One cluster per net vertex: its alpha*delta descendant-restricted ball."""
    alpha = net.alpha
    if alpha <= 1:
        raise ValueError(f"sparse cover needs alpha > 1, got {alpha}")
    check_net_delta(net, delta)
    return SparseCover(
        net.centers_in_order(),
        *_balls(net, alpha * delta),
        alpha=alpha,
        delta=delta,
        padding_ratio=4 * alpha / (alpha - 1),
        diameter_bound=2 * alpha * delta,
        sparsity=net.tau_emp,  # a vertex's clusters are its packing count at alpha*delta
    )


def build_partition_cover(g: WeightedGraph, net: TreeOrderedNet, delta: float) -> PartitionCover:
    """Partial partitions of alpha*delta/2 balls, one rank-order pass each,
    singleton-completed."""
    alpha = net.alpha
    if alpha <= 2:
        raise ValueError(f"partition cover needs alpha > 2, got {alpha}")
    check_net_delta(net, delta)
    centers = net.centers_in_order()
    k, n = len(centers), g.n
    members, starts = _balls(net, alpha * delta / 2)
    bounds = starts.tolist()

    part_of, free = np.zeros(k, dtype=np.int64), []  # each center's partition, each one's singletons
    waiting = range(k)
    while waiting:
        occupied = np.zeros(n, dtype=bool)
        blocked = []
        for i in waiting:
            ball = members[bounds[i] : bounds[i + 1]]
            if occupied[ball].any():
                blocked.append(i)  # waits for the next partial partition
                continue
            occupied[ball] = True
            part_of[i] = len(free)
        free.append(~occupied)
        waiting = blocked

    # each member keyed by its cluster, (partition, rank) for a ball and
    # (partition, k + v) for the singleton {v}: a stable argsort lays the
    # clusters out in order, each ball's members still ascending
    single_p, single_v = np.nonzero(np.reshape(free, (-1, n)))
    rank = np.repeat(np.arange(k), np.diff(starts))
    key = np.concatenate([part_of[rank] * (k + n) + rank, single_p * (k + n) + k + single_v])
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    part, cluster = np.divmod(key[first], k + n)
    return PartitionCover(
        np.where(cluster < k, centers[np.minimum(cluster, k - 1)], cluster - k),
        np.concatenate([members, single_v])[order],
        np.append(first, order.size),
        alpha=alpha,
        delta=delta,
        padding_ratio=4 * alpha / (alpha - 2),
        diameter_bound=alpha * delta,
        partition_starts=np.searchsorted(part, np.arange(len(free) + 1)),
        is_net=cluster < k,
    )
