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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph
from .ordered_net import TreeOrderedNet, check_net_delta


@dataclass(frozen=True)
class CoverCluster:
    center: int
    members: frozenset[int]


@dataclass
class SparseCover:
    clusters: tuple[CoverCluster, ...]
    alpha: float
    delta: float
    padding_ratio: float
    diameter_bound: float
    sparsity: int  # measured max per-vertex cluster count

    def to_json_dict(self) -> dict:
        return {
            "params": {"alpha": self.alpha, "delta": self.delta},
            "guarantees": {
                "padding_ratio": self.padding_ratio,
                "diameter_bound": self.diameter_bound,
                "sparsity": self.sparsity,
            },
            "clusters": [
                {"center": c.center, "members": sorted(c.members)} for c in self.clusters
            ],
        }


@dataclass(frozen=True)
class PartitionCluster:
    kind: str  # "net" or "singleton"
    center: int
    radius: float
    members: frozenset[int]


@dataclass
class PartitionCover:
    partitions: tuple[tuple[PartitionCluster, ...], ...]
    alpha: float
    delta: float
    padding_ratio: float
    diameter_bound: float

    def to_json_dict(self) -> dict:
        return {
            "params": {"alpha": self.alpha, "delta": self.delta},
            "guarantees": {
                "padding_ratio": self.padding_ratio,
                "diameter_bound": self.diameter_bound,
                "partition_count": len(self.partitions),
            },
            "partitions": [
                [
                    {
                        "kind": c.kind,
                        "center": c.center,
                        "radius": c.radius,
                        "members": sorted(c.members),
                    }
                    for c in part
                ]
                for part in self.partitions
            ],
        }


def _ball_entries(net: TreeOrderedNet, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(vertex, rank) of the center entries within radius: v is in the ball
    of center rank, sorted by vertex then rank."""
    vertex, rank, dist = net.center_entries()
    inside = dist <= radius
    return vertex[inside], rank[inside]


def _grouped(values: np.ndarray, keys: np.ndarray, size: int) -> list[np.ndarray]:
    """values split by their key in 0..size-1, in their order within a key."""
    by_key = np.argsort(keys, kind="stable")
    return np.split(values[by_key], np.cumsum(np.bincount(keys, minlength=size))[:-1])


def build_sparse_cover(g: WeightedGraph, net: TreeOrderedNet, delta: float) -> SparseCover:
    """One cluster per net vertex: its alpha*delta descendant-restricted ball."""
    alpha = net.alpha
    if alpha <= 1:
        raise ValueError(f"sparse cover needs alpha > 1, got {alpha}")
    check_net_delta(net, delta)
    centers = net.centers_in_order()
    vertex, rank = _ball_entries(net, alpha * delta)
    members = _grouped(vertex, rank, len(centers))
    clusters = tuple(
        CoverCluster(center=int(centers[i]), members=frozenset(members[i].tolist()))
        for i in range(len(centers))
    )
    return SparseCover(
        clusters=clusters,
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
    radius = alpha * delta / 2
    vertex, rank = _ball_entries(net, radius)
    members = _grouped(vertex, rank, len(centers))

    partitions: list[tuple[PartitionCluster, ...]] = []
    waiting = range(len(centers))
    while waiting:
        occupied = np.zeros(g.n, dtype=bool)
        part, blocked = [], []
        for i in waiting:
            if occupied[members[i]].any():
                blocked.append(i)  # waits for the next partial partition
                continue
            occupied[members[i]] = True
            part.append(PartitionCluster("net", int(centers[i]), radius, frozenset(members[i].tolist())))
        singletons = np.flatnonzero(~occupied).tolist()
        part += [PartitionCluster("singleton", v, 0.0, frozenset([v])) for v in singletons]
        partitions.append(tuple(part))
        waiting = blocked

    return PartitionCover(
        partitions=tuple(partitions),
        alpha=alpha,
        delta=delta,
        padding_ratio=4 * alpha / (alpha - 2),
        diameter_bound=alpha * delta,
    )
