"""Deterministic sparse cover and padded partition cover from a tree-ordered net.

The sparse cover takes, per net vertex, the alpha*Delta ball inside the
subgraph induced by its descendants: strong diameter 2*alpha*Delta, at most
tau clusters per vertex, and every ball of radius (alpha-1)*Delta/2 lands
inside some cluster.

The partition cover shrinks the radius to alpha*Delta/2 and greedily packs
disjoint clusters into partial partitions, preferring centers closer to the
root; each partial partition is then completed with singletons.  At most tau
partial partitions arise, each 3*Delta-bounded at alpha=3, padding radius
(alpha-2)*Delta/4.
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
    """Greedy partial partitions of alpha*delta/2 balls, singleton-completed."""
    alpha = net.alpha
    if alpha <= 2:
        raise ValueError(f"partition cover needs alpha > 2, got {alpha}")
    check_net_delta(net, delta)
    centers = net.centers_in_order()
    radius = alpha * delta / 2
    vertex, rank = _ball_entries(net, radius)
    members = _grouped(vertex, rank, len(centers))
    holding = _grouped(rank, vertex, g.n)  # the centers whose ball holds each vertex

    # centers in preorder of their order nodes: ancestors come first
    tin, tout = net.vertex_intervals()
    by_tin = np.argsort(tin[centers])
    tin, tout = tin[centers[by_tin]], tout[centers[by_tin]]
    remaining = np.ones(len(centers), dtype=bool)
    partial_partitions: list[list[int]] = []
    while remaining.any():
        candidate = remaining.copy()  # unchosen, ball misses this partition's balls
        chosen: list[int] = []
        while candidate.any():
            live = candidate[by_tin]
            # maximal: no earlier candidate's subtree interval covers its tin
            reach = np.maximum.accumulate(tout[live])
            maximal = by_tin[live][tin[live] >= np.concatenate(([0], reach[:-1]))]
            pick = int(maximal[np.argmin(centers[maximal])])
            chosen.append(pick)
            # keep the unchosen centers whose ball misses the pick's ball
            remaining[pick] = candidate[pick] = False
            candidate[np.concatenate([holding[v] for v in members[pick].tolist()])] = False
        partial_partitions.append(chosen)

    partitions: list[tuple[PartitionCluster, ...]] = []
    for chosen in partial_partitions:
        part: list[PartitionCluster] = []
        occupied = np.zeros(g.n, dtype=bool)
        for i in chosen:
            part.append(
                PartitionCluster(
                    kind="net",
                    center=int(centers[i]),
                    radius=radius,
                    members=frozenset(members[i].tolist()),
                )
            )
            occupied[members[i]] = True
        for v in np.flatnonzero(~occupied).tolist():
            part.append(
                PartitionCluster(kind="singleton", center=v, radius=0.0, members=frozenset([v]))
            )
        partitions.append(tuple(part))

    return PartitionCover(
        partitions=tuple(partitions),
        alpha=alpha,
        delta=delta,
        padding_ratio=4 * alpha / (alpha - 2),
        diameter_bound=alpha * delta,
    )
