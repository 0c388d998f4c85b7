"""Independent oracles and the consolidated invariant suite.

`oracle_all_pairs` is a Floyd-Warshall path sharing no code with the Dijkstra
search in `graph`; the two are cross-checked against each other, and every
structure the other modules produce is certified here: conversion isometry,
core-carving invariants, net covering/packing, decomposition and cover
guarantees.  Checks never raise on violation - they return report entries
with a witness - and each check listed in the module docstrings appears
exactly once per full report.

Distance comparisons use absolute tolerance 1e-9 where a bound is checked;
oracle-vs-search agreement is exact (fixtures use integer or dyadic weights).

`full_report` computes each oracle matrix once and passes it on as an
argument; nothing is cached between calls, and a check called on its own
computes what it reads.
- The host's all-pairs matrix, computed after the input graph's: the
  isometry and copy checks, both ball-containment checks, the balls sampled
  for the unique-maximum check, the partition sweep's weak diameters and
  `padded_trial_counts`.  The sweep and the padding counts are thus
  certified against the oracle, not the Dijkstra rows they would otherwise
  share with the code under test.
- The net's center rows (`_oracle_center_distances`): the net checks and
  the sparse cover's packing counts.
- One oracle run per cover cluster (strong diameters, in the induced
  subgraph), and the graph-core checks' own Dijkstra-vs-oracle runs on the
  input graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covers import PartitionCover, SparseCover
from .decomposition import (
    DecompositionParams,
    PaddedPartition,
    TruncatedExp,
    padded_trial_counts,
    padding_estimates,
    replay_decomposition,
    sample_padded_decomposition,
    sample_truncated_exp,
    seeded_generator,
)
from .graph import (
    WeightedGraph,
    ball,
    shortest_paths,
    strong_diameter,
    weak_diameter,
)
from .ordered_net import (
    CoreConstruction,
    SemiTreeOrder,
    TreeOrderedNet,
    build_semi_tree_order,
    construct_cores_trace,
    semi_to_tree_order,
)
from .trees import IsometricEmbedding, TreeDecomposition, TreePartition

TOL = 1e-9
SWEEP_SEEDS = 100  # consecutive seeds whose sampled partitions full_report certifies
KS_CRITICAL_1PCT = 1.62762  # Kolmogorov statistic quantile, large-sample


class OracleCapError(ValueError):
    """The all-pairs oracle refuses instances beyond its configured cap."""


def oracle_all_pairs(g: WeightedGraph, restrict: Sequence[int], cap: int = 60) -> np.ndarray:
    """Exact all-pairs distances in G[restrict] via the O(n^3) recurrence.

    `restrict` holds distinct vertex ids, in any order.  Returns an (n, n)
    matrix with +inf for pairs not both inside restrict.  Refuses (never
    truncates) when |restrict| exceeds cap.
    """
    idx = np.sort(np.asarray(restrict, dtype=np.int64))
    if idx.size == 0:
        raise ValueError("restrict must be non-empty")
    if idx.size > cap:
        raise OracleCapError(f"oracle cap {cap} exceeded: |restrict| = {idx.size}")
    r = idx.size
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[idx] = np.arange(r)
    d = np.full((r, r), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in g.edges:
        pu, pv = pos[u], pos[v]
        if pu >= 0 and pv >= 0:
            if w < d[pu, pv]:
                d[pu, pv] = w
                d[pv, pu] = w
    for k in range(r):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    out = np.full((g.n, g.n), np.inf)
    out[np.ix_(idx, idx)] = d
    return out


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "warn"
    measured: float | int | None = None
    bound: float | int | None = None
    witness: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "measured": self.measured,
            "bound": self.bound,
            "witness": self.witness,
        }


@dataclass
class VerificationReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def format_table(self) -> str:
        width = max(len(c.name) for c in self.checks) if self.checks else 10
        lines = [f"{'check':<{width}}  {'status':<6}  measured / bound"]
        for c in self.checks:
            meas = "" if c.measured is None else f"{c.measured}"
            bnd = "" if c.bound is None else f" / {c.bound}"
            wit = f"  [{c.witness}]" if c.witness else ""
            lines.append(f"{c.name:<{width}}  {c.status:<6}  {meas}{bnd}{wit}")
        return "\n".join(lines)


def _check(name, passed, measured=None, bound=None, witness=None, warn=False) -> CheckResult:
    status = "pass" if passed else ("warn" if warn else "fail")
    return CheckResult(name, status, measured, bound, witness if not passed else None)


def _mask(n: int, ids) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


# ---------------------------------------------------------------------------
# conversion checks


def verify_embedding(
    g: WeightedGraph, td: TreeDecomposition, emb: IsometricEmbedding, oracle_cap: int
) -> list[CheckResult]:
    return _embedding_checks(g, td, emb, oracle_cap)[0]


def _embedding_checks(
    g: WeightedGraph, td: TreeDecomposition, emb: IsometricEmbedding, oracle_cap: int
) -> tuple[list[CheckResult], np.ndarray]:
    """The embedding checks and the host oracle matrix they read.

    The input graph's oracle runs first, so an input over the cap is named by
    its own size rather than its host's.
    """
    checks = []
    host, tp = emb.host, emb.tree_partition

    seen: dict[int, int] = {}
    bad = None
    for i, bag in enumerate(tp.bags):
        for v in bag:
            if v in seen:
                bad = f"host vertex {v} in bags {seen[v]} and {i}"
            seen[v] = i
    covering = len(seen) == host.n
    checks.append(_check("host-bags-partition", bad is None and covering, witness=bad))

    bag_of = tp.bag_of()
    bad = None
    for u, v, _ in host.edges:
        bu, bv = int(bag_of[u]), int(bag_of[v])
        if bu != bv and tp.parent[bu] != bv and tp.parent[bv] != bu:
            bad = f"host edge ({u},{v}) spans bags {bu},{bv}"
            break
    checks.append(_check("host-edge-validity", bad is None, witness=bad))

    dg = oracle_all_pairs(g, range(g.n), cap=oracle_cap)
    dh = oracle_all_pairs(host, range(host.n), cap=oracle_cap)
    fwd = emb.forward
    diff = np.abs(dh[np.ix_(fwd, fwd)] - dg)
    worst = float(diff.max())
    checks.append(
        _check(
            "isometry-exact",
            worst == 0.0,
            measured=worst,
            bound=0.0,
            witness=None
            if worst == 0.0
            else "pair " + str(np.unravel_index(int(diff.argmax()), diff.shape)),
        )
    )

    bad = None
    for v, copies in enumerate(emb.copies):
        for a in copies:
            for b in copies:
                if dh[a, b] != 0.0:
                    bad = f"copies {a},{b} of vertex {v} at distance {dh[a, b]}"
        if bad:
            break
    checks.append(_check("copy-zero-distance", bad is None, witness=bad))

    checks.append(
        _check(
            "width-preserved",
            tp.width == td.max_bag_size,
            measured=tp.width,
            bound=td.max_bag_size,
        )
    )
    return checks, dh


# ---------------------------------------------------------------------------
# core-carving checks


def misplaced_attachments(
    attached: np.ndarray, bag_of: np.ndarray, tin: np.ndarray, tout: np.ndarray
) -> np.ndarray:
    """Vertices held by an attachment whose bag is not a proper ancestor of
    their own bag.

    attached[v] is the bag whose attachment holds v, len(tin) for none;
    bag a is a proper ancestor of bag b iff tin[a] < tin[b] < tout[a].
    """
    held = np.flatnonzero(attached < len(tin))
    a, vb = attached[held], bag_of[held]
    return held[(tin[vb] <= tin[a]) | (tin[vb] >= tout[a])]


def _replay_carving(
    g: WeightedGraph, tp: TreePartition, delta: float, construction: CoreConstruction
) -> tuple[str | None, str | None, str | None]:
    """First witness (None: no fault) of core-members-in-support,
    core-ball-replay and attachments-descendant-only.

    Each core's support is replayed from the record alone.  In id order, a
    vertex is covered once an earlier core holds it, and attached[v] is the
    parent of the center bag of the latest earlier core holding v (`nb`:
    none, when that bag was its component's root).  The support is the
    uncovered vertices of the bags of the center bag's round-`rank` component
    inside the center bag's preorder interval, plus those bags' attachments;
    a center bag that no such component holds gets an empty support.
    """
    nb = len(tp.bags)
    bag_of = tp.bag_of()
    tin, tout = tp.bag_intervals()
    component = {}
    for comp in construction.components:
        bags = np.fromiter(comp.bags, dtype=np.int64, count=len(comp.bags))
        entry = (comp.root_bag, bags, tin[bags])
        component.update({(comp.round_no, b): entry for b in comp.bags})
    no_bags = np.zeros(0, dtype=np.int64)
    covered = np.zeros(g.n, dtype=bool)
    attached = np.full(g.n, nb)
    leaves = replay = misplaced = None
    for c in sorted(construction.cores, key=lambda c: c.id):
        members = np.fromiter(c.members, dtype=np.int64, count=len(c.members))
        root, bags, bag_tin = component.get((c.rank, c.center_bag), (c.center_bag, no_bags, no_bags))
        in_sub = np.zeros(nb + 1, dtype=bool)  # slot nb: no attachment
        in_sub[bags[(bag_tin >= tin[c.center_bag]) & (bag_tin < tout[c.center_bag])]] = True
        support = (in_sub[bag_of] & ~covered) | in_sub[attached]
        if leaves is None and not support[members].all():
            leaves = f"core {c.id} leaves its replayed support"
        centers = sorted(c.centers)
        if replay is None and not (support.any() and support[centers].all()):
            replay = f"core {c.id}: centers outside its replayed support"
        elif replay is None:
            dist = shortest_paths(g, support, centers, limit=delta)  # exact up to delta
            if c.members != set(np.flatnonzero(dist <= delta).tolist()):
                replay = f"core {c.id}: recorded members differ from replayed ball"
        covered[members] = True
        attached[members] = nb if c.center_bag == root else tp.parent[c.center_bag]
        if misplaced is None and len(bad := misplaced_attachments(attached, bag_of, tin, tout)):
            misplaced = (
                f"attachment of bag {attached[bad[0]]} holds vertex {bad[0]} "
                f"of bag {bag_of[bad[0]]}, not a proper descendant"
            )
    return leaves, replay, misplaced


def verify_cores(
    g: WeightedGraph, tp: TreePartition, delta: float, construction: CoreConstruction
) -> list[CheckResult]:
    checks = []
    cores = construction.cores
    tpw = tp.width
    bag_of = tp.bag_of()

    union = set()
    for c in cores:
        union |= c.members
    checks.append(
        _check(
            "cores-cover-all-vertices",
            union == set(range(g.n)),
            measured=len(union),
            bound=g.n,
        )
    )

    bad = None
    for c in cores:
        for v in c.members:
            if not tp.is_bag_ancestor(c.center_bag, int(bag_of[v])):
                bad = f"core {c.id}: member {v} outside subtree of bag {c.center_bag}"
                break
        if bad:
            break
    checks.append(_check("core-members-in-center-subtree", bad is None, witness=bad))

    leaves, replay, misplaced = _replay_carving(g, tp, delta, construction)
    checks.append(_check("core-members-in-support", leaves is None, witness=leaves))

    bad = None
    for c in cores:
        if not c.centers <= (tp.bags[c.center_bag] & c.members):
            bad = f"core {c.id}: centers not inside its center bag and members"
            break
    checks.append(_check("core-centers-in-center-bag", bad is None, witness=bad))

    checks.append(_check("core-ball-replay", replay is None, witness=replay))

    bad = None
    by_rank: dict[int, set[int]] = {}
    for c in cores:
        hit = by_rank.setdefault(c.rank, set()) & c.members
        if hit:
            bad = f"rank {c.rank}: vertex {min(hit)} in two cores"
            break
        by_rank[c.rank] |= c.members
    checks.append(_check("same-rank-cores-disjoint", bad is None, witness=bad))

    checks.append(
        _check("round-count-bound", construction.rounds <= tpw, measured=construction.rounds, bound=tpw)
    )

    per_vertex = np.zeros(g.n, dtype=np.int64)
    per_bag = np.zeros(len(tp.bags), dtype=np.int64)
    for c in cores:
        touched_bags = {int(bag_of[v]) for v in c.members}
        for v in c.members:
            per_vertex[v] += 1
        for b in touched_bags:
            per_bag[b] += 1
    checks.append(
        _check(
            "per-vertex-core-bound",
            int(per_vertex.max()) <= tpw,
            measured=int(per_vertex.max()),
            bound=tpw,
        )
    )
    checks.append(
        _check(
            "per-bag-core-bound",
            int(per_bag.max()) <= tpw * tpw,
            measured=int(per_bag.max()),
            bound=tpw * tpw,
        )
    )

    vrank = np.full(g.n, np.inf)
    for c in cores:
        for v in c.members:
            vrank[v] = min(vrank[v], c.rank)
    bad = None
    for c in cores:
        for v in tp.bags[c.center_bag] - c.centers:
            if not vrank[v] < c.rank:
                bad = f"core {c.id} rank {c.rank}: non-center {v} has rank {vrank[v]}"
                break
        if bad:
            break
    checks.append(_check("noncenter-rank-drop", bad is None, witness=bad))

    checks.append(_check("attachments-descendant-only", misplaced is None, witness=misplaced))
    same = construct_cores_trace(g, tp, delta).cores == cores
    checks.append(
        _check("core-construction-deterministic", same, witness=None if same else "rerun differs")
    )

    bad = None
    by_round: dict[int, list] = {}
    for comp in construction.components:
        by_round.setdefault(comp.round_no, []).append(comp)
    for rnd, comps in by_round.items():
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                if comps[i].cluster & comps[j].cluster:
                    bad = f"round {rnd}: clusters of components {i},{j} overlap"
    for comp in construction.components:
        if comp.round_no == 1:
            continue
        parents = [
            c
            for c in by_round.get(comp.round_no - 1, [])
            if comp.bags <= c.bags
        ]
        if len(parents) != 1:
            bad = f"round {comp.round_no} component at bag {comp.root_bag} has no unique parent"
            continue
        if not comp.cluster <= parents[0].cluster:
            bad = (
                f"round {comp.round_no} component at bag {comp.root_bag} "
                "cluster escapes its parent cluster"
            )
    checks.append(_check("component-clusters-laminar", bad is None, witness=bad))
    return checks


# ---------------------------------------------------------------------------
# net checks


def _oracle_center_distances(
    g: WeightedGraph, net: TreeOrderedNet, oracle_cap: int
) -> np.ndarray:
    centers = net.centers_in_order()
    d = np.full((len(centers), g.n), np.inf)
    for i, x in enumerate(centers.tolist()):
        full = oracle_all_pairs(g, np.flatnonzero(net.descendant_vertices(x)), cap=oracle_cap)
        d[i] = full[x]
    return d


def count_maximal(order: TreeOrderedNet | SemiTreeOrder, members: np.ndarray) -> int:
    """Number of members u with no other member v such that u <= v in the order.

    One interval test over the members sorted by tin: u is maximal when no
    earlier member's interval reaches past tin[u] and no other member shares
    its node.
    """
    tin, tout = order.vertex_intervals()
    by_tin = members[np.argsort(tin[members])]
    m_tin, m_tout = tin[by_tin], tout[by_tin]
    reach = np.concatenate(([0], np.maximum.accumulate(m_tout)[:-1]))
    shared = np.concatenate((m_tin[1:] == m_tin[:-1], [False]))
    return int(np.count_nonzero((m_tin >= reach) & ~shared))


def verify_net(
    g: WeightedGraph,
    net: TreeOrderedNet,
    delta: float,
    oracle_cap: int = 60,
    seed: int = 0,
    samples: int = 100,
    host_dist: np.ndarray | None = None,
    center_dist: np.ndarray | None = None,
) -> VerificationReport:
    """Certify the net and its order against the oracle.

    host_dist is g's oracle matrix and center_dist the net's oracle center
    rows (`_oracle_center_distances`); each is computed here when not given.
    """
    checks: list[CheckResult] = []
    if host_dist is None:
        host_dist = oracle_all_pairs(g, range(g.n), cap=oracle_cap)
    if center_dist is None:
        center_dist = _oracle_center_distances(g, net, oracle_cap)

    node_of = net.assign
    bad = None
    for u, v, _ in g.edges:
        a, b = int(node_of[u]), int(node_of[v])
        if not (net.node_is_ancestor(a, b) or net.node_is_ancestor(b, a)):
            bad = f"edge ({u},{v}) order-incomparable"
            break
    checks.append(_check("order-valid-for-edges", bad is None, witness=bad))

    rng = seeded_generator(seed, 0)
    ecc0 = host_dist[0]
    scale = 2 * float(ecc0[np.isfinite(ecc0)].max()) or 1.0
    bad = None
    for _ in range(samples):
        center = int(rng.integers(g.n))
        radius = float(rng.uniform(0, scale))
        maximal = count_maximal(net, np.flatnonzero(host_dist[center] <= radius))
        if maximal != 1:
            bad = f"ball({center},{radius:.3g}) has {maximal} maximal elements"
            break
    checks.append(_check("connected-subset-unique-maximum", bad is None, witness=bad))

    # the net's table ends at center_radius; the oracle's rows are complete
    bounded = np.where(center_dist <= net.center_radius, center_dist, np.inf)
    agree = np.array_equal(net.center_distance_matrix(), bounded)
    checks.append(_check("net-distance-oracle-agreement", agree))

    covered = (center_dist <= delta).any(axis=0)
    witness = None if covered.all() else f"vertex {int(np.flatnonzero(~covered)[0])}"
    checks.append(
        _check("net-covering", bool(covered.all()), measured=int(covered.sum()), bound=g.n, witness=witness)
    )

    counts2 = (center_dist <= 2 * delta).sum(axis=0)
    checks.append(
        _check(
            "net-packing-2delta",
            int(counts2.max()) <= net.tau_bound,
            measured=int(counts2.max()),
            bound=net.tau_bound,
            witness=f"vertex {int(counts2.argmax())}",
        )
    )
    counts3 = (center_dist <= 3 * delta).sum(axis=0)
    checks.append(CheckResult("net-packing-3delta", "pass", int(counts3.max()), None))
    counts_a = (center_dist <= net.alpha * delta).sum(axis=0)
    checks.append(
        _check(
            "net-packing-alpha-delta",
            int(counts_a.max()) == net.tau_emp,
            measured=int(counts_a.max()),
            bound=net.tau_emp,
        )
    )
    return VerificationReport(checks)


def deep_packing_assertions(
    g: WeightedGraph, net: TreeOrderedNet, tp: TreePartition, v: int, oracle_cap: int = 60
) -> None:
    """Opt-in deep assertions on the ancestor-core chain of one vertex.

    Splits the cores that meet v's 2*delta ancestor net points into greedy
    links anchored at minimum-rank cores; asserts each minimum rank is
    realized by a single core and that every ancestor core in a link
    intersects its anchor's center set.  These are the structural facts the
    packing bound rests on, exposed for spot checks rather than every run.
    """
    cores = net.cores
    if not cores:
        raise ValueError("net carries no core table")
    oracle_d = _oracle_center_distances(g, net, oracle_cap)
    centers = net.centers_in_order()
    near = {int(centers[i]) for i in np.flatnonzero(oracle_d[:, v] <= 2 * net.delta)}
    meeting = [c for c in cores if c.members & near]
    remaining = sorted((c for c in meeting if v not in c.members), key=lambda c: c.id)
    while remaining:
        lowest = min(c.rank for c in remaining)
        lowest_cores = [c for c in remaining if c.rank == lowest]
        assert len(lowest_cores) == 1, (
            f"vertex {v}: {len(lowest_cores)} chain cores share minimum rank {lowest}"
        )
        anchor = lowest_cores[0]
        link = [c for c in remaining if tp.is_bag_ancestor(c.center_bag, anchor.center_bag)]
        for c in link:
            assert c is anchor or c.members & anchor.centers, (
                f"vertex {v}: core {c.id} in chain link misses the center of core {anchor.id}"
            )
        remaining = [c for c in remaining if c not in link]


# ---------------------------------------------------------------------------
# decomposition checks


def verify_partition(
    g: WeightedGraph,
    p: PaddedPartition,
    alpha: float,
    delta: float,
    dist_matrix: np.ndarray,
) -> VerificationReport:
    """Certify one sampled partition; dist_matrix holds g's all-pairs distances."""
    checks: list[CheckResult] = []
    n = g.n
    beta = (alpha + 1) / 2

    # every cluster's members end to end, each labelled with its cluster
    members = [np.fromiter(c.members, dtype=np.int64, count=len(c.members)) for c in p.clusters]
    flat = np.concatenate(members) if members else np.zeros(0, dtype=np.int64)
    labels = np.repeat(np.arange(len(members)), [m.size for m in members])

    total = p.assignment.shape[0] == n and (p.assignment >= 0).all()
    seen = np.bincount(flat, minlength=n)
    consistent = np.array_equal(p.assignment[flat], labels)
    ok = bool(total and (seen == 1).all() and consistent)
    witness = None
    if not ok:
        stray = np.flatnonzero(seen != 1)
        witness = f"vertex {int(stray[0])} in {int(seen[stray[0]])} clusters" if stray.size else "assignment mismatch"
    checks.append(_check("partition-total-disjoint", ok, witness=witness))

    bound = (alpha + 1) * delta + TOL
    worst = 0.0
    worst_c = None
    for i, idx in enumerate(members):
        d = float(dist_matrix[idx][:, idx].max())  # two gathers beat one np.ix_ gather
        if d > worst:
            worst, worst_c = d, i
    checks.append(
        _check(
            "partition-weak-diameter",
            worst <= bound,
            measured=worst,
            bound=bound,
            witness=f"cluster {worst_c}",
        )
    )

    radii = [r for _, r in p.trace]
    rad_ok = all(delta <= r <= beta * delta for r in radii)
    checks.append(
        _check(
            "partition-radius-range",
            rad_ok,
            measured=max(radii) if radii else None,
            bound=beta * delta,
        )
    )
    return VerificationReport(checks)


# ---------------------------------------------------------------------------
# cover checks


def verify_cover(
    g: WeightedGraph,
    cover: SparseCover | PartitionCover,
    alpha: float,
    delta: float,
    oracle_cap: int = 60,
    packing_counts: np.ndarray | None = None,
    tau: int | None = None,
    host_dist: np.ndarray | None = None,
) -> VerificationReport:
    """Certify a cover; host_dist, g's oracle matrix, is computed when not given."""
    if host_dist is None:
        host_dist = oracle_all_pairs(g, range(g.n), cap=oracle_cap)
    if isinstance(cover, SparseCover):
        return _verify_sparse_cover(g, cover, alpha, delta, oracle_cap, host_dist, packing_counts)
    return _verify_partition_cover(g, cover, alpha, delta, oracle_cap, host_dist, tau)


def _cluster_matrix(n: int, clusters) -> np.ndarray:
    out = np.zeros((len(clusters), n), dtype=bool)
    for i, members in enumerate(clusters):
        out[i, list(members)] = True
    return out


def _worst_strong_diameter(g: WeightedGraph, clusters, oracle_cap: int) -> tuple[float, int | None]:
    """Largest oracle diameter of G[members] over the clusters' member sets,
    and the index of the first cluster reaching it (None when all are 0)."""
    worst, worst_i = 0.0, None
    for i, members in enumerate(clusters):
        d = oracle_all_pairs(g, sorted(members), cap=oracle_cap)
        idx = np.fromiter(members, dtype=np.int64)
        m = float(d[np.ix_(idx, idx)].max())
        if m > worst:
            worst, worst_i = m, i
    return worst, worst_i


def _ball_containment(
    host_dist: np.ndarray, cluster_mask: np.ndarray, radius: float
) -> tuple[bool, str | None]:
    for v in range(host_dist.shape[0]):
        ball_mask = host_dist[v] <= radius
        leaves = (ball_mask[None, :] & ~cluster_mask).any(axis=1)
        if leaves.all():
            return False, f"ball around vertex {v} fits in no cluster"
    return True, None


def _verify_sparse_cover(g, cover, alpha, delta, oracle_cap, host_dist, packing_counts):
    checks: list[CheckResult] = []
    mask = _cluster_matrix(g.n, [c.members for c in cover.clusters])
    per_vertex = mask.sum(axis=0)
    checks.append(
        _check(
            "cover-every-vertex-covered",
            bool((per_vertex >= 1).all()),
            measured=int(per_vertex.min()),
            bound=1,
        )
    )
    if packing_counts is not None:
        ok = bool((per_vertex <= packing_counts).all())
        checks.append(
            _check(
                "cover-sparsity-vs-packing",
                ok,
                measured=int(per_vertex.max()),
                bound=int(packing_counts.max()),
                witness=None if ok else f"vertex {int(np.flatnonzero(per_vertex > packing_counts)[0])}",
            )
        )

    bound = 2 * alpha * delta + TOL
    worst, worst_c = _worst_strong_diameter(g, [c.members for c in cover.clusters], oracle_cap)
    checks.append(
        _check(
            "cover-strong-diameter",
            worst <= bound,
            measured=worst,
            bound=bound,
            witness=f"cluster {worst_c}",
        )
    )

    radius = (alpha - 1) * delta / 2
    ok, witness = _ball_containment(host_dist, mask, radius)
    checks.append(
        _check("cover-ball-containment", ok, measured=radius, witness=witness)
    )
    return VerificationReport(checks)


def _verify_partition_cover(g, cover, alpha, delta, oracle_cap, host_dist, tau):
    checks: list[CheckResult] = []
    bad = None
    for pi, part in enumerate(cover.partitions):
        seen = np.zeros(g.n, dtype=np.int64)
        for c in part:
            for v in c.members:
                seen[v] += 1
        if not (seen == 1).all():
            v = int(np.flatnonzero(seen != 1)[0])
            bad = f"partition {pi}: vertex {v} in {int(seen[v])} clusters"
            break
    checks.append(_check("partition-cover-partitions-valid", bad is None, witness=bad))

    if tau is not None:
        count = len(cover.partitions)
        if count <= tau:
            checks.append(_check("partition-cover-count", True, measured=count, bound=tau))
        else:
            checks.append(
                _check(
                    "partition-cover-count",
                    False,
                    measured=count,
                    bound=tau,
                    witness=f"{count} partitions",
                    warn=count <= tau + 1,
                )
            )

    bound = alpha * delta + TOL
    # a cluster of more than one member is a net cluster
    spans = [(pi, c) for pi, p in enumerate(cover.partitions) for c in p if len(c.members) > 1]
    worst, i = _worst_strong_diameter(g, [c.members for _, c in spans], oracle_cap)
    worst_w = None if i is None else f"partition {spans[i][0]} cluster center {spans[i][1].center}"
    checks.append(
        _check(
            "partition-cover-diameter",
            worst <= bound,
            measured=worst,
            bound=bound,
            witness=worst_w,
        )
    )

    all_clusters = [c.members for part in cover.partitions for c in part]
    mask = _cluster_matrix(g.n, all_clusters)
    radius = (alpha - 2) * delta / 4
    ok, witness = _ball_containment(host_dist, mask, radius)
    checks.append(
        _check("partition-cover-ball-containment", ok, measured=radius, witness=witness)
    )
    return VerificationReport(checks)


# ---------------------------------------------------------------------------
# sampler distribution check


def sampler_ks_check(lam: float, theta1: float, theta2: float, draws: int = 100_000, seed: int = 0) -> CheckResult:
    """Kolmogorov-Smirnov: inverse-CDF draws against the analytic CDF at 1%."""
    texp = TruncatedExp(theta1, theta2, lam)
    rng = seeded_generator(seed, 1)
    ys = np.sort(sample_truncated_exp(texp, rng.random(draws)))
    cdf = texp.cdf(ys)
    i = np.arange(1, draws + 1)
    stat = float(np.maximum(np.abs(cdf - i / draws), np.abs(cdf - (i - 1) / draws)).max())
    crit = KS_CRITICAL_1PCT / math.sqrt(draws)
    return _check("sampler-ks", stat < crit, measured=stat, bound=crit)


# ---------------------------------------------------------------------------
# consolidated pipeline verification


def full_report(
    g: WeightedGraph,
    td: TreeDecomposition,
    delta: float,
    alpha: float = 3.0,
    seed: int = 0,
    trials: int = 10_000,
    oracle_cap: int = 60,
) -> VerificationReport:
    """Run every invariant check of the whole pipeline on one instance."""
    from .trees import td_to_tree_partition

    if oracle_cap < 1:
        raise ValueError(f"oracle_cap must be >= 1, got {oracle_cap}")
    checks: list[CheckResult] = []
    checks.extend(_graph_property_checks(g, seed, oracle_cap))

    emb = td_to_tree_partition(g, td)
    # the report's one host oracle matrix; every host-distance check reads it
    embedding_checks, dh = _embedding_checks(g, td, emb, oracle_cap)
    checks.extend(embedding_checks)

    host, tp = emb.host, emb.tree_partition
    construction = construct_cores_trace(host, tp, delta)
    checks.extend(verify_cores(host, tp, delta, construction))

    semi, net_set = build_semi_tree_order(construction.cores, tp)
    net = semi_to_tree_order(
        semi, net_set, host, delta, alpha=alpha, cores=tuple(construction.cores)
    )
    center_dist = _oracle_center_distances(host, net, oracle_cap)
    net_report = verify_net(
        host, net, delta, oracle_cap=oracle_cap, seed=seed, host_dist=dh, center_dist=center_dist
    )
    checks.extend(net_report.checks)

    rebuilt = semi_to_tree_order(
        semi, net_set, host, delta, alpha=alpha, cores=tuple(construction.cores)
    )
    checks.append(
        _check(
            "net-construction-deterministic",
            rebuilt.order_parent == net.order_parent
            and rebuilt.node_vertex == net.node_vertex
            and np.array_equal(rebuilt.assign, net.assign),
        )
    )

    params = DecompositionParams.from_net(net, delta)
    # each sweep check names the first seed it fails on; seed 0 is also replayed
    sweep_fail: dict[str, str] = {}
    replay_fail = None
    for s in range(SWEEP_SEEDS):
        part = sample_padded_decomposition(host, net, delta, seed + s)
        for c in verify_partition(host, part, alpha, delta, dist_matrix=dh).checks:
            if c.status == "fail" and c.name not in sweep_fail:
                sweep_fail[c.name] = f"seed {seed + s}" + (f": {c.witness}" if c.witness else "")
        if s == 0:
            replayed = replay_decomposition(net, list(part.trace), seed=part.seed)
            if not (
                np.array_equal(replayed.assignment, part.assignment)
                and replayed.clusters == part.clusters
            ):
                replay_fail = "replayed partition differs"
    for name in ("partition-total-disjoint", "partition-weak-diameter", "partition-radius-range"):
        fail = sweep_fail.get(name)
        bound = (alpha + 1) * delta + TOL if name == "partition-weak-diameter" else None
        checks.append(_check(name, fail is None, bound=bound, witness=fail))
    checks.append(_check("partition-replay-identical", replay_fail is None, witness=replay_fail))

    gammas = params.default_gammas()
    counts = padded_trial_counts(host, net, delta, gammas, trials, seed, dist_matrix=dh)
    for e in padding_estimates(counts, params, trials, gammas):
        checks.append(
            _check(
                f"padding-lcb-gamma-{e.gamma:g}",
                e.lcb >= e.target,
                measured=e.lcb,
                bound=e.target,
                witness=f"vertex {e.worst_vertex}",
            )
        )
    checks.append(sampler_ks_check(params.lam, 1.0, params.beta_internal, seed=seed))

    from .covers import build_partition_cover, build_sparse_cover

    pk_counts = (center_dist <= alpha * delta).sum(axis=0)
    cover = build_sparse_cover(host, net, delta)
    checks.extend(
        verify_cover(
            host, cover, alpha, delta, oracle_cap=oracle_cap, packing_counts=pk_counts, host_dist=dh
        ).checks
    )
    if alpha <= 2:
        # the partition cover's padding radius (alpha-2)*delta/4 needs alpha > 2
        checks.append(
            _check(
                "partition-cover-skipped",
                False,
                measured=alpha,
                bound=2,
                witness=f"partition cover needs alpha > 2, got {alpha}; section not run",
                warn=True,
            )
        )
        return VerificationReport(checks)
    pcover = build_partition_cover(host, net, delta)
    checks.extend(
        verify_cover(
            host, pcover, alpha, delta, oracle_cap=oracle_cap, tau=net.tau_emp, host_dist=dh
        ).checks
    )
    return VerificationReport(checks)


def _graph_property_checks(g: WeightedGraph, seed: int, oracle_cap: int) -> list[CheckResult]:
    rng = seeded_generator(seed, 2)
    everything = g.all_vertices()
    base = shortest_paths(g, everything, [0])

    bad = None
    for _ in range(10):
        size = int(rng.integers(1, g.n + 1))
        members = rng.choice(g.n, size=size, replace=False).tolist()
        if 0 not in members:
            members.append(0)
        d = shortest_paths(g, _mask(g.n, members), [0])
        if (d + TOL < base).any():
            bad = "restricted distance below unrestricted"
            break
    checks = [_check("restricted-distances-dominate", bad is None, witness=bad)]

    bad = None
    for _ in range(10):
        c = int(rng.integers(g.n))
        r1, r2 = sorted(rng.uniform(0, float(base[np.isfinite(base)].max()) + 1, size=2).tolist())
        b1 = ball(g, everything, [c], r1)
        b2 = ball(g, everything, [c], r2)
        if (b1 & ~b2).any():
            bad = f"ball({c},{r1:.3g}) not inside ball({c},{r2:.3g})"
            break
    checks.append(_check("ball-monotone", bad is None, witness=bad))

    bad = None
    for _ in range(10):
        size = int(rng.integers(1, g.n + 1))
        members = _mask(g.n, rng.choice(g.n, size=size, replace=False))
        if weak_diameter(g, members) > strong_diameter(g, members) + TOL:
            bad = "weak diameter exceeds strong diameter"
            break
    checks.append(_check("weak-le-strong-diameter", bad is None, witness=bad))

    bad = None
    for _ in range(5):
        size = int(rng.integers(1, min(g.n, oracle_cap) + 1))
        members = rng.choice(g.n, size=size, replace=False).tolist()
        matrix = oracle_all_pairs(g, members, cap=oracle_cap)
        restrict = _mask(g.n, members)
        for s in members:
            d = shortest_paths(g, restrict, [s])
            row = matrix[s]
            if not (
                np.array_equal(np.isinf(d[members]), np.isinf(row[members]))
                and np.array_equal(
                    d[members][np.isfinite(d[members])],
                    row[members][np.isfinite(row[members])],
                )
            ):
                bad = f"oracle mismatch from source {s}"
                break
        if bad:
            break
    checks.append(_check("dijkstra-floyd-warshall-agreement", bad is None, witness=bad))
    return checks

