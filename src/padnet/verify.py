"""Independent oracles and the consolidated invariant suite.

`oracle_all_pairs` (its own module, `oracle`, which reads the edge list
alone) is Floyd-Warshall over the classes that zero-weight edges join, and
`_bellman_ford_rows` a radius-bounded Bellman-Ford over key intervals, each
row costing its ball; neither shares code with the Dijkstra search in
`graph`, and no check calls that search: `core-ball-replay` takes a core's
ball from its centers' rows.
Every structure the other modules produce is certified here: conversion isometry,
core-carving invariants, net covering/packing, decomposition and cover
guarantees.  The report certifies the instance, not the kernel: the Dijkstra search's own properties
(agreement with Bellman-Ford and Floyd-Warshall, restriction never shortens,
balls nest, weak diameter <= strong) are tests in tests/test_graph.py, and
the carving's and the order's determinism tests in tests/test_ordered_net.py.
`sampler_ks_check` is not in the report either: the inverse CDF is monotone,
so its statistic is that of the seed's uniforms, and at 1% it fails about one
seed in a hundred on any instance.  Every verdict reads the instance alone,
and the seed only picks the sampled partition and the padding trials.
Checks never raise on violation - they return report entries with a
witness - and each check listed in the module docstrings appears exactly
once per full report.

Every check reads the members of a record's sets (cores, host bags, each
vertex's host copies, each carving component's bags, a cover's clusters)
through one filter, `_in_range`, that keeps ids in 0..n-1.  An id out of
range, however large, fails one check per record with a witness naming the
set and the id (`host-bags-partition`, `copy-zero-distance`,
`cover-every-vertex-covered`, `partition-cover-partitions-valid`,
`core-ball-replay` for a component's bag; a core with such a member fails
like one whose center bag is outside the partition, and
`cores-cover-all-vertices` fails too), and no other check reads it: no
verify function raises on, or is fooled by, a member of these sets out of
range.  A forward entry outside the host fails `isometry-exact`.  A sampled
partition is its assignment, one cluster id per vertex, so it is disjoint
by its form; a vertex whose id names no cluster is in none.  No view of a
partition or a cover (`clusters`, `partitions`, `trace`) is read.

Distance comparisons use absolute tolerance 1e-9 where a bound is checked;
every equality between two computed distances is exact and compares sums
taken in path order.
Bellman-Ford sums each path in path order, as Dijkstra does, so the center
rows agree with the net's table bit for bit on any weights.
`connected-subset-unique-maximum` reads the order alone: when every edge's
ends are comparable and no two vertices share a node, the shallowest member
of a connected set is an ancestor of every other member.

`full_report` is the only producer of the whole-host oracle tables: it
computes each once and passes it on as an argument, and `verify_net` and
`verify_cover` read the tables they are given.  It builds the carving and
the net once too, and certifies that one copy.  Nothing is cached between
calls.
- No rows for `isometry-exact`: it is certified from the two edge lists.
- The host's all-pairs matrix (Floyd-Warshall over the host's zero-weight
  classes: one per input vertex when the host is g copy-expanded, so its
  cost is cubic in g's size and quadratic in the host's): the copy checks,
  both ball-containment checks, the sampled partition's weak diameter and
  `padded_trial_counts`.  The partition and the padding counts are thus
  certified against the oracle, not the Dijkstra rows they would otherwise
  share with the code under test.  The padding counts list their ball
  pairs from that matrix's per-class minima; the claim classes, read from
  the net's center table, group the vertices claimed alike in every trial.
- The net's center rows (`_oracle_center_distances`), each kept to its
  center's preorder interval, bounded at `center_radius`: the net checks,
  the packing table, which bounds the sparse cover's count at each vertex
  and, by its maximum (`net-packing-alpha-delta`'s value), the partition
  cover's count, and the certificates of both covers' strong diameters.

The isometry is certified, not computed.  Let orig[h] be the vertex whose
copies hold host vertex h.  `isometry-exact` passes when (a) every host
vertex is a copy of exactly one vertex and orig[forward[v]] == v; (b) every
host edge (a, b, w) with orig[a] != orig[b] lies over an edge of g between
orig[a] and orig[b] of weight <= w; (c) every edge of g has a host edge over
it of exactly its weight; and (d) every copy of v is joined to forward[v] by
host edges of weight exactly 0.0.  Weights are nonnegative, so for every pair
u, v the least path-order sum between forward[u] and forward[v] in the host
equals the one between u and v in g, bit for bit, which is what rows of both
graphs would compare.  (>=) A host path maps to a walk of g: drop its edges
inside one vertex's copies and read each other edge as the edge of g beneath
it.  Float addition is monotone, so dropping nonnegative terms or lowering
one never raises a left-to-right sum, and cutting the walk's cycles out
leaves a path of g no longer than the host path.  (<=) A path of g lifts to
a host walk of edges of the same weights joined by zero-weight paths, and
s + 0.0 == s.  `isometry._isometry_fault` checks the four in O(n + m) numpy
over the two edge lists and the copies' membership table; (d) labels each
zero-weight component by min-label propagation with pointer jumping.  A
failure names the first condition that fails, with its smallest vertex or
edge, and measures nothing.

A cover's strong diameter is certified, not computed.  A sparse-cover
cluster must equal its center's oracle ball at alpha*delta, a
partition-cover `net` cluster its center's ball at alpha*delta/2, and a
`singleton` must hold its center alone.  The rows are exact up to
`center_radius` and +inf beyond, so a cluster equal to a row's ball is a true
ball of the center's descendant subgraph, at any alpha.  In a ball, every
prefix of a shortest path from the center stays inside, so each member joins
the center inside the cluster by a path no longer than its row distance, and
the strong diameter is at most twice the largest such distance: the value
reported as measured.  A cluster that is no such ball fails, with a witness
naming the cluster and its smallest vertex that differs, whatever its
diameter, and measures nothing.  The exact diameters are a test in
tests/test_full_report.py.

The report samples one partition, the one `padnet decompose --seed` emits
(`sample_padded_decomposition`), checks it with `verify_partition` and
replays it; its three checks hold for every seed.  A vertex goes to the
first center, in rank order, whose `center_entries()` distance is <= its
radius, and every radius lies in [delta, beta*delta], beta = (alpha+1)/2
(`sample_truncated_exp` clips to the law's endpoints, which a test checks
exactly).  `net-covering` certifies an entry <= delta at every vertex, so
every draw is total, and the first claim makes it disjoint.
`net-distance-oracle-agreement` certifies each entry as the oracle's
restricted distance, >= the host distance, so two members of one cluster lie
within 2*beta*delta = (alpha+1)*delta through its center.  A check of twice
the largest claimable entry could never fail: each is <= beta*delta.

Every oracle run is on the input graph, its host or an induced subgraph of
one, so the oracle cap bounds those two sizes alone: `full_report` and
`verify_embedding` check it before any check runs, and nothing below takes it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .covers import PartitionCover, SparseCover
from .decomposition import (
    DecompositionParams,
    PaddedPartition,
    PaddingEstimate,
    TruncatedExp,
    padded_trial_counts,
    padding_estimates,
    replay_decomposition,
    sample_padded_decomposition,
    sample_truncated_exp,
    seeded_generator,
    wilson_lower_bound,
)
from .graph import (
    WeightedGraph,
    ball,  # unused here; perfbench's tracer wraps verify's binding
    shortest_paths,
    strong_diameter,  # unused here; perfbench's tracer wraps verify's binding
    weak_diameter,  # unused here; perfbench's tracer wraps verify's binding
)
from .isometry import _isometry_fault
from .oracle import _edge_arrays, oracle_all_pairs
from .ordered_net import (
    CoreConstruction,
    TreeOrderedNet,
    build_semi_tree_order,
    construct_cores_trace,
    semi_to_tree_order,
)
from .trees import IsometricEmbedding, TreeDecomposition, TreePartition

TOL = 1e-9
KS_CRITICAL_1PCT = 1.62762  # Kolmogorov statistic quantile, large-sample


class OracleCapError(ValueError):
    """The all-pairs oracle refuses instances beyond its configured cap."""


def _check_oracle_cap(oracle_cap: int, *graphs: WeightedGraph) -> None:
    """Refuse (never truncate) the first graph over the cap.  A cap below 1
    is bad configuration, not an input over the cap."""
    if oracle_cap < 1:
        raise ValueError(f"oracle_cap must be >= 1, got {oracle_cap}")
    for h in graphs:
        if h.n > oracle_cap:
            raise OracleCapError(f"oracle cap {oracle_cap} exceeded: |restrict| = {h.n}")


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "warn"
    measured: float | int | None = None
    bound: float | int | None = None
    witness: str | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


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


def _memberships(sets, n: int) -> tuple[np.ndarray, np.ndarray, tuple[int, int] | None]:
    """(owner, member, dropped): every membership of a record's sets, in set
    order and each set's iteration order, as `_in_range` keeps them."""
    sizes = [len(s) for s in sets]
    try:
        member = values = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=sum(sizes))
    except OverflowError:  # a member beyond int64: read as -1, named by its own value
        values = list(chain.from_iterable(sets))
        member = np.array([v if 0 <= v < n else -1 for v in values], dtype=np.int64)
    return _in_range(np.repeat(np.arange(len(sizes)), sizes), member, n, values)


def _in_range(owner: np.ndarray, member: np.ndarray, n: int, values: np.ndarray | list):
    """(owner, member, dropped) of a membership table, keeping members in
    0..n-1; dropped is the first membership left out, as (owner, its member
    read from values), or None."""
    keep = (member >= 0) & (member < n)
    if keep.all():
        return owner, member, None
    first = int(np.argmin(keep))
    return owner[keep], member[keep], (int(owner[first]), int(values[first]))


def _split(owner: np.ndarray, member: np.ndarray, k: int) -> list[np.ndarray]:
    """The members of each of the k sets of a membership table."""
    bounds = np.searchsorted(owner, np.arange(k + 1)).tolist()
    return [member[a:b] for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# conversion checks


def verify_embedding(
    g: WeightedGraph, td: TreeDecomposition, emb: IsometricEmbedding, oracle_cap: int
) -> list[CheckResult]:
    _check_oracle_cap(oracle_cap, g, emb.host)
    return _embedding_checks(g, td, emb)[0]


def _embedding_checks(
    g: WeightedGraph, td: TreeDecomposition, emb: IsometricEmbedding
) -> tuple[list[CheckResult], np.ndarray]:
    """The embedding checks and the host's oracle matrix they read."""
    checks = []
    host, tp = emb.host, emb.tree_partition

    owner, member, dropped = _memberships(tp.bags, host.n)
    count = np.bincount(member, minlength=host.n)
    bad = None
    if dropped:
        bad = f"bag {dropped[0]}: member {dropped[1]} outside host vertices 0..{host.n - 1}"
    elif (count > 1).any():
        v = int(np.argmax(count > 1))
        bags = owner[member == v]
        bad = f"host vertex {v} in bags {bags[0]} and {bags[1]}"
    checks.append(_check("host-bags-partition", bad is None and (count == 1).all(), witness=bad))

    bag_of = np.full(host.n, -1)
    bag_of[member] = owner
    a, b, _ = _edge_arrays(host)
    bu, bv = bag_of[a], bag_of[b]
    parent = np.array([*tp.parent, -1])  # slot -1: an end in no bag
    wrong = (np.minimum(bu, bv) < 0) | ((bu != bv) & (parent[bu] != bv) & (parent[bv] != bu))
    bad = None
    if wrong.any():
        i = int(np.argmax(wrong))
        bad = f"host edge ({a[i]},{b[i]}) spans bags {bu[i]},{bv[i]}"
    checks.append(_check("host-edge-validity", bad is None, witness=bad))

    dh = oracle_all_pairs(host, range(host.n))
    fwd = np.asarray(emb.forward)
    owner, member, dropped = _memberships(emb.copies, host.n)
    outside = np.flatnonzero((fwd < 0) | (fwd >= host.n))
    if outside.size:
        v = int(outside[0])
        bad = f"vertex {v}: forward {fwd[v]} outside host vertices 0..{host.n - 1}"
    else:
        bad = _isometry_fault(g, host, fwd, owner, member)
    checks.append(_check("isometry-exact", bad is None, None if bad else 0.0, 0.0, bad))

    bad = None
    if dropped:
        bad = f"vertex {dropped[0]}: copy {dropped[1]} outside host vertices 0..{host.n - 1}"
    for v, copies in enumerate(_split(owner, member, len(emb.copies))):
        if bad:
            break
        d = dh[np.ix_(copies, copies)]
        if (d != 0.0).any():
            i, j = np.argwhere(d != 0.0)[0]
            bad = f"copies {copies[i]},{copies[j]} of vertex {v} at distance {d[i, j]}"
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
    """The indices i whose attachment's bag attached[i] (len(tin): none) is
    not a proper ancestor of their own bag bag_of[i]; vertices, on whole arrays.

    Bag a is a proper ancestor of bag b iff tin[a] < tin[b] < tout[a].
    """
    held = np.flatnonzero(attached < len(tin))
    a, vb = attached[held], bag_of[held]
    return held[(tin[vb] <= tin[a]) | (tin[vb] >= tout[a])]


def _replay_carving(
    g: WeightedGraph,
    tp: TreePartition,
    delta: float,
    construction: CoreConstruction,
    members: list[np.ndarray],
    stray: dict[int, str],
    bag_of: np.ndarray,
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
    members[i] holds the in-range members of core i, and a core index in
    `stray` (index -> witness) has a center bag or a member out of range.
    A component's bags outside the partition are left out of its support,
    and the first one is core-ball-replay's witness.
    """
    nb = len(tp.bags)
    tin, tout = tp.bag_intervals()
    comps = construction.components
    owner, member, dropped = _memberships([comp.bags for comp in comps], nb)
    component = {}
    for comp, bags in zip(comps, _split(owner, member, len(comps))):
        entry = (comp.root_bag, bags, tin[bags])
        component.update({(comp.round_no, b): entry for b in bags.tolist()})
    no_bags = np.zeros(0, dtype=np.int64)
    out = _edge_lists(g)
    covered = np.zeros(g.n, dtype=bool)
    attached = np.full(g.n, nb)
    leaves = replay = misplaced = None
    if dropped:
        replay = f"component {dropped[0]}: bag {dropped[1]} outside bags 0..{nb - 1}"
    for i, c in sorted(enumerate(construction.cores), key=lambda ic: ic[1].id):
        root, bags, bag_tin = component.get((c.rank, c.center_bag), (c.center_bag, no_bags, no_bags))
        in_sub = np.zeros(nb + 1, dtype=bool)  # slot nb: no attachment
        if i not in stray:
            in_sub[bags[(bag_tin >= tin[c.center_bag]) & (bag_tin < tout[c.center_bag])]] = True
        support = (in_sub[bag_of] & ~covered) | in_sub[attached]
        if leaves is None and not support[members[i]].all():
            leaves = f"core {c.id} leaves its replayed support"
        if replay is None and i in stray:
            replay = stray[i]
        elif replay is None and not (support.any() and c.centers <= set(np.flatnonzero(support).tolist())):
            replay = f"core {c.id}: centers outside its replayed support"
        elif replay is None:  # the ball: the least of its centers' rows
            rows = _bellman_ford_rows(out, list(c.centers), support.tobytes(), 1, 2, delta)
            if c.members != set(np.flatnonzero(rows.min(axis=0, initial=np.inf) <= delta).tolist()):
                replay = f"core {c.id}: recorded members differ from replayed ball"
        covered[members[i]] = True
        attached[members[i]] = nb if c.center_bag == root else tp.parent[c.center_bag]
        held = np.sort(members[i])  # the only entries changed, and none was misplaced before
        if misplaced is None and len(bad := held[misplaced_attachments(attached[held], bag_of[held], tin, tout)]):
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
    nb = len(tp.bags)
    tin, tout = tp.bag_intervals()
    owner, member, dropped = _memberships([c.members for c in cores], g.n)
    # the checks that read a core's center bag or members fail on one out of range
    stray = {
        i: f"core {c.id}: center bag {c.center_bag} outside bags 0..{nb - 1}"
        for i, c in enumerate(cores)
        if not 0 <= c.center_bag < nb
    }
    if dropped:
        i, v = dropped
        stray.setdefault(i, f"core {cores[i].id}: member {v} outside vertices 0..{g.n - 1}")

    per_vertex = np.bincount(member, minlength=g.n)
    covered = int(np.count_nonzero(per_vertex))
    checks.append(
        _check("cores-cover-all-vertices", dropped is None and covered == g.n, measured=covered, bound=g.n)
    )

    # a stray core's members are tested against the root bag, which holds them all
    center = np.array(
        [tp.root if i in stray else c.center_bag for i, c in enumerate(cores)], dtype=np.int64
    )
    at, cb = tin[bag_of[member]], center[owner]
    out = np.flatnonzero((at < tin[cb]) | (at >= tout[cb]))
    first_stray = min(stray, default=len(cores))
    if out.size and owner[out[0]] < first_stray:
        c = cores[owner[out[0]]]
        bad = f"core {c.id}: member {member[out[0]]} outside subtree of bag {c.center_bag}"
    else:
        bad = stray.get(first_stray)
    checks.append(_check("core-members-in-center-subtree", bad is None, witness=bad))

    leaves, replay, misplaced = _replay_carving(
        g, tp, delta, construction, _split(owner, member, len(cores)), stray, bag_of
    )
    checks.append(_check("core-members-in-support", leaves is None, witness=leaves))

    bad = next(
        (
            stray.get(i, f"core {c.id}: centers not inside its center bag and members")
            for i, c in enumerate(cores)
            if i in stray or not c.centers <= (tp.bags[c.center_bag] & c.members)
        ),
        None,
    )
    checks.append(_check("core-centers-in-center-bag", bad is None, witness=bad))

    checks.append(_check("core-ball-replay", replay is None, witness=replay))

    rank = np.array([c.rank for c in cores], dtype=np.int64)[owner]
    by = np.lexsort((owner, member, rank))  # by rank, then vertex, then core
    again = by[1:][(rank[by[1:]] == rank[by[:-1]]) & (member[by[1:]] == member[by[:-1]])]
    bad = None
    if again.size:  # the first core holding a vertex of an earlier core of its rank
        i = owner[again].min()
        bad = f"rank {cores[i].rank}: vertex {member[again[owner[again] == i]].min()} in two cores"
    checks.append(_check("same-rank-cores-disjoint", bad is None, witness=bad))

    checks.append(
        _check("round-count-bound", construction.rounds <= tpw, measured=construction.rounds, bound=tpw)
    )

    pairs = np.sort(owner * nb + bag_of[member])  # a core counts once in each bag it touches
    per_bag = np.bincount(pairs[np.diff(pairs, prepend=-1) != 0] % nb, minlength=nb)
    most_v, most_b = int(per_vertex.max()), int(per_bag.max())
    checks.append(_check("per-vertex-core-bound", most_v <= tpw, measured=most_v, bound=tpw))
    checks.append(_check("per-bag-core-bound", most_b <= tpw * tpw, measured=most_b, bound=tpw * tpw))

    vrank = np.full(g.n, np.inf)
    np.minimum.at(vrank, member, rank)
    bad = next(
        (
            f"core {c.id} rank {c.rank}: non-center {v} has rank {vrank[v]}"
            for i, c in enumerate(cores)
            if i not in stray
            for v in tp.bags[c.center_bag] - c.centers
            if not vrank[v] < c.rank
        ),
        None,
    )
    checks.append(_check("noncenter-rank-drop", bad is None, witness=bad))

    checks.append(_check("attachments-descendant-only", misplaced is None, witness=misplaced))

    bad = _laminar_fault(construction.components)
    checks.append(_check("component-clusters-laminar", bad is None, witness=bad))
    return checks


def _laminar_fault(components) -> str | None:
    """First witness (None: no fault) of component-clusters-laminar: overlaps
    first, in round then component order, then parent faults in component order."""
    by_round: dict[int, list] = {}
    for comp in components:
        by_round.setdefault(comp.round_no, []).append(comp)
    for rnd, comps in by_round.items():
        # the first overlapping pair is the least (first owner, later owner) of a vertex
        first: dict[int, int] = {}
        pairs = [(i, j) for j, c in enumerate(comps) for v in c.cluster if (i := first.setdefault(v, j)) != j]
        if pairs:
            i, j = min(pairs)
            return f"round {rnd}: clusters of components {i},{j} overlap"
    for comp in components:
        if comp.round_no == 1:
            continue
        parents = [c for c in by_round.get(comp.round_no - 1, []) if comp.bags <= c.bags]
        where = f"round {comp.round_no} component at bag {comp.root_bag}"
        if len(parents) != 1:
            return f"{where} has no unique parent"
        if not comp.cluster <= parents[0].cluster:
            return f"{where} cluster escapes its parent cluster"
    return None


# ---------------------------------------------------------------------------
# net checks


def _edge_lists(g: WeightedGraph) -> list[list[tuple[int, float]]]:
    """Each vertex's (neighbour, weight) pairs, read from g's edge list."""
    out: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        out[u].append((v, w))
        out[v].append((u, w))
    return out


def _bellman_ford_rows(out, sources, key, lo, hi, limit: float) -> np.ndarray:
    """Distances from sources[i] over the vertices v with lo[i] <= key[v] <
    hi[i] (lo, hi broadcast; key a bytes mask or a list of preorder numbers),
    as (rows, n), by Bellman-Ford over `_edge_lists`' lists.

    Each sweep relaxes the out-edges of the vertices whose distance fell, and
    no candidate above `limit` is recorded, so a row costs its ball.  A value
    recorded sums a path in path order, each prefix within `limit`.  Float
    addition is monotone, so at the fixpoint no entry on such a path exceeds
    its prefix sum: the least such sums, a bounded Dijkstra's bit for bit.
    """
    d = np.full((len(sources), len(out)), np.inf)
    for i, (s, a, b) in enumerate(zip(*(x.tolist() for x in np.broadcast_arrays(sources, lo, hi)))):
        dist, fell = {s: 0.0}, [s]
        while fell:
            now = {}
            for u in fell:
                du = dist[u]
                for v, w in out[u]:
                    nd = du + w
                    if nd < dist.get(v, math.inf) and nd <= limit and a <= key[v] < b:
                        dist[v] = nd
                        now[v] = None
            fell = now
        d[i, list(dist)] = list(dist.values())
    return d


def _oracle_center_distances(g: WeightedGraph, net: TreeOrderedNet) -> np.ndarray:
    """The net's center rows from the oracle: row i holds the distances from
    centers_in_order()[i] inside its descendant subgraph up to
    `net.center_radius`, +inf beyond, as the net's own table holds them.

    Row i keeps its center's preorder interval; one call computes every row.
    """
    centers = net.centers_in_order()
    tin, tout = net.vertex_intervals()
    return _bellman_ford_rows(_edge_lists(g), centers, tin.tolist(), tin[centers], tout[centers], net.center_radius)


def verify_net(
    g: WeightedGraph, net: TreeOrderedNet, delta: float, center_dist: np.ndarray
) -> VerificationReport:
    """Certify the net and its order against the oracle.

    center_dist holds the net's oracle center rows (`_oracle_center_distances`).
    """
    checks: list[CheckResult] = []
    tin, tout = net.vertex_intervals()
    a, b, _ = _edge_arrays(g)
    # an edge's ends are comparable when the interval of the end entered
    # first (either, on a tie) holds the other's tin
    first_out = np.where(tin[a] <= tin[b], tout[a], tout[b])
    wrong = np.flatnonzero(np.maximum(tin[a], tin[b]) >= first_out)
    bad = f"edge ({a[wrong[0]]},{b[wrong[0]]}) order-incomparable" if wrong.size else None
    checks.append(_check("order-valid-for-edges", bad is None, witness=bad))

    # with every edge comparable and one vertex per node, the shallowest member
    # of a connected set is an ancestor of every other member, so it is the
    # set's one maximal element
    shared = np.ones(g.n, dtype=bool)
    shared[np.unique(tin, return_index=True)[1]] = False  # the first vertex at each node
    if bad is None and shared.any():
        v = int(np.argmax(shared))
        bad = f"vertices {int(np.argmax(tin == tin[v]))},{v} share an order node"
    checks.append(_check("connected-subset-unique-maximum", bad is None, witness=bad))

    # the oracle's finite entries as (vertex, rank, dist), in the table's order
    finite = np.nonzero(np.isfinite(center_dist.T))
    agree = all(map(np.array_equal, (*finite, center_dist.T[finite]), net.center_entries()))
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

    # one id per vertex: disjoint by its form, and total when every id names
    # one of the k clusters; each cluster must hold a vertex
    a, k, witness = p.assignment, len(p.centers), None
    shaped = a.shape == (n,)
    order, starts = p.members() if shaped else (np.zeros(0, np.intp), np.zeros(k + 1, np.intp))
    stray, empty = np.flatnonzero((a < 0) | (a >= k)), np.flatnonzero(np.diff(starts) == 0)
    if not shaped:
        witness = f"assignment of shape {a.shape}, not ({n},)"
    elif stray.size:
        witness = f"vertex {stray[0]}: cluster {a[stray[0]]} outside clusters 0..{k - 1}"
    elif empty.size:
        witness = f"cluster {empty[0]} has no member"
    checks.append(_check("partition-total-disjoint", witness is None, witness=witness))

    bound = (alpha + 1) * delta + TOL
    worst, worst_c = 0.0, None
    for i in range(k):
        idx = order[starts[i] : starts[i + 1]]
        # two gathers beat one np.ix_ gather; rows go in blocks of at most
        # 2**13 distances, so no cluster's whole block is copied at once, and
        # np.maximum propagates NaN as one max over the block would; a
        # cluster of no vertex has diameter 0
        step = max(1, 8192 // max(idx.size, 1))
        d = 0.0
        for s in range(0, idx.size, step):
            d = np.maximum(d, dist_matrix[idx[s : s + step]][:, idx].max(initial=0.0))
        d = float(d)
        if d > worst:
            worst, worst_c = d, i
    checks.append(_check("partition-weak-diameter", worst <= bound, worst, bound, f"cluster {worst_c}"))

    radii = p.radii
    rad_ok = bool(((delta <= radii) & (radii <= beta * delta)).all())
    checks.append(_check("partition-radius-range", rad_ok, float(radii.max()) if radii.size else None, beta * delta))
    return VerificationReport(checks)


# ---------------------------------------------------------------------------
# cover checks


def verify_cover(
    g: WeightedGraph,
    cover: SparseCover | PartitionCover,
    alpha: float,
    delta: float,
    host_dist: np.ndarray,
    packing_counts: np.ndarray,
    center_dist: np.ndarray,
    centers: np.ndarray,
) -> VerificationReport:
    """Certify a cover; host_dist is g's (n, n) oracle matrix.  No cap is read.

    packing_counts holds each vertex's oracle count of centers within alpha *
    delta.  center_dist holds the net's oracle center rows
    (`_oracle_center_distances`), row i from centers[i], the net's
    `centers_in_order()`.  The strong diameters are certified from those
    rows (module docstring).
    """
    if isinstance(cover, SparseCover):
        return _verify_sparse_cover(g, cover, alpha, delta, host_dist, packing_counts, center_dist, centers)
    return _verify_partition_cover(g, cover, alpha, delta, host_dist, packing_counts, center_dist, centers)


def _ball_certificate(center_dist, centers, cluster_centers, singleton, radius, mask):
    """(measured, fault) of a cover's strong-diameter check.

    Cluster i, with members mask[i] and center cluster_centers[i], must hold
    exactly its center when singleton[i], and else exactly its center's
    oracle ball at `radius`.
    With no fault, measured is twice the largest oracle distance of a member
    from its center (0 for a singleton).  Otherwise measured is None and
    fault is the first cluster that differs from what it must equal, as
    (index, text) naming its smallest differing vertex.
    """
    n, cc = mask.shape[1], cluster_centers
    row_of = {c: i for i, c in enumerate(centers.tolist())}
    row = np.array([-1 if s else row_of.get(c, -1) for c, s in zip(cc.tolist(), singleton.tolist())], dtype=np.int64)
    balls = np.flatnonzero(row >= 0)
    dist = center_dist[row[balls]]
    expect = np.zeros_like(mask)
    expect[balls] = dist <= radius
    lone = np.flatnonzero(singleton & (cc >= 0) & (cc < n))
    expect[lone, cc[lone]] = True
    differ = expect != mask
    differ[(row < 0) & ~singleton] = True  # no net center: the cluster differs throughout
    if not differ.any():
        return 2 * float(np.where(mask[balls], dist, 0.0).max(initial=0.0)), None
    i, v = divmod(int(np.argmax(differ)), n)
    c = cc[i]
    if row[i] < 0 and not singleton[i]:
        return None, (i, f"center {c} is no net center")
    what = f"{{{c}}}" if singleton[i] else f"the oracle ball of center {c}"
    if mask[i, v]:
        return None, (i, f"vertex {v} is a member, not in {what}")
    return None, (i, f"vertex {v} is in {what}, not a member")


def _ball_containment(
    host_dist: np.ndarray, cluster_mask: np.ndarray, radius: float
) -> tuple[bool, str | None]:
    """Whether every vertex's ball at radius lies in some cluster holding it,
    and the smallest vertex whose ball does not.

    Each (cluster, member) pair is tested once, on packed bit rows: it fits
    when no bit of the member's ball lies outside the cluster.  Memory is
    the pairs times n/8 bytes."""
    owner, member = np.nonzero(cluster_mask)
    ball = np.packbits(host_dist <= radius, axis=1)
    outside = np.packbits(~cluster_mask, axis=1)
    fitted = np.zeros(host_dist.shape[0], dtype=bool)
    fitted[member[~(ball[member] & outside[owner]).any(axis=1)]] = True
    if fitted.all():
        return True, None
    return False, f"ball around vertex {int(np.argmin(fitted))} fits in no cluster"


def _cover_memberships(cover, n: int):
    """(owner, member, dropped) of a cover's CSR table, as `_in_range` keeps
    them, and its (clusters, n) membership mask."""
    owner = np.repeat(np.arange(len(cover.centers)), np.diff(cover.starts))
    owner, member, dropped = _in_range(owner, cover.members, n, cover.members)
    mask = np.zeros((len(cover.centers), n), dtype=bool)
    mask[owner, member] = True
    return owner, member, dropped, mask


def _verify_sparse_cover(g, cover, alpha, delta, host_dist, packing_counts, center_dist, centers):
    _, _, dropped, mask = _cover_memberships(cover, g.n)
    per_vertex = mask.sum(axis=0)
    covered = dropped is None and bool((per_vertex >= 1).all())
    witness = dropped and f"cluster {dropped[0]}: member {dropped[1]} outside vertices 0..{g.n - 1}"
    checks = [_check("cover-every-vertex-covered", covered, int(per_vertex.min()), 1, witness)]
    over = np.flatnonzero(per_vertex > packing_counts)
    witness = f"vertex {int(over[0])}" if over.size else None
    most, bound = int(per_vertex.max()), int(packing_counts.max())
    checks.append(_check("cover-sparsity-vs-packing", not over.size, most, bound, witness))

    bound, singleton = 2 * alpha * delta + TOL, np.zeros(len(cover.centers), dtype=bool)
    worst, fault = _ball_certificate(center_dist, centers, cover.centers, singleton, alpha * delta, mask)
    witness = fault and f"cluster {fault[0]}: {fault[1]}"
    checks.append(_check("cover-strong-diameter", fault is None and worst <= bound, worst, bound, witness))

    radius = (alpha - 1) * delta / 2
    ok, witness = _ball_containment(host_dist, mask, radius)
    checks.append(_check("cover-ball-containment", ok, radius, witness=witness))
    return VerificationReport(checks)


def _verify_partition_cover(g, cover, alpha, delta, host_dist, packing_counts, center_dist, centers):
    owner, member, dropped, mask = _cover_memberships(cover, g.n)
    count, first = len(cover.partition_starts) - 1, cover.partition_starts
    part_of = np.repeat(np.arange(count), np.diff(first))
    seen = np.zeros((count, g.n), dtype=np.int64)  # clusters per (partition, vertex)
    np.add.at(seen, (part_of[owner], member), 1)
    bad = None
    if dropped:
        bad = f"partition {part_of[dropped[0]]}: member {dropped[1]} outside vertices 0..{g.n - 1}"
    elif (seen != 1).any():
        pi, v = np.argwhere(seen != 1)[0]
        bad = f"partition {pi}: vertex {v} in {seen[pi, v]} clusters"
    checks = [_check("partition-cover-partitions-valid", bad is None, witness=bad)]

    tau = int(packing_counts.max())
    checks.append(_check("partition-cover-count", count <= tau, count, tau, f"{count} partitions", warn=count <= tau + 1))

    bound = alpha * delta + TOL
    worst, fault = _ball_certificate(center_dist, centers, cover.centers, ~cover.is_net, alpha * delta / 2, mask)
    if fault:  # name the cluster by its partition and its index there
        i, p = fault[0], part_of[fault[0]]
        fault = f"partition {p} cluster {i - first[p]}: {fault[1]}"
    checks.append(_check("partition-cover-diameter", fault is None and worst <= bound, worst, bound, fault))

    radius = (alpha - 2) * delta / 4
    ok, witness = _ball_containment(host_dist, mask, radius)
    checks.append(_check("partition-cover-ball-containment", ok, radius, witness=witness))
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
    stat = float(np.maximum(i / draws - cdf, cdf - (i - 1) / draws).max())  # max(D+, D-)
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
    """Run every invariant check of the whole pipeline on one instance.  A
    seed outside [0, 2**64), trials below 1, or g or its host over the cap,
    raises first."""
    from .trees import td_to_tree_partition

    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    emb = td_to_tree_partition(g, td)
    _check_oracle_cap(oracle_cap, g, emb.host)
    # the report's one oracle matrix of the host; every check that reads all pairs reads it
    checks, dh = _embedding_checks(g, td, emb)

    host, tp = emb.host, emb.tree_partition
    construction = construct_cores_trace(host, tp, delta)
    checks.extend(verify_cores(host, tp, delta, construction))

    assign, net_set = build_semi_tree_order(construction.cores, tp)
    net = semi_to_tree_order(
        tp, assign, net_set, host, delta, alpha=alpha, cores=tuple(construction.cores)
    )
    center_dist = _oracle_center_distances(host, net)
    checks.extend(verify_net(host, net, delta, center_dist).checks)

    params = DecompositionParams.from_net(net, delta)
    # the one partition `padnet decompose --seed` emits; every seed's holds (module docstring)
    part = sample_padded_decomposition(host, net, delta, seed)
    for c in verify_partition(host, part, alpha, delta, dist_matrix=dh).checks:
        fail = f"seed {seed}" + (f": {c.witness}" if c.witness else "")
        bound = c.bound if c.name == "partition-weak-diameter" else None
        checks.append(_check(c.name, c.status == "pass", bound=bound, witness=fail))
    trace = list(zip(part.ordered_centers.tolist(), part.radii.tolist()))
    same = replay_decomposition(net, trace, seed=part.seed) == part
    checks.append(_check("partition-replay-identical", same, witness="replayed partition differs"))

    # the padding counts run last and their checks are spliced in here: perfbench's
    # RssPeaks matches open frames by value, and run earlier, before this report
    # had grown past its start, their frame could equal the report's (perfbench/tracing.py)
    padding_at = len(checks)

    from .covers import build_partition_cover, build_sparse_cover

    pk_counts = (center_dist <= alpha * delta).sum(axis=0)
    rows = (center_dist, net.centers_in_order())
    cover = build_sparse_cover(host, net, delta)
    checks.extend(verify_cover(host, cover, alpha, delta, dh, pk_counts, *rows).checks)
    if alpha <= 2:
        # the partition cover's padding radius (alpha-2)*delta/4 needs alpha > 2
        witness = f"partition cover needs alpha > 2, got {alpha}; section not run"
        checks.append(_check("partition-cover-skipped", False, alpha, 2, witness, warn=True))
    else:
        pcover = build_partition_cover(host, net, delta)
        checks.extend(verify_cover(host, pcover, alpha, delta, dh, pk_counts, *rows).checks)

    gammas = params.default_gammas()
    counts = padded_trial_counts(host, net, delta, gammas, trials, seed, dist_matrix=dh)
    checks[padding_at:padding_at] = [
        _padding_check(e, trials) for e in padding_estimates(counts, params, trials, gammas)
    ]
    return VerificationReport(checks)


def _padding_check(e: PaddingEstimate, trials: int) -> CheckResult:
    """Fails when the Wilson bound misses the target, and warns when no count
    could reach it (t padded trials of t bound the rate at t / (t + z^2)),
    naming the fewest trials that could."""
    need = trials
    while wilson_lower_bound(need, need) < e.target:
        need += 1
    witness = f"vertex {e.worst_vertex}"
    if need > trials:
        witness += f": no count of {trials} trials reaches the target; {need} trials can"
    name = f"padding-lcb-gamma-{e.gamma:g}"
    return _check(name, e.lcb >= e.target, e.lcb, e.target, witness, warn=need > trials)


# unused here; perfbench's tracer wraps verify's binding
def _graph_property_checks(g: WeightedGraph, dg: np.ndarray) -> list[CheckResult]:
    """An unrestricted Dijkstra row from every vertex of g against dg, g's oracle matrix."""
    everything = g.all_vertices()
    bad = next(
        (
            f"oracle mismatch from source {s}"
            for s in range(g.n)
            if not np.array_equal(shortest_paths(g, everything, [s]), dg[s])
        ),
        None,
    )
    return [_check("dijkstra-floyd-warshall-agreement", bad is None, witness=bad)]

