"""Core carving over a tree partition and the resulting tree-ordered net.

The construction proceeds in rounds.  Each round takes the connected
components of the bags that still hold uncovered vertices and, inside each
component, repeatedly picks the unvisited bag closest to the root, carves a
radius-Delta ball around its uncovered vertices in a support graph, and
records the ball as a core.  The support graph mixes uncovered vertices of
the bag's subtree with per-bag "attachments": portions of earlier cores that
were re-exposed to their parent bag, letting a later core grow through an
earlier one.  Rounds repeat until every vertex is covered.

Ordering every vertex by the center bag of the first core that covered it
gives a tree order without injectivity (several vertices may share a bag
node).  A second step expands each bag node into a rooted path - net vertices
first, then the rest - which restores injectivity while keeping the covering
radius at Delta and only relaxing the packing radius.

Ties are broken deterministically everywhere: components by root bag id,
bag picks by (level, bag id), path expansion by vertex id.  Identical inputs
therefore produce identical cores, orders, and nets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .graph import (
    WeightedGraph,
    reach,
    shortest_paths,  # unused here; perfbench's tracer wraps ordered_net's binding
)
from .trees import TreePartition, rooted_tree_arrays


@dataclass(frozen=True)
class Core:
    """One carved ball: its members and where it was carved from.  The support
    it was carved in is not stored; `verify.verify_cores` replays it."""

    id: int
    members: frozenset[int]
    center_bag: int
    centers: frozenset[int]
    rank: int


@dataclass(frozen=True)
class ComponentTrace:
    """One processed component of uncovered bags: its round, bags, and cluster."""

    round_no: int
    root_bag: int
    bags: frozenset[int]
    cluster: frozenset[int]


@dataclass
class CoreConstruction:
    cores: list[Core]
    components: list[ComponentTrace]
    rounds: int


class ArrayRecord:
    """Value equality of a dataclass (declared eq=False) holding arrays:
    array fields compare by np.array_equal, the others by ==."""

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


def _cut(items: list, starts: np.ndarray) -> list[list]:
    """items[starts[i] : starts[i + 1]] for each i: a CSR table's rows."""
    at = starts.tolist()
    return [items[a:b] for a, b in zip(at, at[1:])]


def _run_starts(vertex: np.ndarray, n: int) -> np.ndarray:
    """For entries sorted by vertex in 0..n-1, the index of the first entry
    of each entry's vertex."""
    count = np.bincount(vertex, minlength=n)
    return (np.cumsum(count) - count)[vertex]


def _claim_prefixes(
    entries: tuple[np.ndarray, ...], n: int, reach: np.ndarray, sure_reach: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The entries that can be a vertex's first claim, as (vertex, rank,
    dist, slot, sure, bounds), given each center's largest radius `reach`
    and smallest radius `sure_reach` (both indexed by rank).

    An entry beyond its center's largest radius never claims, and one within
    its center's smallest radius (a sure entry) always claims, so no entry
    after a vertex's first sure entry can be first.  `slot` numbers each
    vertex's entries left from 0, in rank order; the entries come grouped
    by slot, the last first, and `bounds` holds the groups' bounds.
    """
    vertex, rank, dist = entries
    keep = dist <= reach[rank]
    vertex, rank, dist = vertex[keep], rank[keep], dist[keep]
    sure = dist <= sure_reach[rank]
    sure_before = np.cumsum(sure) - sure  # sure entries before each entry
    keep = sure_before == sure_before[_run_starts(vertex, n)]  # none earlier in its run
    vertex, rank, dist, sure = vertex[keep], rank[keep], dist[keep], sure[keep]
    slot = np.arange(vertex.size) - _run_starts(vertex, n)
    by_slot = np.argsort(-slot, kind="stable")
    return (*(a[by_slot] for a in (vertex, rank, dist, slot, sure)), _slot_bounds(slot))


def _slot_bounds(slot: np.ndarray) -> np.ndarray:
    """The bounds of the slot groups of entries grouped last slot first."""
    return np.concatenate(([0], np.cumsum(np.bincount(slot)[::-1])))


class TreeOrderedNet:
    """Net vertices plus an injective valid tree order of all vertices.

    Parameters carried along: the covering radius `delta`, the packing radius
    multiplier `alpha`, the measured packing value `tau_emp` at alpha*delta,
    and the structural bound `tau_bound` = tp^4 + tp^2.

    The center table is sparse: one (vertex, center rank, distance) entry
    per center within `center_radius` = max(alpha, 3) * delta of a vertex in
    its descendant subgraph, the largest radius any reader asks for (the
    sampler's beta*delta, the covers' alpha*delta and alpha*delta/2, the
    2/3/alpha packing profile).  The packing bound makes that O(tau * n)
    entries; no (centers x n) array is kept, and only
    `center_distance_matrix()` builds one.  Each center's entries come from
    one `reach` over the vertices whose tin lies in its interval, so the
    table costs the size of the balls, with no mask or n-entry row per
    center.
    """

    def __init__(
        self,
        net: np.ndarray,
        order_parent: tuple[int, ...],
        node_vertex: tuple[int | None, ...],
        assign: np.ndarray,
        alpha: float,
        delta: float,
        tp_width: int,
        cores: tuple[Core, ...],
        g: WeightedGraph,
    ):
        self.net = np.array(net, dtype=bool)
        self.net.flags.writeable = False
        self.order_parent = order_parent
        self.node_vertex = node_vertex
        self.assign = assign
        self.alpha = alpha
        self.delta = delta
        self.tp_width = tp_width
        self.cores = cores
        node_level, tin, tout = rooted_tree_arrays(order_parent, 0)
        self._vertex_tin = np.asarray(tin)[assign]
        self._vertex_tout = np.asarray(tout)[assign]
        self._vertex_tin.flags.writeable = False
        self._vertex_tout.flags.writeable = False
        self._centers = np.asarray(
            sorted(
                np.flatnonzero(self.net).tolist(), key=lambda x: (node_level[assign[x]], x)
            ),
            dtype=np.int64,
        )
        self._entries = self._compute_center_entries(g)
        self.tau_bound = tp_width**4 + tp_width**2
        self.tau_emp = int(self.packing_counts(alpha).max()) if len(self._centers) else 0

    def _compute_center_entries(self, g: WeightedGraph) -> tuple[np.ndarray, ...]:
        limit = self.center_radius
        # x's descendant subgraph is the vertices whose tin lies in x's interval
        tin, tout = self._vertex_tin.tolist(), self._vertex_tout.tolist()
        # seeded with one empty entry list each, for a net of no centers
        vertices, dists = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
        for x in self._centers.tolist():
            found = reach(g, [x], limit, tin, tin[x], tout[x])
            vertices.append(np.fromiter(found, np.int64, len(found)))
            dists.append(np.fromiter(found.values(), np.float64, len(found)))
        vertex, dist = np.concatenate(vertices), np.concatenate(dists)
        rank = np.repeat(np.arange(len(self._centers)), [v.size for v in vertices[1:]])
        by_vertex = np.lexsort((rank, vertex))
        entries = (vertex[by_vertex], rank[by_vertex], dist[by_vertex])
        for a in entries:
            a.flags.writeable = False
        return entries

    @property
    def n(self) -> int:
        return self.assign.shape[0]

    def vertex_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (tin, tout) of every vertex's node: v <= u iff
        tin[u] <= tin[v] < tout[u]."""
        return self._vertex_tin, self._vertex_tout

    @property
    def center_radius(self) -> float:
        """Reach of the center table: max(alpha, 3) * delta."""
        return max(self.alpha, 3.0) * self.delta

    def centers_in_order(self) -> np.ndarray:
        """Net vertices sorted root-to-leaf in the order tree, ties by id."""
        return self._centers

    def center_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (vertex, rank, dist): one entry per vertex v and center
        centers_in_order()[rank] within `center_radius` of v inside the
        center's descendant subgraph, at that exact restricted distance.

        Sorted by vertex, then rank, so each vertex's entries are one run in
        rank order (CSR order, with each entry's row stored instead of a row
        pointer).  The net's covering gives every vertex an entry within
        delta.
        """
        return self._entries

    @cached_property
    def claim_prefix(self) -> tuple[np.ndarray, ...]:
        """Read-only `_claim_prefixes` of `center_entries()` at reach
        beta*delta and sure reach delta, beta = (alpha+1)/2, built on first
        use.  Any radii in [delta, beta*delta], the sampler's, get from it
        the first claims that their own, shorter prefix gives."""
        k = len(self._centers)
        reach, sure_reach = np.full(k, (self.alpha + 1) / 2 * self.delta), np.full(k, self.delta)
        prefix = _claim_prefixes(self.center_entries(), self.n, reach, sure_reach)
        for a in prefix:
            a.flags.writeable = False
        return prefix

    def center_distance_matrix(self) -> np.ndarray:
        """The entries as a fresh dense (centers x n) array: row i holds the
        distances from centers_in_order()[i] inside its descendant subgraph.

        Entries beyond `center_radius` are +inf; every entry within it is the
        exact restricted distance, so `d <= r` is exact for r <= center_radius.
        No padnet module reads it: it stays for the benchmark's net facts and
        the tests until the benchmark reads `center_entries()` instead.
        """
        vertex, rank, dist = self._entries
        d = np.full((len(self._centers), self.n), np.inf)
        d[rank, vertex] = dist
        return d

    def packing_counts(self, multiplier: float) -> np.ndarray:
        """Per-vertex count of ancestor net points within multiplier*delta.

        The multiplier may not exceed max(alpha, 3): the table ends there.
        """
        cap = max(self.alpha, 3.0)
        if multiplier > cap:
            raise ValueError(
                f"radius multiplier must be <= max(alpha, 3) = {cap}, got {multiplier}"
            )
        vertex, _, dist = self._entries
        return np.bincount(vertex[dist <= multiplier * self.delta], minlength=self.n)

    def to_json_dict(self) -> dict:
        net_ids = np.flatnonzero(self.net).tolist()
        net_set = set(net_ids)
        return {
            "parameters": {
                "alpha": self.alpha,
                "delta": self.delta,
                "tp_width": self.tp_width,
                "tau_emp": self.tau_emp,
                "tau_bound": self.tau_bound,
            },
            "nodes": [
                {
                    "id": i,
                    "parent": self.order_parent[i],
                    "vertex": self.node_vertex[i],
                    "net": self.node_vertex[i] in net_set if self.node_vertex[i] is not None else False,
                }
                for i in range(len(self.order_parent))
            ],
            "assign": {str(v): int(self.assign[v]) for v in range(self.n)},
            "net": net_ids,
            "cores": [
                {
                    "id": c.id,
                    "rank": c.rank,
                    "center_bag": c.center_bag,
                    "centers": sorted(c.centers),
                    "members": sorted(c.members),
                }
                for c in self.cores
            ],
        }


def _check_delta(delta: float) -> None:
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and > 0, got {delta}")


def check_net_delta(net: TreeOrderedNet, delta: float) -> None:
    """Reject a delta other than the net's own: a construction from a net is
    only defined at the covering radius the net was built for."""
    _check_delta(delta)
    if delta != net.delta:
        raise ValueError(f"net was built for delta={net.delta}, asked for delta={delta}")


def construct_cores_trace(g: WeightedGraph, tp: TreePartition, delta: float) -> CoreConstruction:
    """Run the round-based carving; returns cores plus the component trace.

    `attached[v]` is the one bag whose attachment holds v (`nb`: none): a
    core's members come from its support, so they leave every attachment
    below the center bag and join at most its parent's.  A vertex's
    effective bag is its own bag while it is uncovered and its attachment
    once it is covered, and a core's support is the vertices whose effective
    bag lies in the component, inside the center bag's preorder interval.
    Bag arrays carry a spare slot `nb` that no test selects, so no index
    wraps.
    """
    _check_delta(delta)
    tp.validate(g)
    n = g.n
    nb = len(tp.bags)
    bag_of = tp.bag_of()
    level = np.asarray(tp.level)
    parent = np.append(tp.parent, nb)
    tin, tout = tp.bag_intervals()
    bag_tin, bag_tout = tin.tolist(), tout.tolist()

    covered = np.zeros(n, dtype=bool)
    attached = np.full(n, nb)
    visited = np.zeros(nb + 1, dtype=bool)
    # tin of v's effective bag while v's component is carved, -1 otherwise
    key = [-1] * n
    cores: list[Core] = []
    comps: list[ComponentTrace] = []
    round_no = 0

    while not covered.all():
        round_no += 1
        if round_no > n + 1:
            raise AssertionError("carving failed to terminate")
        uncov = np.zeros(nb + 1, dtype=bool)
        uncov[bag_of[~covered]] = True
        # label each uncovered bag with its topmost uncovered ancestor by
        # pointer doubling; the root's parent -1 reads the spare slot
        label = np.where(uncov & uncov[parent], parent, np.arange(nb + 1))
        while not np.array_equal(label[label], label):
            label = label[label]
        # components by root id, each one's bags by (level, id): root first
        todo = np.flatnonzero(uncov)
        todo = todo[np.lexsort((todo, level[todo], label[todo]))]
        # each component's cluster: the vertices whose effective bag is one
        # of its bags, by id.  A core's members and their new attachments
        # stay in its own component, so the grouping holds all round.
        eff = np.where(covered, attached, bag_of)
        held = np.flatnonzero(uncov[eff])
        held = held[np.argsort(label[eff[held]], kind="stable")]
        clusters = np.split(held, np.flatnonzero(np.diff(label[eff[held]])) + 1)
        for comp, cluster in zip(
            np.split(todo, np.flatnonzero(np.diff(label[todo])) + 1), clusters
        ):
            bags = comp.tolist()
            root = bags[0]
            cluster_ids = cluster.tolist()
            comps.append(ComponentTrace(round_no, root, frozenset(bags), frozenset(cluster_ids)))
            for v, t in zip(cluster_ids, tin[eff[cluster]].tolist()):
                key[v] = t
            # a core's attached members can sit in another component's bags
            visited[comp] = False
            for center_bag in bags:
                if visited[center_bag]:
                    continue
                sources = [v for v in sorted(tp.bags[center_bag]) if not covered[v]]
                # the component is connected: its part below the center bag
                # is its bags inside the center bag's preorder interval
                found = sorted(reach(g, sources, delta, key, bag_tin[center_bag],
                                     bag_tout[center_bag]))
                cores.append(
                    Core(
                        id=len(cores),
                        members=frozenset(found),
                        center_bag=center_bag,
                        centers=frozenset(sources),
                        rank=round_no,
                    )
                )
                members = np.array(found, dtype=np.int64)
                home = nb if center_bag == root else tp.parent[center_bag]
                covered[members] = True
                visited[bag_of[members]] = True
                attached[members] = home
                t = -1 if home == nb else bag_tin[home]
                for v in found:
                    key[v] = t
            for v in cluster_ids:
                key[v] = -1
    return CoreConstruction(cores=cores, components=comps, rounds=round_no)


def build_semi_tree_order(cores: list[Core], tp: TreePartition) -> tuple[np.ndarray, np.ndarray]:
    """The semi order on the tree partition's own bag tree: returns `assign`,
    each vertex's bag of its first covering core, and the net's bool mask.

    Cores are created in round order, so the first core (by id) containing a
    vertex is its smallest-rank core.  Several vertices may share a bag.
    """
    n = tp.n
    assign = np.full(n, -1, dtype=np.int64)
    for core in cores:
        for v in core.members:
            if assign[v] == -1:
                assign[v] = core.center_bag
    if (assign == -1).any():
        missing = int(np.flatnonzero(assign == -1)[0])
        raise AssertionError(f"vertex {missing} is covered by no core")
    net_mask = np.zeros(n, dtype=bool)
    for core in cores:
        for v in core.centers:
            net_mask[v] = True
    net_mask.flags.writeable = False
    return assign, net_mask


def semi_to_tree_order(
    tp: TreePartition,
    assign: np.ndarray,
    net: np.ndarray,
    g: WeightedGraph,
    delta: float,
    alpha: float = 3.0,
    cores: tuple[Core, ...] = (),
) -> TreeOrderedNet:
    """Expand every bag of the semi order `assign` into a rooted path, net
    vertices first.

    Vertices sharing a bag become a chain ordered by (non-net last, vertex
    id); an empty preimage keeps a placeholder node so the tree shape
    survives.  Child paths hang off the parent path's leaf.  `net` is the
    net's bool vertex mask.
    """
    _check_delta(delta)
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    # the largest radii read from the net: the decomposition's diameter
    # bound, the sparse cover's diameter bound and the center table's reach
    for name, radius in (
        ("(alpha+1)*delta", (alpha + 1) * delta),
        ("2*alpha*delta", 2 * alpha * delta),
        ("max(alpha, 3)*delta", max(alpha, 3.0) * delta),
    ):
        if not math.isfinite(radius):
            raise ValueError(f"radius {name} overflows at alpha={alpha}, delta={delta}")
    n = assign.shape[0]
    nb = len(tp.parent)
    preimage: list[list[int]] = [[] for _ in range(nb)]
    for v in range(n):
        preimage[assign[v]].append(v)

    bag_order = sorted(range(nb), key=lambda b: (tp.level[b], b))
    order_parent: list[int] = []
    node_vertex: list[int | None] = []
    node_of = np.full(n, -1, dtype=np.int64)
    path_leaf = [-1] * nb
    for b in bag_order:
        members = preimage[b]
        seq: list[int | None] = sorted(
            (v for v in members if net[v])
        ) + sorted(v for v in members if not net[v])
        if not seq:
            seq = [None]
        prev = path_leaf[tp.parent[b]] if tp.parent[b] != -1 else -1
        for item in seq:
            node = len(node_vertex)
            node_vertex.append(item)
            order_parent.append(prev)
            if item is not None:
                node_of[item] = node
            prev = node
        path_leaf[b] = prev

    return TreeOrderedNet(
        net=net,
        order_parent=tuple(order_parent),
        node_vertex=tuple(node_vertex),
        assign=node_of,
        alpha=alpha,
        delta=delta,
        tp_width=tp.width,
        cores=tuple(cores),
        g=g,
    )


def build_tree_ordered_net(
    g: WeightedGraph, tp: TreePartition, delta: float, alpha: float = 3.0
) -> TreeOrderedNet:
    """Full pipeline: carve cores, order vertices, expand to a tree order."""
    cores = construct_cores_trace(g, tp, delta).cores
    assign, net = build_semi_tree_order(cores, tp)
    return semi_to_tree_order(tp, assign, net, g, delta, alpha=alpha, cores=tuple(cores))


def packing_profile(net: TreeOrderedNet, radius_multipliers: list[float]) -> dict[float, int]:
    """Exact worst-vertex count of ancestor net points within m*delta, per m.

    Each m must lie in [0, max(alpha, 3)], the reach of the center table.
    """
    for m in radius_multipliers:
        if m < 0:
            raise ValueError(f"radius multiplier must be >= 0, got {m}")
    return {float(m): int(net.packing_counts(m).max()) for m in radius_multipliers}
