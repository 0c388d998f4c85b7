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
from dataclasses import dataclass, field

import numpy as np

from .graph import VertexSet, WeightedGraph, shortest_paths
from .trees import TreePartition, rooted_tree_arrays


@dataclass(frozen=True)
class Core:
    """One carved ball: members, where it was carved from, and its snapshot.

    `support_restrict` is the vertex set of the support graph at creation
    (one n-byte mask), kept so invariant checks can replay the ball
    computation.
    """

    id: int
    members: frozenset[int]
    center_bag: int
    centers: frozenset[int]
    rank: int
    support_restrict: VertexSet


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


class _OrderTree:
    """Ancestor queries on an order tree whose vertices sit at nodes `assign`.

    Node a is an ancestor of node b (or b itself) exactly when
    tin[a] <= tin[b] < tout[a], with [tin, tout) the preorder interval of a's
    subtree.
    """

    assign: np.ndarray

    def _index_order_tree(self, parent: tuple[int, ...], root: int) -> list[int]:
        """Record the intervals; returns the tree's levels."""
        _, level, self._tin, self._tout = rooted_tree_arrays(parent, root)
        self._vertex_tin = np.asarray(self._tin)[self.assign]
        self._vertex_tout = np.asarray(self._tout)[self.assign]
        self._vertex_tin.flags.writeable = False
        self._vertex_tout.flags.writeable = False
        return level

    def node_is_ancestor(self, a: int, b: int) -> bool:
        return self._tin[a] <= self._tin[b] < self._tout[a]

    def vertex_leq(self, u: int, v: int) -> bool:
        """u <= v in the order: v's node is an ancestor of u's (or equal)."""
        return self.node_is_ancestor(int(self.assign[v]), int(self.assign[u]))

    def vertex_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (tin, tout) of every vertex's node: v <= u iff
        tin[u] <= tin[v] < tout[u]."""
        return self._vertex_tin, self._vertex_tout

    def descendant_vertices(self, x: int) -> np.ndarray:
        """Boolean mask of vertices u with u <= x."""
        tin = self._vertex_tin
        return (tin >= tin[x]) & (tin < self._vertex_tout[x])


@dataclass
class SemiTreeOrder(_OrderTree):
    """Order tree isomorphic to the tree partition; assign may collide.

    assign maps each vertex to the bag node of its first covering core.
    """

    parent: tuple[int, ...]
    root: int
    assign: np.ndarray
    tp_width: int
    level: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        self.level = self._index_order_tree(self.parent, self.root)


class TreeOrderedNet(_OrderTree):
    """Net vertices plus an injective valid tree order of all vertices.

    Parameters carried along: the covering radius `delta`, the packing radius
    multiplier `alpha`, the measured packing value `tau_emp` at alpha*delta,
    and the structural bound `tau_bound` = tp^4 + tp^2.

    The center table only reaches `center_radius` = max(alpha, 3) * delta,
    the largest radius any reader asks for (the sampler's beta*delta, the
    covers' alpha*delta and alpha*delta/2, the 2/3/alpha packing profile).
    """

    def __init__(
        self,
        net: VertexSet,
        order_parent: tuple[int, ...],
        node_vertex: tuple[int | None, ...],
        assign: np.ndarray,
        alpha: float,
        delta: float,
        tp_width: int,
        cores: tuple[Core, ...],
        g: WeightedGraph,
    ):
        self.net = net
        self.order_parent = order_parent
        self.node_vertex = node_vertex
        self.assign = assign
        self.alpha = alpha
        self.delta = delta
        self.tp_width = tp_width
        self.cores = cores
        self.node_level = self._index_order_tree(order_parent, 0)
        self._centers = np.asarray(
            sorted(net.indices.tolist(), key=lambda x: (self.node_level[assign[x]], x)),
            dtype=np.int64,
        )
        self._center_dist = self._compute_center_distances(g)
        self.tau_bound = tp_width**4 + tp_width**2
        self.tau_emp = int(self.packing_counts(alpha).max()) if len(self._centers) else 0

    def _compute_center_distances(self, g: WeightedGraph) -> np.ndarray:
        d = np.full((len(self._centers), g.n), np.inf)
        for i, x in enumerate(self._centers.tolist()):
            restrict = VertexSet.from_mask(self.descendant_vertices(x))
            d[i] = shortest_paths(g, restrict, VertexSet(g.n, [x]), limit=self.center_radius)
        return d

    @property
    def n(self) -> int:
        return self.assign.shape[0]

    @property
    def center_radius(self) -> float:
        """Reach of the center table: max(alpha, 3) * delta."""
        return max(self.alpha, 3.0) * self.delta

    def centers_in_order(self) -> np.ndarray:
        """Net vertices sorted root-to-leaf in the order tree, ties by id."""
        return self._centers

    def center_distance_matrix(self) -> np.ndarray:
        """Row i: distances from centers_in_order()[i] inside its descendant subgraph.

        Entries beyond `center_radius` are +inf; every entry within it is the
        exact restricted distance, so `d <= r` is exact for r <= center_radius.
        """
        return self._center_dist

    def packing_counts(self, multiplier: float) -> np.ndarray:
        """Per-vertex count of ancestor net points within multiplier*delta.

        The multiplier may not exceed max(alpha, 3): the table ends there.
        """
        reach = max(self.alpha, 3.0)
        if multiplier > reach:
            raise ValueError(
                f"radius multiplier must be <= max(alpha, 3) = {reach}, got {multiplier}"
            )
        return (self._center_dist <= multiplier * self.delta).sum(axis=0)

    def to_json_dict(self) -> dict:
        net_set = set(self.net.indices.tolist())
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
            "net": sorted(int(x) for x in self.net.indices),
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


def construct_cores_trace(
    g: WeightedGraph, tp: TreePartition, delta: float, deep_checks: bool = False
) -> CoreConstruction:
    """Run the round-based carving; returns cores plus the component trace.

    `attached[v]` is the one bag whose attachment holds v (`nb`: none): a
    core's members come from its support, so they leave every attachment
    below the center bag and join at most its parent's.  Bag arrays carry a
    spare slot `nb` that no test selects, so no index wraps.

    With deep_checks, asserts after every step that each bag's attachment
    stays inside the bag's proper-descendant bags.
    """
    _check_delta(delta)
    tp.validate(g)
    n = g.n
    nb = len(tp.bags)
    bag_of = tp.bag_of()
    level = np.asarray(tp.level)
    parent = np.append(tp.parent, nb)
    tin, tout = (np.append(a, 0) for a in tp.bag_intervals())

    covered = np.zeros(n, dtype=bool)
    attached = np.full(n, nb)
    visited = np.zeros(nb + 1, dtype=bool)
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
        for comp in np.split(todo, np.flatnonzero(np.diff(label[todo])) + 1):
            bags = comp.tolist()
            root = bags[0]
            in_comp = label == root
            cluster = np.flatnonzero((in_comp[bag_of] & ~covered) | in_comp[attached]).tolist()
            comps.append(ComponentTrace(round_no, root, frozenset(bags), frozenset(cluster)))
            # a core's attached members can sit in another component's bags
            visited[comp] = False
            for center_bag in bags:
                if visited[center_bag]:
                    continue
                # the component is connected: its part below the center bag
                # is its bags inside the center bag's preorder interval
                in_sub = in_comp & (tin >= tin[center_bag]) & (tin < tout[center_bag])
                support = (in_sub[bag_of] & ~covered) | in_sub[attached]
                sources = [v for v in sorted(tp.bags[center_bag]) if not covered[v]]
                support_restrict = VertexSet.from_mask(support)
                dist = shortest_paths(g, support_restrict, VertexSet(n, sources), limit=delta)
                members = np.flatnonzero(dist <= delta)
                cores.append(
                    Core(
                        id=len(cores),
                        members=frozenset(members.tolist()),
                        center_bag=center_bag,
                        centers=frozenset(sources),
                        rank=round_no,
                        support_restrict=support_restrict,
                    )
                )
                covered[members] = True
                visited[bag_of[members]] = True
                attached[members] = nb if center_bag == root else parent[center_bag]
                if deep_checks:
                    held = np.flatnonzero(attached < nb)
                    a, vb = attached[held], bag_of[held]
                    bad = held[(tin[vb] <= tin[a]) | (tin[vb] >= tout[a])]
                    assert not len(bad), (
                        f"attachment of bag {attached[bad[0]]} holds vertex {bad[0]} "
                        f"of bag {bag_of[bad[0]]}, not a proper descendant"
                    )
    return CoreConstruction(cores=cores, components=comps, rounds=round_no)


def build_semi_tree_order(
    cores: list[Core], tp: TreePartition
) -> tuple[SemiTreeOrder, VertexSet]:
    """Assign each vertex to the bag of its first covering core; collect the net.

    Cores are created in round order, so the first core (by id) containing a
    vertex is its smallest-rank core.
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
    semi = SemiTreeOrder(parent=tp.parent, root=tp.root, assign=assign, tp_width=tp.width)
    return semi, VertexSet.from_mask(net_mask)


def semi_to_tree_order(
    semi: SemiTreeOrder,
    net: VertexSet,
    g: WeightedGraph,
    delta: float,
    alpha: float = 3.0,
    cores: tuple[Core, ...] = (),
) -> TreeOrderedNet:
    """Expand every bag node into a rooted path, net vertices first.

    Vertices sharing a bag node become a chain ordered by (non-net last,
    vertex id); an empty preimage keeps a placeholder node so the tree shape
    survives.  Child paths hang off the parent path's leaf.
    """
    _check_delta(delta)
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    n = semi.assign.shape[0]
    nb = len(semi.parent)
    net_mask = net.mask
    preimage: list[list[int]] = [[] for _ in range(nb)]
    for v in range(n):
        preimage[semi.assign[v]].append(v)

    bag_order = sorted(range(nb), key=lambda b: (semi.level[b], b))
    order_parent: list[int] = []
    node_vertex: list[int | None] = []
    assign = np.full(n, -1, dtype=np.int64)
    path_leaf = [-1] * nb
    for b in bag_order:
        members = preimage[b]
        seq: list[int | None] = sorted(
            (v for v in members if net_mask[v])
        ) + sorted(v for v in members if not net_mask[v])
        if not seq:
            seq = [None]
        prev = path_leaf[semi.parent[b]] if semi.parent[b] != -1 else -1
        for item in seq:
            node = len(node_vertex)
            node_vertex.append(item)
            order_parent.append(prev)
            if item is not None:
                assign[item] = node
            prev = node
        path_leaf[b] = prev

    return TreeOrderedNet(
        net=net,
        order_parent=tuple(order_parent),
        node_vertex=tuple(node_vertex),
        assign=assign,
        alpha=alpha,
        delta=delta,
        tp_width=semi.tp_width,
        cores=tuple(cores),
        g=g,
    )


def build_tree_ordered_net(
    g: WeightedGraph, tp: TreePartition, delta: float, alpha: float = 3.0
) -> TreeOrderedNet:
    """Full pipeline: carve cores, order vertices, expand to a tree order."""
    cores = construct_cores_trace(g, tp, delta).cores
    semi, net = build_semi_tree_order(cores, tp)
    return semi_to_tree_order(semi, net, g, delta, alpha=alpha, cores=tuple(cores))


def packing_profile(net: TreeOrderedNet, radius_multipliers: list[float]) -> dict[float, int]:
    """Exact worst-vertex count of ancestor net points within m*delta, per m.

    Each m must lie in [0, max(alpha, 3)], the reach of the center table.
    """
    for m in radius_multipliers:
        if m < 0:
            raise ValueError(f"radius multiplier must be >= 0, got {m}")
    return {float(m): int(net.packing_counts(m).max()) for m in radius_multipliers}
