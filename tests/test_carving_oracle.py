"""Cross-check the production carving against an independent re-simulation.

The twin below shares nothing with the production implementation: distances
come from the Floyd-Warshall oracle (multi-source = min over source rows),
ancestry from explicit parent walks, components from its own search, and
attachments are one set per bag.  Both follow the same documented tie rules,
so every output of the carving must be identical item for item: the cores
with their support snapshots, the component trace and the round count.
"""

import numpy as np
import pytest
from conftest import built
from fixtures import acceptance_fixtures, partial_ktree_fixture, shuffled_ids

from padnet.graph import VertexSet
from padnet.ordered_net import construct_cores_trace
from padnet.trees import td_to_tree_partition
from padnet.verify import oracle_all_pairs

BY_NAME = {f.name: f for f in acceptance_fixtures()}


def brute_cores(g, tp, delta):
    """Returns (cores, components, rounds).

    A core is (members, center bag, sources, rank, support); a component is
    (round, root, bags, cluster), its cluster taken at the component's turn.
    """
    n = g.n
    nb = len(tp.bags)
    bag_items = [sorted(b) for b in tp.bags]
    bag_of = {}
    for b in range(nb):
        for v in bag_items[b]:
            bag_of[v] = b

    def is_ancestor(a, x):
        while x != -1:
            if x == a:
                return True
            x = tp.parent[x]
        return False

    covered = set()
    attach = {b: set() for b in range(nb)}
    out = []
    traces = []
    rank = 0
    while len(covered) < n:
        rank += 1
        uncov = {b for b in range(nb) if set(bag_items[b]) - covered}
        comps = []
        todo = set(uncov)
        while todo:
            start = todo.pop()
            comp = {start}
            frontier = [start]
            while frontier:
                x = frontier.pop()
                neighbors = list(tp.children[x]) + ([tp.parent[x]] if tp.parent[x] != -1 else [])
                for y in neighbors:
                    if y in uncov and y not in comp:
                        comp.add(y)
                        frontier.append(y)
            todo -= comp
            comps.append(comp)
        def root_of(comp):
            return min(comp, key=lambda b: (tp.level[b], b))

        for comp in sorted(comps, key=root_of):
            root = root_of(comp)
            cluster = set()
            for x in comp:
                cluster |= {v for v in bag_items[x] if v not in covered}
                cluster |= attach[x]
            traces.append((rank, root, frozenset(comp), frozenset(cluster)))
            unvisited = set(comp)
            while unvisited:
                center_bag = min(unvisited, key=lambda b: (tp.level[b], b))
                sub = {x for x in comp if is_ancestor(center_bag, x)}
                support = set()
                for x in sub:
                    support |= {v for v in bag_items[x] if v not in covered}
                    support |= attach[x]
                sources = [v for v in bag_items[center_bag] if v not in covered]
                matrix = oracle_all_pairs(g, VertexSet(n, support), cap=n)
                members = {
                    v for v in support if min(matrix[s][v] for s in sources) <= delta
                }
                out.append(
                    (frozenset(members), center_bag, frozenset(sources), rank, frozenset(support))
                )
                covered |= members
                unvisited -= {bag_of[v] for v in members if bag_of[v] in unvisited}
                for x in sub:
                    attach[x] -= members
                if center_bag != root:
                    attach[tp.parent[center_bag]] |= members
    return out, traces, rank


def _compare(g, tp, delta):
    cons = construct_cores_trace(g, tp, delta, deep_checks=True)
    cores, traces, rounds = brute_cores(g, tp, delta)
    got = [
        (c.members, c.center_bag, c.centers, c.rank, frozenset(c.support_restrict))
        for c in cons.cores
    ]
    assert got == cores
    assert [(t.round_no, t.root_bag, t.bags, t.cluster) for t in cons.components] == traces
    assert cons.rounds == rounds


@pytest.mark.parametrize("name", sorted(BY_NAME))
def test_carving_matches_brute_twin(name):
    b = built(BY_NAME[name])
    _compare(b.host, b.tp, b.delta)


@pytest.mark.parametrize("name", sorted(BY_NAME))
def test_carving_matches_brute_twin_shuffled_ids(name):
    f = shuffled_ids(BY_NAME[name], seed=3)
    emb = td_to_tree_partition(f.graph, f.td)
    _compare(emb.host, emb.tree_partition, f.delta)


def test_carving_matches_brute_twin_randomized():
    rng = np.random.default_rng(99)
    for trial in range(8):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 2, 22))
        f = partial_ktree_fixture(
            n, k, seed=int(rng.integers(10**6)), drop=float(rng.uniform(0, 0.4)),
            weighted=bool(rng.integers(2)),
        )
        for inst in (f, shuffled_ids(f, seed=trial)):
            emb = td_to_tree_partition(inst.graph, inst.td)
            for delta in (0.5, 1.0, 3.0):
                _compare(emb.host, emb.tree_partition, delta)
