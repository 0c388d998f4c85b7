"""Cross-check the production carving against an independent re-simulation.

The twin below shares nothing with the production implementation: distances
come from the Floyd-Warshall oracle (multi-source = min over source rows),
ancestry from explicit parent walks, components from its own search, and
attachments are one set per bag.  Both follow the same documented tie rules,
so every output of the carving must be identical item for item: the cores,
the component trace and the round count.
"""

import numpy as np
import pytest
from conftest import built
from fixtures import acceptance_fixtures, dense_oracle, partial_ktree_fixture, shuffled_ids

from padnet.ordered_net import ComponentTrace, Core, CoreConstruction, construct_cores_trace
from padnet.trees import td_to_tree_partition
from padnet.verify import verify_cores

BY_NAME = {f.name: f for f in acceptance_fixtures()}


def brute_cores(g, tp, delta, attachments=True):
    """Returns (cores, components, rounds).

    A core is (members, center bag, sources, rank); a component is
    (round, root, bags, cluster), its cluster taken at the component's turn.
    attachments=False leaves the attachments out of every support, a broken
    carving for the verifier to catch.
    """
    n = g.n
    nb = len(tp.bags)
    bag_items = [sorted(b) for b in tp.bags]
    bag_of = {}
    for b in range(nb):
        for v in bag_items[b]:
            bag_of[v] = b

    adjacent = {b: [] for b in range(nb)}
    for b, p in enumerate(tp.parent):
        if p != -1:
            adjacent[b].append(p)
            adjacent[p].append(b)

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
                for y in adjacent[x]:
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
                    if attachments:
                        support |= attach[x]
                sources = [v for v in bag_items[center_bag] if v not in covered]
                matrix = dense_oracle(g, sorted(support))
                members = {
                    v for v in support if min(matrix[s][v] for s in sources) <= delta
                }
                out.append((frozenset(members), center_bag, frozenset(sources), rank))
                covered |= members
                unvisited -= {bag_of[v] for v in members if bag_of[v] in unvisited}
                for x in sub:
                    attach[x] -= members
                if center_bag != root:
                    attach[tp.parent[center_bag]] |= members
    return out, traces, rank


def _compare(g, tp, delta):
    cons = construct_cores_trace(g, tp, delta)
    cores, traces, rounds = brute_cores(g, tp, delta)
    assert [(c.members, c.center_bag, c.centers, c.rank) for c in cons.cores] == cores
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


@pytest.mark.parametrize("name", ["path-30", "cycle-16"])
def test_carving_without_attachments_fails_ball_replay(name):
    b = built(BY_NAME[name])
    cores, traces, rounds = brute_cores(b.host, b.tp, b.delta, attachments=False)
    record = CoreConstruction(
        cores=[Core(i, *core) for i, core in enumerate(cores)],
        components=[ComponentTrace(*t) for t in traces],
        rounds=rounds,
    )
    checks = {c.name: c.status for c in verify_cores(b.host, b.tp, b.delta, record)}
    assert checks["core-ball-replay"] == "fail"
