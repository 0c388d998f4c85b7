"""Whole-pipeline property tests on randomly grown partial k-trees."""

import numpy as np
from fixtures import dense_oracle, descendant_mask, is_ancestor, partial_ktree_fixture
from hypothesis import given, settings
from hypothesis import strategies as st

from padnet.covers import build_partition_cover, build_sparse_cover
from padnet.decomposition import sample_padded_decomposition
from padnet.ordered_net import build_tree_ordered_net
from padnet.trees import td_to_tree_partition
from padnet.verify import oracle_all_pairs


@st.composite
def pipelines(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 2, 18))
    seed = draw(st.integers(0, 10**6))
    drop = draw(st.sampled_from([0.0, 0.25]))
    weighted = draw(st.booleans())
    delta = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    f = partial_ktree_fixture(n, k, seed=seed, drop=drop, weighted=weighted, delta=delta)
    emb = td_to_tree_partition(f.graph, f.td)
    return emb.host, emb.tree_partition, delta


@given(pipelines())
@settings(max_examples=25, deadline=None)
def test_net_and_structures_on_random_pipelines(args):
    host, tp, delta = args
    net = build_tree_ordered_net(host, tp, delta)

    # order validity and exact covering/packing via the oracle
    for u, v, _ in host.edges:
        a, b = int(net.assign[u]), int(net.assign[v])
        assert is_ancestor(net.order_parent, a, b) or is_ancestor(net.order_parent, b, a)
    covered = np.zeros(host.n, dtype=bool)
    pack2 = np.zeros(host.n, dtype=int)
    for x in net.centers_in_order().tolist():
        below = np.flatnonzero(descendant_mask(net, x))
        row = dense_oracle(host, below)[x]
        covered |= row <= delta
        pack2 += row <= 2 * delta
    assert covered.all()
    assert pack2.max() <= net.tau_bound

    # decomposition: total, disjoint, bounded; cover: containment at the radius
    dg = oracle_all_pairs(host, range(host.n))
    part = sample_padded_decomposition(host, net, delta, seed=0)
    assert (part.assignment >= 0).all()
    for c in part.clusters:
        idx = np.fromiter(c.members, dtype=np.int64)
        assert dg[np.ix_(idx, idx)].max() <= 4 * delta + 1e-9

    cover = build_sparse_cover(host, net, delta)
    masks = np.zeros((len(cover.clusters), host.n), dtype=bool)
    for i, c in enumerate(cover.clusters):
        masks[i, sorted(c.members)] = True
    assert masks.sum(axis=0).max() <= net.tau_emp
    for v in range(host.n):
        bmask = dg[v] <= delta
        assert (~(bmask[None, :] & ~masks).any(axis=1)).any()

    pcover = build_partition_cover(host, net, delta)
    assert len(pcover.partitions) <= net.tau_emp
    for partn in pcover.partitions:
        seen = np.zeros(host.n, dtype=int)
        for c in partn:
            for v in c.members:
                seen[v] += 1
        assert (seen == 1).all()
