"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured packing/padding numbers.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import built
from fixtures import acceptance_fixtures, vertex_mask

from padnet.cli import main
from padnet.covers import build_partition_cover, build_sparse_cover
from padnet.decomposition import (
    TruncatedExp,
    padded_trial_counts,
    sample_padded_decomposition,
    sample_truncated_exp,
    wilson_lower_bound,
)
from padnet.graph import WeightedGraph, shortest_paths
from padnet.verify import (
    _oracle_center_distances,
    oracle_all_pairs,
    sampler_ks_check,
    verify_cores,
    verify_cover,
    verify_partition,
)

REGISTRY = acceptance_fixtures()
ALPHA = 3.0
TOL = 1e-9
DATA = Path(__file__).resolve().parents[1] / "data"


def _report(num, name, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: PASS{suffix}")


def test_c1_isometric_conversion():
    t0 = time.time()
    assert len(REGISTRY) >= 20
    for f in REGISTRY:
        b = built(f)
        dg = oracle_all_pairs(f.graph, range(f.graph.n))
        dh = oracle_all_pairs(b.host, range(b.host.n))
        fwd = b.embedding.forward
        assert np.array_equal(dh[np.ix_(fwd, fwd)], dg), f.name
        assert b.tp.width == f.td.max_bag_size, f.name
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    _report(1, "isometric conversion", f"{len(REGISTRY)} fixtures, {elapsed:.1f}s")


def test_c2_core_invariants():
    t0 = time.time()
    for f in REGISTRY:
        b = built(f)
        checks = verify_cores(b.host, b.tp, f.delta, b.construction)
        bad = [(c.name, c.witness) for c in checks if c.status == "fail"]
        assert not bad, f"{f.name}: {bad}"
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    _report(2, "core invariants", f"{len(REGISTRY)} fixtures, {elapsed:.1f}s")


def test_c3_tree_ordered_net():
    worst_time = 0.0
    details = []
    for f in REGISTRY:
        b = built(f)
        t0 = time.time()
        oracle_d = _oracle_center_distances(b.host, b.net)
        covered = (oracle_d <= f.delta).any(axis=0)
        assert covered.all(), f"{f.name}: vertex {int(np.flatnonzero(~covered)[0])} uncovered"
        pack2 = int((oracle_d <= 2 * f.delta).sum(axis=0).max())
        assert pack2 <= b.net.tau_bound, f"{f.name}: packing {pack2} > {b.net.tau_bound}"
        pack3 = int((oracle_d <= 3 * f.delta).sum(axis=0).max())
        pack_a = int((oracle_d <= ALPHA * f.delta).sum(axis=0).max())
        elapsed = time.time() - t0
        worst_time = max(worst_time, elapsed)
        details.append((f.name, pack2, b.net.tau_bound, pack3, pack_a, elapsed))
    assert worst_time < 60.0, f"{worst_time:.1f}s"
    print("\n  fixture          pack@2D  bound  pack@3D  pack@aD  time")
    for name, p2, bound, p3, pa, dt in details:
        print(f"  {name:16s} {p2:7d} {bound:6d} {p3:8d} {pa:8d} {dt:5.1f}s")
    _report(3, "tree-ordered net", f"worst fixture {worst_time:.1f}s")


def test_c4_padded_decomposition():
    worst_time = 0.0
    for f in REGISTRY:
        t0 = time.time()
        b = built(f)
        dist = b.host_dist
        for s in range(100):
            part = sample_padded_decomposition(b.host, b.net, f.delta, seed=1000 + s)
            rep = verify_partition(b.host, part, ALPHA, f.delta, dist_matrix=dist)
            assert rep.ok, f"{f.name} seed {1000 + s}: {[c.name for c in rep.checks if c.status == 'fail']}"
        gamma_max = b.params.gamma_max
        assert gamma_max == 1 / 16
        beta = b.params.padding_beta
        assert beta == pytest.approx(32 * math.log(2 * b.net.tau_emp))
        gammas = [gamma_max / 4, gamma_max / 2, gamma_max]
        counts = padded_trial_counts(b.host, b.net, f.delta, gammas, 10_000, seed=5, dist_matrix=dist)
        for gm in gammas:
            worst = int(counts[float(gm)].min())
            lcb = wilson_lower_bound(worst, 10_000)
            target = math.exp(-beta * gm)
            assert lcb >= target, f"{f.name} gamma={gm}: lcb {lcb:.4f} < {target:.4f}"
        elapsed = time.time() - t0
        worst_time = max(worst_time, elapsed)
        assert elapsed < 300.0, f"{f.name}: {elapsed:.1f}s"
    _report(4, "padded decomposition", f"100 seeds + 10^4 trials/fixture, worst {worst_time:.0f}s")


def test_c5_sparse_cover():
    for f in REGISTRY:
        b = built(f)
        cover = build_sparse_cover(b.host, b.net, f.delta)
        assert cover.padding_ratio == 6.0
        counts = b.net.packing_counts(3.0)
        rep = verify_cover(b.host, cover, ALPHA, f.delta, b.host_dist, counts, *b.rows)
        bad = [(c.name, c.witness) for c in rep.checks if c.status == "fail"]
        assert not bad, f"{f.name}: {bad}"
    _report(5, "sparse cover at alpha=3", f"{len(REGISTRY)} fixtures, ratio 6, diameter 6*delta")


def test_c6_partition_cover():
    warned = []
    for f in REGISTRY:
        b = built(f)
        pcover = build_partition_cover(b.host, b.net, f.delta)
        assert pcover.padding_ratio == 12.0
        rep = verify_cover(b.host, pcover, ALPHA, f.delta, b.host_dist, b.packing_counts, *b.rows)
        bad = [(c.name, c.witness) for c in rep.checks if c.status == "fail"]
        assert not bad, f"{f.name}: {bad}"
        if any(c.status == "warn" for c in rep.checks):
            warned.append(f.name)
    _report(6, "partition cover at alpha=3", f"warn band hits: {warned or 'none'}")


def test_c7_oracle_equivalence():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        n = int(rng.integers(5, 61))
        edges = [(i, int(rng.integers(i)), float(rng.integers(1, 9))) for i in range(1, n)]
        for _ in range(n):
            u, v = (int(x) for x in rng.integers(n, size=2))
            if u != v:
                edges.append((u, v, float(rng.integers(1, 9))))
        g = WeightedGraph(n, edges)
        for _ in range(5):
            size = int(rng.integers(1, n + 1))
            members = sorted(rng.choice(n, size=size, replace=False).tolist())
            restrict = vertex_mask(n, members)
            matrix = oracle_all_pairs(g, members)
            for s, row in zip(members, matrix):  # members ascend, as the matrix's rows do
                d = shortest_paths(g, restrict, [s])
                assert d[members].tolist() == row.tolist()
            checked += 1
    _report(7, "oracle equivalence", f"{checked} induced subgraphs")


def test_c8_sampler_correctness():
    d = TruncatedExp(1.0, 2.0, 2 * math.log(2 * 5))
    assert sample_truncated_exp(d, 0.0) == 1.0
    assert sample_truncated_exp(d, 1.0) == 2.0
    res = sampler_ks_check(d.lam, d.theta1, d.theta2, draws=100_000, seed=0)
    assert res.status == "pass", (res.measured, res.bound)
    _report(8, "sampler correctness", f"KS {res.measured:.5f} < {res.bound:.5f}")


def test_c9_determinism(tmp_path, capsys):
    args = ["--graph", str(DATA / "grid4.gr"), "--td", str(DATA / "grid4.td"), "--delta", "2"]

    def run(cmd, extra=()):
        code = main([cmd, *args, *extra])
        assert code == 0
        return capsys.readouterr().out

    for cmd in ("net", "cover", "partition-cover"):
        assert run(cmd) == run(cmd), cmd
    assert run("decompose", ["--seed", "9"]) == run("decompose", ["--seed", "9"])
    assert run("decompose", ["--seed", "9"]) != run("decompose", ["--seed", "10"])
    _report(9, "determinism", "net/cover/partition-cover byte-identical; decompose per seed")
