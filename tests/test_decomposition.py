import dataclasses
import decimal
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.stats
from conftest import built
from fixtures import (
    Fixture,
    acceptance_fixtures,
    all_pairs,
    grid_fixture,
    heavy_path5,
    partial_ktree_fixture,
    path_fixture,
    weighted_path_fixture,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padnet import decomposition
from padnet.decomposition import (
    DecompositionParams,
    PaddedCluster,
    PaddedPartition,
    TruncatedExp,
    padded_trial_counts,
    replay_decomposition,
    sample_assignments,
    sample_padded_decomposition,
    sample_padded_decompositions,
    sample_truncated_exp,
    seeded_generator,
    stream_uniforms,
    wilson_lower_bound,
)
from padnet.graph import WeightedGraph, parse_edge_list
from padnet.ordered_net import _claim_prefixes, build_tree_ordered_net
from padnet.trees import TreePartition, load_tree_decomposition, td_to_tree_partition
from padnet.verify import verify_partition

BY_NAME = {f.name: f for f in acceptance_fixtures()}


# --- truncated exponential ----------------------------------------------------


def test_boundaries_exact():
    d = TruncatedExp(1.0, 2.0, 3.7)
    assert sample_truncated_exp(d, 0.0) == 1.0
    assert sample_truncated_exp(d, 1.0) == 2.0


def test_invalid_parameters():
    with pytest.raises(ValueError):
        TruncatedExp(1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        TruncatedExp(2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sample_truncated_exp(TruncatedExp(1.0, 2.0, 1.0), 1.5)


def test_inverse_cdf_against_root_finding():
    d = TruncatedExp(1.0, 2.0, 1.0)
    y = sample_truncated_exp(d, 0.5)
    y_root = scipy.optimize.brentq(lambda t: float(d.cdf(t)) - 0.5, 1.0, 2.0, xtol=1e-13)
    assert abs(y - y_root) < 1e-10
    assert 1.0 <= y <= 2.0


@given(st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_inverse_cdf_monotone(u1, u2):
    d = TruncatedExp(1.0, 2.0, 2.5)
    y1, y2 = sample_truncated_exp(d, u1), sample_truncated_exp(d, u2)
    if u1 <= u2:
        assert y1 <= y2
    assert 1.0 <= y1 <= 2.0


def test_empirical_mean_matches_quadrature():
    d = TruncatedExp(1.0, 2.0, 2.0)
    pdf = scipy.stats.truncexpon(b=2.0 * 1.0, loc=1.0, scale=1 / 2.0).pdf  # on [1, 2]
    expected, _ = scipy.integrate.quad(lambda y: y * pdf(y), 1.0, 2.0)
    var, _ = scipy.integrate.quad(lambda y: (y - expected) ** 2 * pdf(y), 1.0, 2.0)
    rng = np.random.default_rng(123)
    draws = sample_truncated_exp(d, rng.random(10**6))
    se = math.sqrt(var / draws.size)
    assert abs(draws.mean() - expected) < 3 * se


def test_ks_against_scipy():
    d = TruncatedExp(1.0, 2.0, 4.0)
    rng = np.random.default_rng(7)
    draws = sample_truncated_exp(d, rng.random(100_000))
    stat = scipy.stats.kstest(draws, lambda y: d.cdf(y)).statistic
    assert stat < 1.62762 / math.sqrt(draws.size)


def test_steep_rate_draws_stay_inside_the_interval():
    # alpha = 1.01, tau = 5: exp(-lam * theta1) underflows to 0
    d = TruncatedExp(1.0, 1.005, 921.0)
    y = sample_truncated_exp(d, np.linspace(0, 1, 7))
    assert y[0] == 1.0 and y[-1] == 1.005
    interior = y[1:-1]
    assert (np.diff(y) > 0).all()
    assert ((interior > 1.0) & (interior < 1.005)).all()
    cdf = d.cdf(y)
    assert np.isfinite(cdf).all()
    assert cdf == pytest.approx(np.linspace(0, 1, 7), abs=1e-12)


def test_steep_rate_matches_scipy_truncexpon():
    # scipy's truncexpon on [0, b] with scale 1/lam, shifted to theta1
    d = TruncatedExp(1.0, 1.005, 921.0)
    ref = scipy.stats.truncexpon(b=921.0 * 0.005, loc=1.0, scale=1 / 921.0)
    ys = np.linspace(1.0, 1.005, 11)
    assert d.cdf(ys) == pytest.approx(ref.cdf(ys), abs=1e-12)
    u = np.linspace(0.05, 0.95, 10)
    assert sample_truncated_exp(d, u) == pytest.approx(ref.ppf(u), abs=1e-12)


# rates from 1e-3 to 1e3 on [1, 2]; the sampler's 2 ln(2 tau) at alpha = 3 for
# the packing values of the shipped data (5, 6) and the benchmark's instances
# (3, 4, 5, 8, 20); and alpha = 1.01, tau = 5, where exp(-lam) underflows
REFERENCE_LAWS = [
    *(TruncatedExp(1.0, 2.0, float(lam)) for lam in np.logspace(-3, 3, 13)),
    *(TruncatedExp(1.0, 2.0, 2 * math.log(2 * tau)) for tau in (1, 3, 4, 5, 6, 8, 20)),
    TruncatedExp(1.0, 1.005, 921.0),
]


def exact_cdf(d: TruncatedExp, y: float) -> float:
    """F(y) at 50 digits, from the float inputs taken exactly."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        lam, t1, t2, y = map(decimal.Decimal, (d.lam, d.theta1, d.theta2, y))
        return float((1 - (-lam * (y - t1)).exp()) / (1 - (-lam * (t2 - t1)).exp()))


def exact_quantile(d: TruncatedExp, u: float) -> tuple[float, float]:
    """(F^-1(u), 1 - u*M) at 50 digits; 1 - u*M is summed as (1-u) + u*(1-M),
    which cancels nothing."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        lam, t1, t2, u = map(decimal.Decimal, (d.lam, d.theta1, d.theta2, u))
        rest = (1 - u) + u * (-lam * (t2 - t1)).exp()
        return float(t1 - rest.ln() / lam), float(rest)


@pytest.mark.parametrize("d", REFERENCE_LAWS, ids=lambda d: f"lam={d.lam:.4g}")
def test_single_form_within_a_few_ulp_of_exact(d):
    inner = np.nextafter([d.theta1, d.theta2], [d.theta2, d.theta1])
    ys = np.concatenate([np.linspace(d.theta1, d.theta2, 101), inner])
    for y, got in zip(ys.tolist(), d.cdf(ys).tolist()):
        ref = exact_cdf(d, y)
        assert abs(got - ref) <= 2 * math.ulp(ref), (y, got, ref)
    tail = 1 - 2.0 ** -np.arange(10, 54, 4)
    us = np.concatenate([np.linspace(0, 1, 101), [1e-300, 2**-53, 1e-10], tail])
    for u, got in zip(us.tolist(), sample_truncated_exp(d, us).tolist()):
        ref, rest = exact_quantile(d, u)
        # near u = 1, F^-1 is as sensitive to the last bit of M as to its own
        # rounding: one ulp of M moves it by u * ulp(M) / (lam * (1 - u*M)),
        # which reaches ~1e12 ulp of y at lam = 40, u = 1 - 2**-53
        shift = u * math.ulp(d.mass()) / (d.lam * rest) if rest else 0.0
        assert abs(got - ref) <= 2 * (math.ulp(ref) + shift), (u, got, ref)
        if u <= 0.99:
            assert abs(got - ref) <= 4 * math.ulp(ref), (u, got, ref)


@pytest.mark.parametrize("d", REFERENCE_LAWS, ids=lambda d: f"lam={d.lam:.4g}")
def test_single_form_hits_the_endpoints_exactly(d):
    assert d.cdf(d.theta1) == 0.0 and d.cdf(d.theta2) == 1.0
    assert sample_truncated_exp(d, 0.0) == d.theta1
    assert sample_truncated_exp(d, 1.0) == d.theta2
    assert d.cdf([d.theta1 - 1.0, d.theta2 + 1.0]).tolist() == [0.0, 1.0]


# --- decomposition sampler ----------------------------------------------------


def single_center_net():
    g = WeightedGraph(5, [(0, i, 1.0) for i in range(1, 5)])
    tp = TreePartition(
        bags=(frozenset([0]),) + tuple(frozenset([i]) for i in range(1, 5)),
        parent=(-1, 0, 0, 0, 0),
    )
    return g, build_tree_ordered_net(g, tp, 1.0)


def test_alpha3_parameter_values():
    b = built(BY_NAME["grid-5"])
    p = DecompositionParams.from_net(b.net, b.delta)
    tau = b.net.tau_emp
    assert p.beta_internal == 2.0
    assert p.lam == pytest.approx(2 * math.log(2 * tau), abs=1e-12)
    assert p.gamma_max == pytest.approx(1 / 16, abs=0)
    assert p.padding_beta == pytest.approx(32 * math.log(2 * tau), abs=1e-12)
    assert p.diameter_bound == 4 * b.delta


def test_single_center_always_one_cluster():
    g, net = single_center_net()
    assert net.net.tolist() == [True, False, False, False, False]
    for seed in range(5):
        part = sample_padded_decomposition(g, net, 1.0, seed)
        assert len(part.clusters) == 1
        assert sorted(part.clusters[0].members) == list(range(5))


def test_fixed_seed_reproducible():
    g, tp, delta = heavy_path5()
    net = build_tree_ordered_net(g, tp, delta)
    a = sample_padded_decomposition(g, net, delta, seed=42)
    b = sample_padded_decomposition(g, net, delta, seed=42)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(b.to_json_dict(), sort_keys=True)
    c = sample_padded_decomposition(g, net, delta, seed=43)
    assert c.trace != a.trace


def test_replay_reproduces_partition():
    b = built(BY_NAME["grid-5"])
    part = sample_padded_decomposition(b.host, b.net, b.delta, seed=9)
    again = replay_decomposition(b.net, list(part.trace), seed=9)
    assert np.array_equal(again.assignment, part.assignment)
    assert again.clusters == part.clusters


def test_batch_trial_zero_matches_single_sample():
    b = built(BY_NAME["cycle-16"])
    part = sample_padded_decomposition(b.host, b.net, b.delta, seed=5)
    block = next(sample_assignments(b.net, seed=5, trials=3))
    centers = b.net.centers_in_order()
    raw_single = np.array([centers.tolist().index(part.clusters[part.assignment[v]].center)
                           for v in range(b.host.n)])
    assert np.array_equal(block[0], raw_single)


def test_radius_law_and_validity_over_seeds():
    # 100 seeds' draws, each valid against the oracle and replayed from its
    # trace; full_report samples only its own seed's partition
    for name in ["path-30", "grid-5", "sp-50w"]:
        b = built(BY_NAME[name])
        beta = (3.0 + 1) / 2
        parts = list(sample_padded_decompositions(b.net, range(100)))
        assert [p.seed for p in parts] == list(range(100))
        for part in parts:
            for _, r in part.trace:
                assert b.delta <= r <= beta * b.delta
            rep = verify_partition(b.host, part, 3.0, b.delta, dist_matrix=b.host_dist)
            assert rep.ok, rep.format_table()
            replayed = replay_decomposition(b.net, list(part.trace), seed=part.seed)
            assert np.array_equal(replayed.assignment, part.assignment)
            assert replayed.clusters == part.clusters


def test_unclaimed_vertex_is_reported():
    # radii below the covering radius leave the leaves unclaimed
    g, net = single_center_net()
    with pytest.raises(AssertionError, match="vertex 1 claimed by no center"):
        replay_decomposition(net, [(0, 0.5)])


def dense_claims(table: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """The dense claim kernel the sparse one replaced, as (t, n) ranks."""
    claimed = table[:, :, None] <= radii[:, None, :]
    unclaimed = ~claimed.any(axis=0).all(axis=1)
    if unclaimed.any():
        v = int(np.flatnonzero(unclaimed)[0])
        raise AssertionError(f"vertex {v} claimed by no center; covering violated")
    return claimed.argmax(0).T


@given(
    n=st.integers(5, 40),
    k=st.integers(1, 4),
    graph_seed=st.integers(0, 10**6),
    weighted=st.booleans(),
    trials=st.integers(1, 5),
    low=st.sampled_from([0.0, 0.5, 1.0]),
    high=st.sampled_from([1.0, 2.0, 4.0]),
    radii_seed=st.integers(0, 2**32 - 1),
)
@example(n=30, k=2, graph_seed=1, weighted=False, trials=3, low=0.0, high=1.0, radii_seed=0)
@example(n=30, k=3, graph_seed=2, weighted=True, trials=4, low=1.0, high=4.0, radii_seed=1)
@settings(max_examples=80, deadline=None)
def test_sparse_claims_equal_dense_reference(
    n, k, graph_seed, weighted, trials, low, high, radii_seed
):
    # radii in [low, high] * delta: below delta a vertex may go unclaimed,
    # and 4 * delta reaches past center_radius = 3 * delta
    f = partial_ktree_fixture(n, k, seed=graph_seed, drop=0.3, weighted=weighted, delta=2.0)
    host, net = fixture_net(f)
    table = net.center_distance_matrix()
    rng = np.random.default_rng(radii_seed)
    radii = rng.uniform(low, high, size=(len(table), trials)) * f.delta
    # a fifth of the radii equal one of their center's distances exactly
    for i, row in enumerate(table):
        ties = rng.random(trials) < 0.2
        radii[i, ties] = rng.choice(row[np.isfinite(row)], size=int(ties.sum()))
    prefix = own_prefix(net, radii)
    try:
        expected = dense_claims(table, radii)
    except AssertionError as exc:
        with pytest.raises(AssertionError, match=f"^{re.escape(str(exc))}$"):
            decomposition._first_claims(prefix, net.n, radii)
    else:
        got = decomposition._first_claims(prefix, net.n, radii)
        assert got.shape == (trials, net.n)
        assert np.array_equal(got, expected)


def own_prefix(net, radii):
    """The claim prefix of radii shaped (k, t): each center's own largest and smallest radius."""
    return _claim_prefixes(net.center_entries(), net.n, radii.max(axis=1), radii.min(axis=1))


def test_unclaimed_vertex_is_named_by_single_and_batch_sampling(monkeypatch):
    # drop two vertices' entries from the center table: no radius reaches them
    fixture = path_fixture(40, delta=2.0)
    host, net = fixture_net(fixture)
    vertex, rank, dist = net.center_entries()
    kept = ~np.isin(vertex, [7, 12])
    monkeypatch.setattr(net, "center_entries", lambda: (vertex[kept], rank[kept], dist[kept]))
    with pytest.raises(AssertionError, match="^vertex 7 claimed by no center"):
        sample_padded_decomposition(host, net, fixture.delta, 0)
    with pytest.raises(AssertionError, match="^vertex 7 claimed by no center"):
        padded_trial_counts(host, net, fixture.delta, [0.0], trials=10, seed=0)


def test_radius_equal_to_distance_claims(monkeypatch):
    # every uniform 0 gives every center radius exactly delta, the distance
    # from the single center to each leaf
    g, net = single_center_net()
    assert len(replay_decomposition(net, [(0, 1.0)]).clusters) == 1

    def zeros(seed, k, start, stop):
        return np.zeros((k, stop - start))

    monkeypatch.setattr(decomposition, "stream_uniforms", zeros)
    part = sample_padded_decomposition(g, net, 1.0, 0)
    assert part.trace == ((0, 1.0),)
    assert sorted(part.clusters[0].members) == list(range(5))
    assert next(sample_assignments(net, 0, trials=3)).tolist() == [[0] * 5] * 3


def test_sampler_input_validation():
    g, net = single_center_net()
    with pytest.raises(ValueError):
        sample_padded_decomposition(g, net, -1.0, 0)
    with pytest.raises(ValueError):
        sample_padded_decomposition(g, net, 2.0, 0)  # net built for delta=1
    with pytest.raises(ValueError):
        next(sample_assignments(net, 0, trials=0))


# --- the seed's Philox stream and the original sampler --------------------------


def whole_stream_uniforms(seed, k, start, stop):
    """Trials start..stop-1 of the seed's stream, read from its first word on
    with numpy's own Philox bit generator, as (k, trials)."""
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    words = bits.random_raw(stop * k)[start * k :]
    return ((words >> np.uint64(11)) * 2.0**-53).reshape(stop - start, k).T


@given(
    seed=st.integers(0, 2**64 - 1),
    k=st.sampled_from([0, 1, 3, 620]),
    start=st.integers(0, 23),
    count=st.integers(0, 23),
)
@example(seed=0, k=1, start=0, count=1)
@example(seed=2**64 - 1, k=3, start=5, count=6)
@example(seed=0, k=620, start=255, count=2)
@example(seed=2**64 - 1, k=0, start=3, count=4)
@settings(max_examples=150, deadline=None)
def test_stream_uniforms_match_numpy_philox(seed, k, start, count):
    stop = start + count
    got = stream_uniforms(seed, k, start, stop)
    assert got.shape == (k, count)
    assert got.dtype == np.float64
    assert got.tobytes() == whole_stream_uniforms(seed, k, start, stop).tobytes()


def test_stream_uniforms_across_the_chunk_edge():
    # ranges around the 256-trial chunk, starting and stopping off multiples of 4
    for seed in (0, 7, 2**63 + 5, 2**64 - 1):
        for k in (1, 3, 620):
            for start, stop in ((0, 257), (253, 259), (255, 256), (256, 300), (1, 1001)):
                want = whole_stream_uniforms(seed, k, start, stop)
                assert stream_uniforms(seed, k, start, stop).tobytes() == want.tobytes()
    # a trial's uniforms are Generator.random's draws of the same words
    want = seeded_generator(5, 0).random(3 * 7).reshape(7, 3).T
    assert stream_uniforms(5, 3, 0, 7).tobytes() == want.tobytes()


def test_stream_uniforms_rejects_bad_seeds_and_ranges():
    for seed in (-1, 2**64, 2**70):
        with pytest.raises(ValueError, match="seed must lie in"):
            stream_uniforms(seed, 3, 0, 1)
    for k, start, stop in ((3, 5, 4), (3, -1, 4), (-1, 0, 1)):
        with pytest.raises(ValueError, match="need k >= 0"):
            stream_uniforms(0, k, start, stop)
    g, net = single_center_net()
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            next(sample_assignments(net, seed, trials=3))


@pytest.mark.parametrize("trials", [1, 256, 257, 600])
def test_chunked_assignments_equal_one_pass(trials):
    # the chunks, each from its own counter block, equal one pass over the
    # whole stream's radii
    net = sampler_net("wpath-120-seed3")
    params = DecompositionParams.from_net(net, net.delta)
    law = TruncatedExp(1.0, params.beta_internal, params.lam)
    k = len(net.centers_in_order())
    radii = sample_truncated_exp(law, whole_stream_uniforms(13, k, 0, trials)) * net.delta
    blocks = list(sample_assignments(net, 13, trials))
    assert [len(b) for b in blocks] == [min(256, trials - s) for s in range(0, trials, 256)]
    whole = decomposition._first_claims(net.claim_prefix, net.n, radii)
    assert np.array_equal(np.concatenate(blocks), whole)


def reference_decomposition(net, delta, seed) -> tuple[PaddedPartition, tuple[PaddedCluster, ...]]:
    """The original sampler: one scalar draw per center, in rank order, from
    the seed's generator, then one full scan of the assignment per cluster.
    Returns the partition and its clusters as frozensets, built by those
    scans."""
    params = DecompositionParams.from_net(net, delta)
    texp = TruncatedExp(1.0, params.beta_internal, params.lam)
    centers = net.centers_in_order()
    rng = seeded_generator(seed, 0)
    draws = [float(rng.random()) for _ in centers]
    radii = np.array([sample_truncated_exp(texp, u) for u in draws]) * delta
    raw = np.argmax(net.center_distance_matrix() <= radii[:, None], axis=0)
    clusters = []
    renumber = np.full(len(centers), -1, dtype=np.int64)
    for i in range(len(centers)):
        members = np.flatnonzero(raw == i)
        if members.size:
            renumber[i] = len(clusters)
            cluster = PaddedCluster(int(centers[i]), float(radii[i]), frozenset(members.tolist()))
            clusters.append(cluster)
    centers_used = np.array([c.center for c in clusters], dtype=np.int64)
    return PaddedPartition(renumber[raw], centers_used, seed, params, radii, centers), tuple(clusters)


def assert_matches_reference(got, expected):
    """got equals a reference_decomposition result: its arrays, its JSON, and its derived
    clusters equal the reference's frozensets, which its JSON lists sorted."""
    part, clusters = expected
    assert got == part
    assert json.dumps(got.to_json_dict()) == json.dumps(part.to_json_dict())
    assert got.clusters == clusters
    listed = [(c["center"], c["radius"], c["members"]) for c in got.to_json_dict()["clusters"]]
    assert listed == [(c.center, c.radius, sorted(c.members)) for c in clusters]


def reference_assignments(net, delta, seed, trials) -> np.ndarray:
    """(trials, n) first-claiming center ranks from the seed's whole stream,
    drawn by its generator trial after trial."""
    params = DecompositionParams.from_net(net, delta)
    texp = TruncatedExp(1.0, params.beta_internal, params.lam)
    k = len(net.centers_in_order())
    uniforms = seeded_generator(seed, 0).random((trials, k)).T
    radii = sample_truncated_exp(texp, uniforms) * delta  # (k, trials)
    claimed = net.center_distance_matrix()[:, :, None] <= radii[:, None, :]
    return np.argmax(claimed, axis=0).T


def fixture_net(fixture):
    emb = td_to_tree_partition(fixture.graph, fixture.td)
    return emb.host, build_tree_ordered_net(emb.host, emb.tree_partition, fixture.delta)


SAMPLER_FIXTURES = [
    pytest.param(path_fixture(40, delta=2.0), id="path-40"),
    pytest.param(grid_fixture(6, delta=2.0), id="grid-6"),
    pytest.param(partial_ktree_fixture(50, 3, seed=2, drop=0.3, delta=2.0), id="ktree3-50d"),
    pytest.param(weighted_path_fixture(120, seed=3), id="wpath-120-seed3"),
    pytest.param(weighted_path_fixture(120, seed=4, delta=3.0), id="wpath-120-seed4"),
]


# a delta just below an integer distance puts entries just past delta, where
# a prefix cut at a sure reach above delta would drop a first claim
PREFIX_FIXTURES = SAMPLER_FIXTURES + [
    pytest.param(weighted_path_fixture(120, seed=3, delta=6.97), id="wpath-120-delta6.97"),
    pytest.param(grid_fixture(6, delta=2.99), id="grid-6-delta2.99"),
]
_NETS = {}


def sampler_net(name):
    """The net of the PREFIX_FIXTURES entry `name`, built once."""
    if name not in _NETS:
        fixture = next(p.values[0] for p in PREFIX_FIXTURES if p.id == name)
        _NETS[name] = fixture_net(fixture)[1]
    return _NETS[name]


@given(
    fixture=st.sampled_from([p.id for p in PREFIX_FIXTURES]),
    trials=st.integers(1, 6),
    ends=st.sampled_from(["none", "low", "high", "both"]),
    radii_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_net_claim_prefix_equals_each_draws_own(fixture, trials, ends, radii_seed):
    # any radii in [delta, beta*delta], ends included: the net's one prefix
    # gives the first claims each draw's own prefix gives
    net = sampler_net(fixture)
    k, delta = len(net.centers_in_order()), net.delta
    top = DecompositionParams.from_net(net, delta).beta_internal * delta
    rng = np.random.default_rng(radii_seed)
    radii = rng.uniform(delta, top, size=(k, trials))
    if ends in ("low", "both"):
        radii[rng.random((k, trials)) < 0.3] = delta
    if ends in ("high", "both"):
        radii[rng.random((k, trials)) < 0.3] = top
    # a fifth of the radii equal one of their center's distances within range
    vertex, rank, dist = net.center_entries()
    inside = (dist >= delta) & (dist <= top)
    for i in range(k):
        row = dist[inside & (rank == i)]
        ties = (rng.random(trials) < 0.2) & (row.size > 0)
        if ties.any():
            radii[i, ties] = rng.choice(row, size=int(ties.sum()))
    expected = decomposition._first_claims(own_prefix(net, radii), net.n, radii)
    got = decomposition._first_claims(net.claim_prefix, net.n, radii)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("fixture", SAMPLER_FIXTURES)
def test_sampler_matches_original_per_center_draws(fixture):
    host, net = fixture_net(fixture)
    for seed in (0, 1, 17, 2**64 - 1):
        got = sample_padded_decomposition(host, net, fixture.delta, seed)
        assert_matches_reference(got, reference_decomposition(net, fixture.delta, seed))
        replayed = replay_decomposition(net, list(got.trace), seed=seed)
        assert json.dumps(replayed.to_json_dict()) == json.dumps(got.to_json_dict())


@pytest.mark.parametrize("fixture", SAMPLER_FIXTURES)
def test_sweep_matches_single_seed_sampler(fixture):
    host, net = fixture_net(fixture)
    seeds = [*range(5, 105), 2**64 - 1]
    swept = sample_padded_decompositions(net, seeds)
    assert iter(swept) is swept  # an iterator: partitions are yielded one at a time
    for seed, got in zip(seeds, swept, strict=True):
        expected = sample_padded_decomposition(host, net, fixture.delta, seed)
        assert json.dumps(got.to_json_dict()) == json.dumps(expected.to_json_dict())
    # past one chunk of seeds; the first seeds against the original sampler
    many = list(sample_padded_decompositions(net, range(300)))
    assert [p.seed for p in many] == list(range(300))
    for seed in (0, 1, 255, 256, 299):
        assert_matches_reference(many[seed], reference_decomposition(net, fixture.delta, seed))


@pytest.mark.parametrize("name", [p.id for p in SAMPLER_FIXTURES])
def test_clusters_view_equals_brute_force_partition_of_the_assignment(name):
    net = sampler_net(name)
    for part in sample_padded_decompositions(net, range(20)):
        a, radius = part.assignment.tolist(), dict(part.trace)
        brute = tuple(
            PaddedCluster(c, radius[c], frozenset(v for v in range(net.n) if a[v] == i))
            for i, c in enumerate(part.centers.tolist())
        )
        assert part.clusters == brute
        assert part.clusters is part.clusters  # built once


def test_partitions_compare_by_value():
    # a replay of the recorded radii is the same partition; a copy with one
    # array entry or one scalar changed is not
    b = built(BY_NAME["grid-5"])
    for part in sample_padded_decompositions(b.net, range(5)):
        assert part == replay_decomposition(b.net, list(part.trace), seed=part.seed)
        assert part == dataclasses.replace(part, assignment=part.assignment.copy())
        radii, assignment = part.radii.copy(), part.assignment.copy()
        radii[-1] = np.nextafter(radii[-1], 0.0)
        assignment[0] = len(part.centers)
        tampered = [
            dataclasses.replace(part, radii=radii),
            dataclasses.replace(part, assignment=assignment),
            dataclasses.replace(part, centers=part.centers[:-1]),
            dataclasses.replace(part, ordered_centers=part.ordered_centers[::-1]),
            dataclasses.replace(part, seed=part.seed + 1),
        ]
        for bad in tampered:
            assert part != bad and not part == bad
    assert part != part.trace


def first_claims_by_slot_scan(prefix, n, radii):
    """`_first_claims` as one scan of the whole prefix per slot, last slot
    first, reading neither the entries' order nor the slot bounds."""
    vertex, rank, dist, slot = prefix[:4]
    first = np.full((n, radii.shape[1]), -1, dtype=np.intp)
    for s in range(int(slot.max()) if slot.size else -1, -1, -1):
        at = np.flatnonzero(slot == s)
        held = first[vertex[at]]
        np.copyto(held, rank[at, None], where=dist[at, None] <= radii[rank[at]])
        first[vertex[at]] = held
    return first.T


@pytest.mark.parametrize("trials", [1, 256])
@pytest.mark.parametrize("name", [p.id for p in PREFIX_FIXTURES])
def test_slot_grouped_first_claims_equal_a_per_slot_scan(name, trials):
    net = sampler_net(name)
    vertex, rank, dist, slot, sure, bounds = net.claim_prefix
    # grouped by slot, last slot first, each group in vertex order
    assert (np.diff(slot) <= 0).all() and bounds[-1] == slot.size
    last = len(bounds) - 2
    assert all((slot[a:b] == s).all() for s, a, b in zip(range(last, -1, -1), bounds, bounds[1:]))
    assert all((np.diff(vertex[a:b]) > 0).all() for a, b in zip(bounds, bounds[1:]))
    radii = decomposition._radii(net, DecompositionParams.from_net(net, net.delta), 3, 0, trials)
    want = first_claims_by_slot_scan(net.claim_prefix, net.n, radii)
    assert np.array_equal(decomposition._first_claims(net.claim_prefix, net.n, radii), want)
    # the batch sampler over some vertices regroups its filtered rows
    assert np.array_equal(next(sample_assignments(net, 3, trials)), want)
    for keep in (0.1, 0.5):
        vertices = np.flatnonzero(np.random.default_rng(trials).random(net.n) < keep)
        got = next(sample_assignments(net, 3, trials, vertices=vertices))
        assert np.array_equal(got, want[:, vertices])


def old_claim_classes(net):
    """`_claim_classes` as np.unique's inverse over the rows of the same table."""
    vertex, rank, dist, slot, sure, _ = net.claim_prefix
    prefix = np.full((net.n, 2 * (int(slot.max()) + 1 if slot.size else 1)), -1, dtype=np.int64)
    prefix[vertex, 2 * slot] = rank
    prefix[vertex, 2 * slot + 1] = np.where(sure, -1, dist.view(np.int64))
    return np.unique(prefix, axis=0, return_inverse=True)[1].reshape(-1)


@pytest.mark.parametrize(
    "fixture", [pytest.param(f, id=f.name) for f in acceptance_fixtures()] + PREFIX_FIXTURES
)
def test_claim_classes_equal_the_unique_row_inverse(fixture):
    net = fixture_net(fixture)[1]
    cls = decomposition._claim_classes(net)
    assert cls.dtype == np.intp
    assert np.array_equal(cls, old_claim_classes(net))


def test_sweep_rejects_seeds_as_the_single_sampler_does():
    g, net = single_center_net()
    assert list(sample_padded_decompositions(net, [])) == []
    for seed in (-1, 2**64):
        with pytest.raises(ValueError) as single:
            sample_padded_decomposition(g, net, 1.0, seed)
        with pytest.raises(ValueError, match=f"^{re.escape(str(single.value))}$"):
            list(sample_padded_decompositions(net, [3, seed]))


@pytest.mark.parametrize("fixture", SAMPLER_FIXTURES[1:4])
def test_batch_matches_whole_stream_draws_across_chunks(fixture):
    host, net = fixture_net(fixture)
    trials = 300  # one full chunk of 256 and a partial one of 44
    blocks = list(sample_assignments(net, seed=11, trials=trials))
    assert [b.shape[0] for b in blocks] == [256, 44]
    got = np.concatenate(blocks)
    assert np.array_equal(got, reference_assignments(net, fixture.delta, 11, trials))
    single = sample_padded_decomposition(host, net, fixture.delta, 11)
    centers = net.centers_in_order().tolist()
    assert [centers.index(single.clusters[c].center) for c in single.assignment] == got[0].tolist()


@pytest.mark.parametrize("fixture", SAMPLER_FIXTURES)
def test_batch_restricted_to_vertices_matches_full_block_columns(fixture):
    host, net = fixture_net(fixture)
    rng = np.random.default_rng(len(net.centers_in_order()))
    for size in (1, net.n // 3, net.n):
        v = np.sort(rng.choice(net.n, size=size, replace=False))
        full = sample_assignments(net, seed=5, trials=300)
        part = sample_assignments(net, seed=5, trials=300, vertices=v)
        for whole, block in zip(full, part, strict=True):
            assert block.shape == (whole.shape[0], size)
            assert np.array_equal(block, whole[:, v])


def test_batch_restricted_to_vertices_names_unclaimed_vertex_by_id(monkeypatch):
    fixture = path_fixture(40, delta=2.0)
    host, net = fixture_net(fixture)
    vertex, rank, dist = net.center_entries()
    kept = ~np.isin(vertex, [7, 12])
    monkeypatch.setattr(net, "center_entries", lambda: (vertex[kept], rank[kept], dist[kept]))
    # vertex 7 is row 2 of the block
    with pytest.raises(AssertionError, match="^vertex 7 claimed by no center"):
        next(sample_assignments(net, 0, trials=10, vertices=[0, 3, 7, 12, 30]))
    assert next(sample_assignments(net, 0, trials=10, vertices=[0, 3, 30])).shape == (10, 3)


def test_batch_rejects_vertices_not_strictly_ascending_ids():
    g, net = single_center_net()
    for vertices in ([1, 1], [2, 0], [-1, 2], [0, net.n], [[0, 1]], [0.0, 1.0]):
        with pytest.raises(ValueError, match="strictly ascending"):
            next(sample_assignments(net, 0, trials=3, vertices=vertices))
    assert next(sample_assignments(net, 0, trials=3, vertices=[])).shape == (3, 0)


# --- padding estimate -----------------------------------------------------------


def test_gamma_zero_rate_one():
    g, net = single_center_net()
    counts = padded_trial_counts(g, net, 1.0, [0.0], trials=50, seed=1)[0.0]
    assert counts.tolist() == [50] * g.n
    assert wilson_lower_bound(int(counts.min()), 50) > 0.9


def test_single_center_rate_one_for_all_gamma():
    g, net = single_center_net()
    gammas = [1 / 64, 1 / 32, 1 / 16]
    counts = padded_trial_counts(g, net, 1.0, gammas, trials=50, seed=1)
    for gamma in gammas:
        assert counts[gamma].tolist() == [50] * g.n


def test_gamma_out_of_range():
    g, net = single_center_net()
    with pytest.raises(ValueError):
        padded_trial_counts(g, net, 1.0, [0.2], trials=10, seed=0)
    with pytest.raises(ValueError):
        padded_trial_counts(g, net, 1.0, [-0.01], trials=10, seed=0)


def test_padded_trial_counts_rejects_nan_delta_first():
    g, net = single_center_net()
    for gammas in ([1 / 16], [0.2]):
        with pytest.raises(ValueError, match="delta must be finite and > 0, got nan"):
            padded_trial_counts(g, net, math.nan, gammas, trials=10, seed=0)


def dense_trial_counts(g, net, delta, gammas, trials, seed):
    """Reference: one dense all-pairs matrix and one int64 gather per gamma."""
    params = DecompositionParams.from_net(net, delta)
    dist_matrix = all_pairs(g)
    segments = {}
    for gm in gammas:
        rows, cols = np.nonzero(dist_matrix <= gm * params.diameter_bound)
        starts = np.searchsorted(rows, np.arange(g.n))
        segments[float(gm)] = (rows, cols, starts)
    counts = {gm: np.zeros(g.n, dtype=np.int64) for gm in segments}
    for block in sample_assignments(net, seed, trials):
        for gm, (rows, cols, starts) in segments.items():
            diff = block[:, cols] != block[:, rows]
            cut = np.logical_or.reduceat(diff, starts, axis=1)
            counts[gm] += (~cut).sum(axis=0)
    return counts


@pytest.mark.parametrize("name", ["grid-7", "sp-50w", "wpath-12"])
@pytest.mark.parametrize("supply_dist", [False, True])
def test_padded_trial_counts_match_dense_reference(name, supply_dist):
    b = built(BY_NAME[name])
    gmax = b.params.gamma_max
    # unsorted, duplicated, and gamma 0 (the ball is the zero-distance class)
    gammas = [gmax / 2, 0.0, gmax, gmax / 2, gmax / 4]
    trials = 300  # one full chunk of 256 and a partial one
    expected = dense_trial_counts(b.host, b.net, b.delta, gammas, trials, seed=3)
    got = padded_trial_counts(
        b.host, b.net, b.delta, gammas, trials, seed=3,
        dist_matrix=b.host_dist if supply_dist else None,
    )
    assert sorted(got) == sorted(expected)
    for gm in expected:
        assert got[gm].tolist() == expected[gm].tolist(), gm
    assert (got[gmax] < trials).any()  # some ball was cut, so the check has teeth


def test_padded_trial_counts_match_dense_reference_on_random_nets():
    # the counts skip pairs whose ends share a claim class; the reference
    # compares every pair.  Small deltas give nets with cross-class pairs in
    # the balls, large ones nets of one class; both kinds must turn up.  The
    # first example is a one-class net; on the second, a pair kept per class
    # other than the nearest would miss a smaller gamma's cut.  On the third,
    # two vertices share a ball profile at different distances to one of its
    # classes, so the counts cut that profile once for both.
    kinds = set()

    @given(
        ktree=st.booleans(),
        n=st.integers(6, 30),
        k=st.integers(1, 3),
        graph_seed=st.integers(0, 10**6),
        delta=st.sampled_from([1.0, 2.0, 8.0, 40.0]),
        trials=st.sampled_from([1, 37, 300]),
        supply_dist=st.booleans(),
    )
    @example(ktree=True, n=12, k=2, graph_seed=0, delta=40.0, trials=37, supply_dist=False)
    @example(ktree=False, n=30, k=1, graph_seed=0, delta=8.0, trials=37, supply_dist=True)
    @example(ktree=False, n=10, k=1, graph_seed=0, delta=8.0, trials=300, supply_dist=False)
    @settings(max_examples=40, deadline=None)
    def check(ktree, n, k, graph_seed, delta, trials, supply_dist):
        if ktree:
            f = partial_ktree_fixture(n, k, seed=graph_seed, drop=0.3, weighted=True, delta=delta)
        else:
            f = weighted_path_fixture(n, seed=graph_seed, delta=delta)
        host, net = fixture_net(f)
        params = DecompositionParams.from_net(net, delta)
        gammas = [0.0, *params.default_gammas()]
        d = all_pairs(host)
        expected = dense_trial_counts(host, net, delta, gammas, trials, seed=graph_seed)
        got = padded_trial_counts(
            host, net, delta, gammas, trials, seed=graph_seed,
            dist_matrix=d if supply_dist else None,
        )
        assert {gm: c.tolist() for gm, c in got.items()} == {
            gm: c.tolist() for gm, c in expected.items()
        }
        cls = decomposition._claim_classes(net)
        cross = (d <= params.gamma_max * params.diameter_bound) & (cls[:, None] != cls[None, :])
        if cls.max() == 0:
            kinds.add("one class")
        elif cross.any():
            kinds.add("cross-class pairs")
        for gm in gammas:
            has, rows, dist = ball_profiles(d, cls, gm * params.diameter_bound)
            shared = len(np.unique(rows[has], axis=0))
            if len(np.unique(np.column_stack([rows, dist])[has], axis=0)) > shared:
                kinds.add("profile shared at unequal distances")

    check()
    assert kinds == {"one class", "cross-class pairs", "profile shared at unequal distances"}


def ball_profiles(d, cls, radius):
    """Per vertex: whether some other claim class lies within radius, its
    (own class, classes within radius) profile, and its distances to them."""
    nearest = np.full((len(cls), cls.max() + 1), np.inf)
    np.minimum.at(nearest.T, cls, d.T)
    near = nearest <= radius
    near[np.arange(len(cls)), cls] = False
    return near.any(axis=1), np.column_stack([cls, near]), np.where(near, nearest, -1.0)


@pytest.mark.parametrize(
    "fixture",
    [
        pytest.param(BY_NAME["grid-7"], id="grid-7"),
        pytest.param(
            partial_ktree_fixture(60, 2, seed=5, drop=0.3, weighted=True, delta=4.0),
            id="sp-60w",
        ),
    ],
)
def test_ball_profiles_are_fewer_than_their_vertices(fixture, monkeypatch):
    # the counts cut each distinct (own class, classes in the ball) once, and
    # on these nets the vertices with pairs share far fewer profiles
    host, net = fixture_net(fixture)
    params = DecompositionParams.from_net(net, fixture.delta)
    gammas = [0.0, *params.default_gammas()]
    plans = []
    real = decomposition._ball_profiles

    def spy(z, pair_of, n):
        plans.append(real(z, pair_of, n))
        return plans[-1]

    monkeypatch.setattr(decomposition, "_ball_profiles", spy)
    padded_trial_counts(host, net, fixture.delta, gammas, trials=1, seed=0)
    cls, d = decomposition._claim_classes(net), all_pairs(host)
    with_pairs = [gm for gm in gammas if ball_profiles(d, cls, gm * params.diameter_bound)[0].any()]
    assert len(plans) == len(with_pairs) > 0
    for (zs, profile, _, starts), gm in zip(plans, with_pairs):
        has, rows, _ = ball_profiles(d, cls, gm * params.diameter_bound)
        assert zs.tolist() == np.flatnonzero(has).tolist()
        assert len(starts) == profile.max() + 1 < len(zs), gm
        # two vertices share a profile exactly when their reference rows match
        ref = np.unique(rows[zs], axis=0, return_inverse=True)[1].reshape(-1)
        both = np.unique(np.column_stack([profile, ref]), axis=0)
        assert len(both) == ref.max() + 1 == len(starts)


@pytest.mark.parametrize("fixture", SAMPLER_FIXTURES)
def test_claim_class_members_share_labels(fixture):
    host, net = fixture_net(fixture)
    cls = decomposition._claim_classes(net)
    assert cls.shape == (net.n,)
    assert np.bincount(cls).max() > 1  # some class has several members
    first_member = np.full(cls.max() + 1, net.n)
    np.minimum.at(first_member, cls, np.arange(net.n))
    for block in sample_assignments(net, seed=5, trials=300):
        assert np.array_equal(block, block[:, first_member[cls]])


def drop_entries(monkeypatch, net):
    """Empty net's center table, and drop the claim prefix the net built
    from the whole table on its first use."""
    empty = tuple(a[:0] for a in net.center_entries())
    monkeypatch.setattr(net, "center_entries", lambda: empty)
    net.__dict__.pop("claim_prefix", None)


def test_one_class_net_lists_no_cuttable_pair(monkeypatch):
    g, net = single_center_net()
    assert decomposition._claim_classes(net).max() == 0
    gammas = [0.0, 1 / 32, 1 / 16]
    matrices = (None, all_pairs(g))
    for dist_matrix in matrices:
        counts = padded_trial_counts(g, net, 1.0, gammas, trials=40, seed=2, dist_matrix=dist_matrix)
        assert {gm: c.tolist() for gm, c in counts.items()} == {gm: [40] * g.n for gm in gammas}
    # every vertex in a cluster of its own: a listed pair would be cut
    with monkeypatch.context() as m:
        m.setattr(
            decomposition, "sample_assignments",
            lambda net, seed, trials, vertices: iter(
                [np.tile(np.arange(len(vertices)), (trials, 1))]
            ),
        )
        for dist_matrix in matrices:
            counts = padded_trial_counts(g, net, 1.0, gammas, trials=40, seed=2, dist_matrix=dist_matrix)
            assert {gm: c.tolist() for gm, c in counts.items()} == {gm: [40] * g.n for gm in gammas}
    # with no entry left every vertex shares the one class, and the sampler
    # still names the first vertex no center claims
    drop_entries(monkeypatch, net)
    assert decomposition._claim_classes(net).max() == 0
    for dist_matrix in matrices:
        with pytest.raises(AssertionError, match="^vertex 0 claimed by no center"):
            padded_trial_counts(g, net, 1.0, gammas, trials=40, seed=2, dist_matrix=dist_matrix)


@pytest.mark.parametrize(
    "fixture, sampled",
    [
        # grid4 and path8 of data/ list no pair at the default gammas, and
        # their nets cover every vertex within delta: nothing reads a label
        pytest.param("grid4", False, id="grid4"),
        pytest.param("path8", False, id="path8"),
        # its largest gamma lists pairs, whose cuts the labels decide
        pytest.param(weighted_path_fixture(120, seed=3), True, id="wpath-120-seed3"),
    ],
)
def test_padded_trial_counts_sample_only_when_a_label_is_read(monkeypatch, fixture, sampled):
    if isinstance(fixture, str):
        data = Path(__file__).resolve().parents[1] / "data"
        g = parse_edge_list((data / f"{fixture}.gr").read_text())
        td = load_tree_decomposition((data / f"{fixture}.td").read_text(), g)
        fixture = Fixture(fixture, g, td, 2.0)
    host, net = fixture_net(fixture)
    gammas = DecompositionParams.from_net(net, fixture.delta).default_gammas()
    calls = []
    sampler = decomposition.sample_assignments
    monkeypatch.setattr(
        decomposition, "sample_assignments", lambda *args, **kw: calls.append(1) or sampler(*args, **kw)
    )
    counts = padded_trial_counts(host, net, fixture.delta, gammas, 10_000, seed=7)
    assert bool(calls) == sampled
    assert (min(c.min() for c in counts.values()) < 10_000) == sampled
    # with no entry left, one class holds every vertex and no pair is listed,
    # but a vertex has no entry within delta: the sampler runs, and raises
    drop_entries(monkeypatch, net)
    with pytest.raises(AssertionError, match="^vertex 0 claimed by no center"):
        padded_trial_counts(host, net, fixture.delta, gammas, 10_000, seed=7)


def test_padded_trial_counts_rejects_bad_gammas():
    g, net = single_center_net()
    for gammas in ([], [-0.01], [1 / 16, 0.2], [math.nan]):
        with pytest.raises(ValueError):
            padded_trial_counts(g, net, 1.0, gammas, trials=10, seed=0)
    with pytest.raises(ValueError):
        padded_trial_counts(g, net, 1.0, [0.0], trials=0, seed=0)


def test_seed_must_fit_64_bits():
    g, net = single_center_net()
    sample_padded_decomposition(g, net, 1.0, 2**64 - 1)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            sample_padded_decomposition(g, net, 1.0, seed)


def test_wilson_bound_properties():
    assert wilson_lower_bound(50, 100) < 0.5
    assert wilson_lower_bound(100, 100) < 1.0
    assert wilson_lower_bound(0, 100) == 0.0
    assert wilson_lower_bound(9900, 10000) > 0.985
