import json
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.stats
from conftest import built
from fixtures import acceptance_fixtures, heavy_path5
from hypothesis import given, settings
from hypothesis import strategies as st

from padnet.decomposition import (
    DecompositionParams,
    TruncatedExp,
    padded_trial_counts,
    padding_probability_estimate,
    replay_decomposition,
    sample_assignments,
    sample_padded_decomposition,
    sample_truncated_exp,
    wilson_lower_bound,
)
from padnet.graph import WeightedGraph, all_pairs
from padnet.ordered_net import build_tree_ordered_net
from padnet.trees import TreePartition
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
    expected, _ = scipy.integrate.quad(lambda y: y * float(d.density(y)), 1.0, 2.0)
    var, _ = scipy.integrate.quad(lambda y: (y - expected) ** 2 * float(d.density(y)), 1.0, 2.0)
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
    assert len(net.net) == 1
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
    again = replay_decomposition(b.host, b.net, list(part.trace), seed=9)
    assert np.array_equal(again.assignment, part.assignment)
    assert again.clusters == part.clusters


def test_batch_trial_zero_matches_single_sample():
    b = built(BY_NAME["cycle-16"])
    part = sample_padded_decomposition(b.host, b.net, b.delta, seed=5)
    block = next(sample_assignments(b.host, b.net, b.delta, seed=5, trials=3))
    centers = b.net.centers_in_order()
    raw_single = np.array([centers.tolist().index(part.clusters[part.assignment[v]].center)
                           for v in range(b.host.n)])
    assert np.array_equal(block[0], raw_single)


def test_radius_law_and_validity_over_seeds():
    for name in ["path-30", "grid-5", "sp-50w"]:
        b = built(BY_NAME[name])
        beta = (3.0 + 1) / 2
        for seed in range(10):
            part = sample_padded_decomposition(b.host, b.net, b.delta, seed)
            for _, r in part.trace:
                assert b.delta <= r <= beta * b.delta
            rep = verify_partition(b.host, part, 3.0, b.delta, dist_matrix=b.host_dist)
            assert rep.ok, rep.format_table()


def test_sampler_input_validation():
    g, net = single_center_net()
    with pytest.raises(ValueError):
        sample_padded_decomposition(g, net, -1.0, 0)
    with pytest.raises(ValueError):
        sample_padded_decomposition(g, net, 2.0, 0)  # net built for delta=1
    with pytest.raises(ValueError):
        next(sample_assignments(g, net, 1.0, 0, trials=0))


# --- padding estimate -----------------------------------------------------------


def test_gamma_zero_rate_one():
    g, net = single_center_net()
    rate, lcb = padding_probability_estimate(g, net, 1.0, 0.0, trials=50, seed=1)
    assert rate == 1.0
    assert lcb > 0.9


def test_single_center_rate_one_for_all_gamma():
    g, net = single_center_net()
    for gamma in (1 / 64, 1 / 32, 1 / 16):
        rate, _ = padding_probability_estimate(g, net, 1.0, gamma, trials=50, seed=1)
        assert rate == 1.0


def test_gamma_out_of_range():
    g, net = single_center_net()
    with pytest.raises(ValueError):
        padding_probability_estimate(g, net, 1.0, 0.2, trials=10, seed=0)
    with pytest.raises(ValueError):
        padding_probability_estimate(g, net, 1.0, -0.01, trials=10, seed=0)


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
    for block in sample_assignments(g, net, delta, seed, trials):
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
