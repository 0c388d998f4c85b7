import math
import tracemalloc

import numpy as np
import pytest
from fixtures import (
    acceptance_fixtures,
    all_pairs,
    decimal_weight_fixture,
    dense_oracle,
    grid_fixture,
    partial_ktree_fixture,
    vertex_mask,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from padnet.graph import (
    GraphFormatError,
    WeightedGraph,
    ball,
    ball_pairs,
    parse_edge_list,
    reach,
    shortest_paths,
    strong_diameter,
    weak_diameter,
)
from padnet.trees import td_to_tree_partition
from padnet.verify import _bellman_ford_rows, full_report, oracle_all_pairs

INF = math.inf


def path3():
    # vertices 0-1-2 standing in for labels 1-2-3
    return WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])


def test_unit_path_distances():
    g = path3()
    d = shortest_paths(g, g.all_vertices(), [0])
    assert d.tolist() == [0.0, 1.0, 2.0]


def test_induced_subgraph_cut():
    g = path3()
    d = shortest_paths(g, vertex_mask(3, [0, 2]), [0])
    assert d[2] == INF


def test_sources_must_be_inside_restrict():
    g = path3()
    with pytest.raises(ValueError):
        shortest_paths(g, vertex_mask(3, [0, 1]), [2])
    with pytest.raises(ValueError):
        shortest_paths(g, vertex_mask(3), [])
    with pytest.raises(ValueError):
        shortest_paths(g, g.all_vertices(), [-1])
    with pytest.raises(ValueError):
        shortest_paths(g, g.all_vertices(), [3])  # past the last vertex
    with pytest.raises(ValueError):
        shortest_paths(g, g.all_vertices(), [1.5])  # not an integer id


@pytest.mark.parametrize(
    "mask",
    [np.ones(3, dtype=np.int64), np.ones(3), np.ones(2, dtype=bool), np.ones((1, 3), dtype=bool)],
    ids=["int", "float", "short", "2d"],
)
def test_restrict_must_be_a_bool_vector(mask):
    # the search reads the mask as one byte per vertex, so any other dtype
    # or shape would be misread, not rejected, without this check
    with pytest.raises(ValueError, match=r"restrict must be a bool array of shape \(3,\)"):
        shortest_paths(path3(), mask, [0])


def test_ball_basic():
    g = path3()
    b = ball(g, g.all_vertices(), [1], 1.0)
    assert np.flatnonzero(b).tolist() == [0, 1, 2]
    assert b[1]


def test_zero_radius_ball_with_zero_weight_edges():
    g = WeightedGraph(3, [(0, 1, 0.0), (1, 2, 1.0)])
    b = ball(g, g.all_vertices(), [0], 0.0)
    assert np.flatnonzero(b).tolist() == [0, 1]


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        ball(path3(), path3().all_vertices(), [0], -0.5)


def test_nan_radius_rejected():
    # a NaN radius would otherwise give an empty ball, without its center
    with pytest.raises(ValueError, match="radius must be >= 0, got nan"):
        ball(path3(), path3().all_vertices(), [0], math.nan)


def test_diameters():
    g = path3()
    assert weak_diameter(g, vertex_mask(3, [1])) == 0.0
    assert weak_diameter(g, vertex_mask(3, [0, 2])) == 2.0
    assert strong_diameter(g, vertex_mask(3, [0, 2])) == INF
    assert strong_diameter(g, g.all_vertices()) == 2.0
    with pytest.raises(ValueError):
        weak_diameter(g, vertex_mask(3))
    with pytest.raises(ValueError):
        strong_diameter(g, vertex_mask(3))


def test_all_vertices_is_a_read_only_mask():
    everything = path3().all_vertices()
    assert everything.dtype == bool and everything.tolist() == [True, True, True]
    with pytest.raises(ValueError):
        everything[0] = False


def test_graph_validation():
    with pytest.raises(GraphFormatError):
        WeightedGraph(2, [(0, 0, 1.0)])  # self-loop
    with pytest.raises(GraphFormatError):
        WeightedGraph(2, [(0, 1, -1.0)])  # negative weight
    with pytest.raises(GraphFormatError):
        WeightedGraph(3, [(0, 1, 1.0)])  # disconnected
    g = WeightedGraph(2, [(0, 1, 3.0), (1, 0, 1.0)])  # parallel collapses to min
    assert g.edges == ((0, 1, 1.0),)


@pytest.mark.parametrize("w", [9e307, 1e308])
def test_total_weight_must_be_finite(w):
    # each weight is finite, but the path 0-1-2 is +inf long
    with pytest.raises(GraphFormatError, match="total edge weight overflows"):
        WeightedGraph(3, [(0, 1, w), (1, 2, w)])
    assert WeightedGraph(2, [(0, 1, w)]).edges == ((0, 1, w),)


# --- randomized cross-checks -------------------------------------------------


@st.composite
def connected_graphs(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    edges = [(i, draw(st.integers(0, i - 1)), float(draw(st.integers(0, 9)))) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.integers(1, 9)), max_size=2 * n))
    for u, v, w in extra:
        if u != v:
            edges.append((u, v, float(w)))
    return WeightedGraph(n, edges)


@st.composite
def graphs_weighted_from(draw, weights, max_n=12):
    n = draw(st.integers(2, max_n))
    edges = [(i, draw(st.integers(0, i - 1)), draw(weights)) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weights),
                          max_size=2 * n))
    edges.extend((u, v, w) for u, v, w in extra if u != v)
    return WeightedGraph(n, edges)


def decimal_graphs():
    # zero and non-dyadic weights, whose sums round differently by path
    return graphs_weighted_from(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0]))


# the acceptance fixtures' inputs (up to 100 vertices, all weights dyadic)
FIXTURE_GRAPHS = st.sampled_from([f.graph for f in acceptance_fixtures()])


# exact on dyadic weights only: Floyd-Warshall sums each path in another order
@given(st.one_of(connected_graphs(), FIXTURE_GRAPHS), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_dijkstra_matches_floyd_warshall(g, rnd):
    members = sorted(rnd.sample(range(g.n), rnd.randint(1, g.n)))
    restrict = vertex_mask(g.n, members)
    matrix = oracle_all_pairs(g, members)
    for s, row in zip(members, matrix):  # members ascend, as the matrix's rows do
        d = shortest_paths(g, restrict, [s])
        assert d[members].tolist() == row.tolist()


# every weight class a report sees: small integer and decimal graphs, and the
# acceptance fixtures' inputs
KERNEL_GRAPHS = st.one_of(connected_graphs(), decimal_graphs(), FIXTURE_GRAPHS)


@given(KERNEL_GRAPHS)
@settings(max_examples=60, deadline=None)
def test_dijkstra_matches_bellman_ford_on_every_weight(g):
    # both sum each path in path order, so they agree bit for bit on decimal
    # weights too
    rows = _bellman_ford_rows(g, np.arange(g.n), np.ones((g.n, g.n), dtype=bool), INF)
    for s in range(g.n):
        assert shortest_paths(g, g.all_vertices(), [s]).tobytes() == rows[s].tobytes()


@pytest.mark.parametrize(
    "fixture",
    [
        decimal_weight_fixture(partial_ktree_fixture(30, 3, seed=21, delta=1.0), seed=4),
        decimal_weight_fixture(partial_ktree_fixture(35, 2, seed=12, drop=0.4, delta=1.0), seed=5),
        decimal_weight_fixture(grid_fixture(5, delta=1.0), seed=6),
    ],
    ids=lambda f: f.name,
)
def test_report_on_decimal_weights_is_ok(fixture):
    # a valid instance passes whatever order its distances are summed in
    report = full_report(fixture.graph, fixture.td, fixture.delta, trials=200, oracle_cap=1000)
    assert report.ok, report.format_table()


@given(KERNEL_GRAPHS, st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_ball_monotone(g, salt):
    rnd = np.random.default_rng(salt)
    c = int(rnd.integers(g.n))
    top = float(shortest_paths(g, g.all_vertices(), [c]).max()) + 1
    r1, r2 = sorted(rnd.uniform(0, top, size=2).tolist())
    b1 = ball(g, g.all_vertices(), [c], r1)
    b2 = ball(g, g.all_vertices(), [c], r2)
    assert not (b1 & ~b2).any()


@given(KERNEL_GRAPHS, st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_weak_at_most_strong(g, salt):
    rnd = np.random.default_rng(salt)
    size = int(rnd.integers(1, g.n + 1))
    cluster = vertex_mask(g.n, rnd.choice(g.n, size=size, replace=False).tolist())
    assert weak_diameter(g, cluster) <= strong_diameter(g, cluster)


@given(KERNEL_GRAPHS, st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_restriction_never_shortens(g, salt):
    rnd = np.random.default_rng(salt)
    size = int(rnd.integers(1, g.n + 1))
    members = rnd.choice(g.n, size=size, replace=False).tolist()
    s = members[0]
    restricted = shortest_paths(g, vertex_mask(g.n, members), [s])
    free = shortest_paths(g, g.all_vertices(), [s])
    assert (restricted >= free).all()


# --- radius-bounded search ---------------------------------------------------


def assert_bounded_is_thresholded(g, restrict, sources, limit):
    free = shortest_paths(g, restrict, sources)
    bounded = shortest_paths(g, restrict, sources, limit)
    assert bounded.tolist() == np.where(free <= limit, free, INF).tolist()


@given(st.one_of(connected_graphs(), decimal_graphs()), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_ball_is_the_thresholded_unbounded_row(g, rnd):
    # ball searches only to its radius; at every reached distance, where a
    # last-bit difference would show, its mask is the unbounded row's
    members = sorted(rnd.sample(range(g.n), rnd.randint(1, g.n)))
    restrict = vertex_mask(g.n, members)
    centers = rnd.sample(members, rnd.randint(1, min(3, len(members))))
    row = shortest_paths(g, restrict, centers)
    for radius in {0.0, INF, rnd.uniform(0, 4), *row[np.isfinite(row)].tolist()}:
        assert np.array_equal(ball(g, restrict, centers, radius), row <= radius), radius


def dyadic_graphs():
    # zero weights and halves/quarters: every path length is exact
    return graphs_weighted_from(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.75, 3.0]), max_n=10)


@given(st.one_of(connected_graphs(), dyadic_graphs()), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_kernel_rows_sources_and_limits(g, rnd):
    members = sorted(rnd.sample(range(g.n), rnd.randint(1, g.n)))
    restrict = vertex_mask(g.n, members)
    matrix = dense_oracle(g, members)
    sources = [rnd.choice(members) for _ in range(rnd.randint(1, 4))]  # repeats allowed
    rows = {s: shortest_paths(g, restrict, [s]) for s in sources}
    for s, row in rows.items():
        assert row.tolist() == matrix[s].tolist()
    multi = shortest_paths(g, restrict, sources)
    assert multi.tolist() == np.minimum.reduce([rows[s] for s in sources]).tolist()
    for limit in {0.0, rnd.uniform(0, 8), *multi[np.isfinite(multi)].tolist()}:
        bounded = shortest_paths(g, restrict, sources, limit)
        assert bounded.tobytes() == np.where(multi <= limit, multi, INF).tobytes()


@given(st.one_of(connected_graphs(), decimal_graphs()), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_limit_equals_thresholded_unbounded(g, rnd):
    members = sorted(rnd.sample(range(g.n), rnd.randint(1, g.n)))
    restrict = vertex_mask(g.n, members)
    sources = sorted(rnd.sample(members, rnd.randint(1, len(members))))
    free = shortest_paths(g, restrict, sources)
    finite = free[np.isfinite(free)].tolist()
    # limits at every reached distance hit the boundary case d == limit
    for limit in {0.0, rnd.uniform(0, 5), *finite}:
        assert_bounded_is_thresholded(g, restrict, sources, limit)


@given(st.one_of(connected_graphs(), decimal_graphs()), st.randoms(use_true_random=False),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_reach_is_the_thresholded_row(g, rnd, by_interval):
    # reach keeps v when lo <= key[v] < hi: a bytes mask read at (1, 2), or
    # preorder-like numbers read at an interval, as the carving does
    if by_interval:
        lo = rnd.randrange(g.n)
        hi = rnd.randint(lo + 1, g.n)
        key = [rnd.randrange(g.n + 1) for _ in range(g.n)]
        key[rnd.randrange(g.n)] = lo
        restrict = np.array([lo <= k < hi for k in key])
    else:
        lo, hi = 1, 2
        restrict = vertex_mask(g.n, rnd.sample(range(g.n), rnd.randint(1, g.n)))
        key = restrict.tobytes()
    members = np.flatnonzero(restrict).tolist()
    sources = [rnd.choice(members) for _ in range(rnd.randint(1, 3))]  # repeats allowed
    free = shortest_paths(g, restrict, sources)
    for limit in {0.0, INF, rnd.uniform(0, 5), *free[np.isfinite(free)].tolist()}:
        found = reach(g, sources, limit, key, lo, hi)
        (inside,) = np.nonzero((free <= limit) & (free < INF))
        assert sorted(found) == inside.tolist()
        assert np.array([found[v] for v in inside.tolist()]).tobytes() == free[inside].tobytes()


def test_limit_on_copy_expanded_host():
    fx = grid_fixture(4, w=0.1)
    host = td_to_tree_partition(fx.graph, fx.td).host
    assert any(w == 0.0 for _, _, w in host.edges)
    everything = host.all_vertices()
    for v in range(0, host.n, 7):
        for limit in (0.0, 0.1, 0.30000000000000004, 0.5):
            assert_bounded_is_thresholded(host, everything, [v], limit)
    assert_ball_pairs_thresholded(host, 0.3)


def assert_ball_pairs_thresholded(g, radius):
    # one label per vertex: each pair's search runs from its labelled end u,
    # so pair (z, u) holds all_pairs' entry (u, z) bit for bit
    free = all_pairs(g).T
    rows, cols, pair_d = ball_pairs(g, np.arange(g.n), radius)
    want_rows, want_cols = np.nonzero(free <= radius)
    assert rows.tolist() == want_rows.tolist()
    assert cols.tolist() == want_cols.tolist()
    assert pair_d.tolist() == free[want_rows, want_cols].tolist()


@given(st.one_of(connected_graphs(), decimal_graphs()), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_ball_pairs_is_thresholded_all_pairs(g, rnd):
    free = all_pairs(g)
    for radius in {0.0, rnd.uniform(0, 5), rnd.choice(free.ravel().tolist())}:
        assert_ball_pairs_thresholded(g, radius)


@given(st.one_of(connected_graphs(), dyadic_graphs()), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_ball_pairs_of_shared_labels_are_per_label_minima(g, rnd):
    # every path length is exact on these weights, so a label's one search
    # gives each vertex its distance to the label's nearest vertex
    labels = np.array([rnd.choice([3, 5, 8]) for _ in range(g.n)])
    names = np.unique(labels)
    free = all_pairs(g)
    nearest = np.stack([free[labels == c].min(axis=0) for c in names], axis=1)  # (z, label)
    for radius in {0.0, rnd.uniform(0, 8), rnd.choice(free.ravel().tolist())}:
        rows, cols, pair_d = ball_pairs(g, labels, radius)
        z, i = np.nonzero(nearest <= radius)
        assert rows.tolist() == z.tolist()
        assert cols.tolist() == names[i].tolist()
        assert pair_d.tolist() == nearest[z, i].tolist()


def test_limit_zero_keeps_zero_weight_component():
    g = WeightedGraph(4, [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 1.0)])
    d = shortest_paths(g, g.all_vertices(), [0], limit=0.0)
    assert d.tolist() == [0.0, 0.0, 0.0, INF]


@pytest.mark.parametrize("limit", [-1.0, -1e-300, math.nan])
def test_invalid_limit_rejected(limit):
    g = path3()
    with pytest.raises(ValueError):
        shortest_paths(g, g.all_vertices(), [0], limit)


# --- edge-list format ---------------------------------------------------------


EXAMPLE = """# tiny path
p ge 3 2
e 1 2 1.0
e 2 3 0.5
"""


def test_parse_edge_list():
    g = parse_edge_list(EXAMPLE)
    assert g.n == 3
    assert g.edges == ((0, 1, 1.0), (1, 2, 0.5))


def edge_list_text(g: WeightedGraph) -> str:
    """g in the `p ge` format, each weight written as its shortest round-trip repr."""
    return f"p ge {g.n} {g.m}\n" + "".join(f"e {u + 1} {v + 1} {w!r}\n" for u, v, w in g.edges)


def test_round_trip_bit_exact():
    g = parse_edge_list(EXAMPLE)
    text = edge_list_text(g)
    assert edge_list_text(parse_edge_list(text)) == text


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_round_trip_random(g):
    text = edge_list_text(g)
    g2 = parse_edge_list(text)
    assert g2 == g
    assert edge_list_text(g2) == text


def test_round_trip_awkward_floats():
    g = WeightedGraph(2, [(0, 1, 0.1 + 0.2)])  # not exactly representable as short decimal
    text = edge_list_text(g)
    assert parse_edge_list(text).edges[0][2] == g.edges[0][2]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("e 1 2 1.0", "header"),
        ("p ge 2 1\ne 1 3 1.0", "label"),
        ("p ge 2 2\ne 1 2 1.0", "declares"),
        ("p ge 2 1\ne 1 2 1.0\np ge 2 1", "duplicate"),
        ("p ge 2 1\ne 1 2", "edge"),
        ("q 1 2\n", "unrecognized"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_edge_list(text)
    assert fragment in str(err.value)


def test_edgeless_header_rejected_before_allocating():
    # a header alone declares a million vertices; with fewer than n - 1 edges
    # the graph cannot be connected, which is known before any n-sized array
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError, match="graph is not connected"):
            parse_edge_list("p ge 1000000 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(GraphFormatError, match="graph is not connected"):
        parse_edge_list("p ge 4 2\ne 1 2 1.0\ne 3 4 1.0\n")
