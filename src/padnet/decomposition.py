"""Randomized padded decomposition sampled from a tree-ordered net.

Centers are processed root-to-leaf; each draws a radius delta_i * Delta with
delta_i from a truncated exponential on [1, beta], beta = (alpha+1)/2, and
claims the not-yet-claimed part of its radius ball inside the subgraph
induced by its descendants.  The rate lambda = 4/(alpha-1) * ln(2 tau) uses
the measured packing value tau, which is what the padding guarantee
exp(-16 (alpha+1)/(alpha-1) ln(2 tau) * gamma) actually depends on.

Randomness: one counter-based Philox4x64-10 stream per seed, numpy's Philox
generator keyed by (seed, 0).  With k ordered centers, trial t's center of
rank i reads 64-bit word t*k + i, so a single sample reads words 0..k-1
(trial 0) and trials are independent, reproducible, and chunkable: any
range of trials starts at its own counter block, with no draw before it
generated (`stream_uniforms`).  Both samplers draw radii through `_radii`:
one call per chunk of trials of a batch, and one per chunk of seeds of a
sweep of partitions (a single sample is a sweep of one).  Both read the
first claims through the net's `claim_prefix`, built once per net.  A
partition is arrays (assignment, cluster centers, radii): one stable argsort
gives the members, and `PaddedPartition.clusters` and `trace` are views
built on first access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .graph import WeightedGraph, ball_pairs
from .ordered_net import ArrayRecord, TreeOrderedNet, check_net_delta
from .ordered_net import _claim_prefixes, _cut, _run_starts, _slot_bounds


@dataclass(frozen=True)
class TruncatedExp:
    """Exponential distribution with rate lam conditioned on [theta1, theta2].

    One form at every rate, relative to theta1: F(y) = -expm1(-lam*(y-theta1))
    / M and F^-1(u) = theta1 - log1p(-u*M) / lam, M = -expm1(-lam*(theta2-theta1)).
    Neither divides by exp(-lam*theta1), which underflows at lam ~ 921
    (alpha = 1.01, tau = 5).  F errs at most 2 ulp, and F^-1 4 ulp for u <= 0.99.
    """

    theta1: float
    theta2: float
    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        if self.theta1 >= self.theta2:
            raise ValueError(f"need theta1 < theta2, got [{self.theta1}, {self.theta2}]")

    def cdf(self, y):
        inside = np.clip(np.asarray(y, dtype=float), self.theta1, self.theta2)
        return -np.expm1(-self.lam * (inside - self.theta1)) / self.mass()

    def mass(self) -> float:
        """M = 1 - exp(-lam*(theta2-theta1)): the mass on [theta1, theta2] over exp(-lam*theta1)."""
        return -math.expm1(-self.lam * (self.theta2 - self.theta1))


def sample_truncated_exp(dist: TruncatedExp, u) -> np.ndarray | float:
    """Inverse-CDF transform; u=0 and u=1 hit the interval endpoints exactly."""
    scalar = np.isscalar(u)
    u = np.asarray(u, dtype=float)
    if ((u < 0) | (u > 1)).any():
        raise ValueError("uniform draw outside [0, 1]")
    # u = 0 gives theta1; u = 1 may round below theta2, or to +inf when M rounds to 1
    with np.errstate(divide="ignore"):
        y = dist.theta1 - np.log1p(-u * dist.mass()) / dist.lam
    y = np.where(u == 1.0, dist.theta2, np.clip(y, dist.theta1, dist.theta2))
    return float(y) if scalar else y


@dataclass(frozen=True)
class DecompositionParams:
    alpha: float
    delta: float
    beta_internal: float
    lam: float
    tau: int
    gamma_max: float
    padding_beta: float
    diameter_bound: float

    @classmethod
    def from_net(cls, net: TreeOrderedNet, delta: float) -> "DecompositionParams":
        check_net_delta(net, delta)
        alpha = net.alpha
        if net.tau_emp < 1:
            raise ValueError(f"net packing value must be >= 1, got {net.tau_emp}")
        if alpha <= 1:
            raise ValueError(f"alpha must be > 1 for the padding guarantee, got {alpha}")
        return cls(
            alpha=alpha,
            delta=delta,
            beta_internal=(alpha + 1) / 2,
            lam=4.0 / (alpha - 1) * math.log(2 * net.tau_emp),
            tau=net.tau_emp,
            gamma_max=(alpha - 1) / (8 * (alpha + 1)),
            padding_beta=16.0 * (alpha + 1) / (alpha - 1) * math.log(2 * net.tau_emp),
            diameter_bound=(alpha + 1) * delta,
        )

    def default_gammas(self) -> list[float]:
        """The padding-estimate gamma grid: gamma_max/4, gamma_max/2, gamma_max."""
        return [self.gamma_max / 4, self.gamma_max / 2, self.gamma_max]

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "delta": self.delta,
            "beta_internal": self.beta_internal,
            "lambda": self.lam,
            "tau": self.tau,
            "gamma_max": self.gamma_max,
            "padding_beta": self.padding_beta,
            "diameter_bound": self.diameter_bound,
        }


@dataclass(frozen=True)
class PaddedCluster:
    center: int
    radius: float
    members: frozenset[int]


@dataclass(eq=False)
class PaddedPartition(ArrayRecord):
    """One sampled partition plus the radii that replay it exactly:
    assignment[v] is vertex v's cluster, the one record of the members,
    centers[c] cluster c's center, in rank order, and radii[i] the radius of
    ordered_centers[i], the net's read-only `centers_in_order()`."""

    assignment: np.ndarray
    centers: np.ndarray
    seed: int
    params: DecompositionParams
    radii: np.ndarray
    ordered_centers: np.ndarray

    def members(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, starts) from one stable argsort of the assignment: cluster
        c's members, ascending, are order[starts[c] : starts[c + 1]].  An id
        outside 0..len(centers)-1 puts its vertex in no cluster."""
        order = np.argsort(self.assignment, kind="stable")
        return order, np.searchsorted(self.assignment[order], np.arange(len(self.centers) + 1))

    def _groups(self) -> list[tuple[int, float, list[int]]]:
        """(center, radius, ascending members) of each cluster, in id order."""
        radius = dict(zip(self.ordered_centers.tolist(), self.radii.tolist()))
        order, starts = self.members()
        return [(c, radius[c], m) for c, m in zip(self.centers.tolist(), _cut(order.tolist(), starts))]

    @cached_property
    def clusters(self) -> tuple[PaddedCluster, ...]:
        """The clusters as `PaddedCluster`s, in id order: a view built on
        first access, for the API; padnet itself reads the arrays."""
        return tuple(PaddedCluster(c, r, frozenset(m)) for c, r, m in self._groups())

    @cached_property
    def trace(self) -> tuple[tuple[int, float], ...]:
        """(center, radius) of each ordered center: a view, as `clusters` is."""
        return tuple(zip(self.ordered_centers.tolist(), self.radii.tolist()))

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "params": self.params.to_json_dict(),
            "clusters": [{"center": c, "radius": r, "members": m} for c, r, m in self._groups()],
            "assignment": {str(v): c for v, c in enumerate(self.assignment.tolist())},
            "trace": [{"center": c, "radius": r} for c, r in zip(self.ordered_centers.tolist(), self.radii.tolist())],
        }


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def seeded_generator(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream); seed must fit 64 bits."""
    _check_seed(seed)
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def stream_uniforms(seed: int, k: int, start: int, stop: int) -> np.ndarray:
    """The uniforms of trials start..stop-1 of the seed's stream, as (k, trials).

    The stream is numpy's Philox4x64-10 generator keyed by (seed, 0): trial
    t's center of rank i reads its 64-bit word t*k + i, which becomes
    (x >> 11) * 2**-53 as in Generator.random.  Philox is counter-based:
    counter block c (c = 1, 2, ...) yields words 4(c-1)..4(c-1)+3, so the
    range starts at counter (start*k) // 4, skips (start*k) % 4 words, and
    reads none of the trials before it.
    """
    _check_seed(seed)
    if k < 0 or not 0 <= start <= stop:
        raise ValueError(f"need k >= 0 and 0 <= start <= stop, got {k}, {start}, {stop}")
    block, skip = divmod(start * k, 4)
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64), counter=block)
    words = bits.random_raw(skip + (stop - start) * k)[skip:]
    return ((words >> np.uint64(11)) * 2.0**-53).reshape(stop - start, k).T


def _first_claims(
    prefix: tuple[np.ndarray, ...], n: int, radii: np.ndarray, ids: np.ndarray | None = None
) -> np.ndarray:
    """First claiming center of every vertex in every trial, as (t, n) ranks.

    prefix is a `_claim_prefixes` of the net's center table over n vertices
    whose reach and sure reach bound each center's radii, and radii holds
    each ordered center's radius in each of t trials, shaped (k, t).  A
    center claims the vertices of its entries within its radius, and a
    vertex goes to the lowest rank that claims it.  Raises when some vertex
    is claimed by no center in some trial, naming the first such vertex, as
    ids[v] when the rows stand for the vertex ids `ids`.

    The sampler's radii are >= delta, within which the net covers every
    vertex, so the prefix keeps a sure entry and L entries at most per
    vertex (its packing count at the largest radius).  They are walked one
    slot group at a time, the last first: each writes its rank over the
    trials whose radius reaches it, so a lower rank overwrites a higher one.
    """
    vertex, rank, dist, _, _, bounds = prefix
    # in the smallest integer type that holds -1 and every rank: the walk
    # moves (vertices, t) rows, and narrow ones move fastest
    first = np.full((n, radii.shape[1]), -1, dtype=np.min_scalar_type(-1 - len(radii)))
    bounds = bounds.tolist()
    for a, b in zip(bounds, bounds[1:]):
        rows, r = vertex[a:b], rank[a:b]
        held = first[rows]
        np.copyto(held, r[:, None], where=dist[a:b, None] <= radii[r])
        first[rows] = held
    unclaimed = (first < 0).any(axis=1)
    if unclaimed.any():
        v = int(np.flatnonzero(unclaimed)[0])
        v = v if ids is None else int(ids[v])
        raise AssertionError(f"vertex {v} claimed by no center; covering violated")
    return first.astype(np.intp).T


def _claim_classes(net: TreeOrderedNet) -> np.ndarray:
    """A class id per vertex: vertices of one class get the same first claim
    in every trial of the sampler, whatever radii it draws.

    Every sampled radius is y * delta with 1 <= y <= beta, so each vertex's
    possible first claims are its entries in the net's `claim_prefix`, and
    the sure entry's distance does not matter.  Two vertices with equal
    (rank, dist) prefixes, the sure distance replaced by a sentinel, are
    claimed alike.  Only the sampler's own inputs are read,
    and nothing is assumed of the net's covering: a vertex with no sure entry
    shares a class only with vertices of the same prefix, which then go
    unclaimed together.
    """
    vertex, rank, dist, slot, sure, _ = net.claim_prefix
    width = int(slot.max()) + 1 if slot.size else 1
    # (rank, dist bits) per slot; -1 marks an empty slot's rank and a sure
    # entry's distance, and no rank or non-negative float's bits read -1
    prefix = np.full((net.n, 2 * width), -1, dtype=np.int64)
    prefix[vertex, 2 * slot] = rank
    prefix[vertex, 2 * slot + 1] = np.where(sure, -1, dist.view(np.int64))
    return _row_classes(prefix)[0]


def _row_classes(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ids, first): each row's class of equal rows, numbered as np.unique(table, axis=0)
    numbers them (lexicographically), and a row of each; by a lexsort of the columns."""
    order = np.lexsort(table.T[::-1])
    rows = table[order]
    new = np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))
    ids = np.empty(len(table), dtype=np.intp)
    ids[order] = np.cumsum(new) - 1
    return ids, order[new]


CHUNK = 256  # trials per block of sample_assignments, seeds per block of sampled partitions


def _radii(net: TreeOrderedNet, params: DecompositionParams, seed, start: int, stop: int):
    """Each ordered center's radius F^-1(u) * delta for the uniforms u of
    trials start..stop-1 of the seed's stream, as (centers, trials).  seed
    may also be a sequence of seeds, each read from its own stream: the
    columns of one seed then follow those of the seed before it."""
    law = TruncatedExp(1.0, params.beta_internal, params.lam)
    k = len(net.centers_in_order())
    seeds = [seed] if np.isscalar(seed) else seed
    u = np.hstack([stream_uniforms(s, k, start, stop) for s in seeds])
    return sample_truncated_exp(law, u) * params.delta


def sample_padded_decompositions(net: TreeOrderedNet, seeds) -> Iterator[PaddedPartition]:
    """Yield the partition of each seed in `seeds`, in order, at the net's own delta.

    Seeds are taken CHUNK at a time: one `_radii` call draws trial 0 of
    every seed's stream of a chunk, and one `_first_claims` call gives the
    first claims of all its seeds, with radii shaped (centers, seeds).  Only
    the partitions are built per seed, and each is yielded before the next
    is built.  A seed outside [0, 2**64) raises ValueError.
    """
    params = DecompositionParams.from_net(net, net.delta)
    seeds = list(seeds)
    for start in range(0, len(seeds), CHUNK):
        chunk = seeds[start : start + CHUNK]
        radii = _radii(net, params, chunk, 0, 1)
        claims = _first_claims(net.claim_prefix, net.n, radii)
        for j, seed in enumerate(chunk):
            yield _partition_from_claims(net, claims[j], radii[:, j].copy(), seed, params)


def sample_padded_decomposition(
    g: WeightedGraph, net: TreeOrderedNet, delta: float, seed: int
) -> PaddedPartition:
    """`sample_padded_decompositions` over [seed]; delta must be the net's own."""
    check_net_delta(net, delta)
    return next(sample_padded_decompositions(net, [seed]))


def replay_decomposition(
    net: TreeOrderedNet, trace: list[tuple[int, float]], seed: int = -1
) -> PaddedPartition:
    """Rebuild a partition from recorded (center, radius) pairs.  The radii
    may lie outside [delta, beta*delta]: the claim prefix is the trace's own."""
    centers = net.centers_in_order()
    by_center = dict(trace)
    radii = np.array([by_center[int(x)] for x in centers], dtype=float)
    params = DecompositionParams.from_net(net, net.delta)
    prefix = _claim_prefixes(net.center_entries(), net.n, radii, radii)
    raw = _first_claims(prefix, net.n, radii[:, None])[0]
    return _partition_from_claims(net, raw, radii, seed, params)


def _partition_from_claims(
    net: TreeOrderedNet, raw: np.ndarray, radii: np.ndarray, seed: int, params: DecompositionParams
) -> PaddedPartition:
    """The partition whose vertices go to the center ranks in raw, given
    each ordered center's radius: the centers that claim a vertex, renumbered
    0.. in rank order."""
    centers = net.centers_in_order()
    used = np.flatnonzero(np.bincount(raw, minlength=len(centers)))
    renumber = np.full(len(centers), -1, dtype=np.int64)
    renumber[used] = np.arange(len(used))
    return PaddedPartition(renumber[raw], centers[used], seed, params, radii, centers)


def sample_assignments(
    net: TreeOrderedNet, seed: int, trials: int, vertices: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """Yield (t, n) first-claiming center ranks, CHUNK trials at a time,
    for trials 0..trials-1 at the net's own delta.

    Trial t reads the t-th k words of the seed's stream, so trial 0
    reproduces sample_padded_decomposition(seed) cluster-for-cluster.  Each
    chunk draws only its own trials' radii, trials start..stop-1, with one
    `_radii` call; every chunk reads the net's `claim_prefix`.  Given
    `vertices`, strictly ascending ids in 0..n-1, only their rows of the
    prefix are read and each block is (t, len(vertices)), equal to the full
    block's [:, vertices]; an unclaimed vertex is still named by its own id.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    params = DecompositionParams.from_net(net, net.delta)
    prefix, n = net.claim_prefix, net.n
    if vertices is not None:
        vertices = np.asarray(vertices)
        if vertices.shape == (0,):
            vertices = vertices.astype(np.intp)  # [] reads as floats
        if not (
            vertices.ndim == 1
            and np.issubdtype(vertices.dtype, np.integer)
            and (np.diff(vertices) > 0).all()
            and ((vertices >= 0) & (vertices < n)).all()
        ):
            raise ValueError(f"vertices must be strictly ascending ids in 0..{n - 1}")
        # the prefix rows of those vertices, renumbered 0..len(vertices)-1;
        # a vertex keeps all of its run, so each entry keeps its slot group
        row = np.full(n, -1, dtype=np.intp)
        row[vertices] = np.arange(vertices.size)
        at = row[prefix[0]]
        keep = at >= 0
        kept = (at[keep], *(a[keep] for a in prefix[1:5]))
        prefix, n = (*kept, _slot_bounds(kept[3])), vertices.size
    for start in range(0, trials, CHUNK):
        radii = _radii(net, params, seed, start, min(start + CHUNK, trials))
        yield _first_claims(prefix, n, radii, vertices)


_WILSON_Z99 = 2.3263478740408408  # one-sided 99% normal quantile


def wilson_lower_bound(successes: int, trials: int, z: float = _WILSON_Z99) -> float:
    """Wilson score lower confidence bound for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = p + z * z / (2 * trials)
    rad = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, (center - rad) / denom)


def _ball_profiles(z: np.ndarray, pair_of: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """One ball's pairs grouped by profile, for `padded_trial_counts`.

    The pairs are (z, class pair pair_of), sorted by z in 0..n-1 with each
    z's class pairs ascending, and z's profile is its set of class pairs
    (its own class and the classes in its ball).  Returns (zs, profile,
    pairs, starts): the vertices with pairs, each one's profile id, and
    each profile's class pairs, run after run, with the start of each run
    for reduceat.  Row i of `runs` is zs[i]'s class pairs padded with -1,
    which no class pair reads, so equal rows are equal profiles.
    """
    zs, at = np.unique(z, return_inverse=True)
    slot = np.arange(z.size) - _run_starts(z, n)
    runs = np.full((zs.size, int(slot.max()) + 1), -1, dtype=np.intp)
    runs[at, slot] = pair_of
    profile, first = _row_classes(runs)
    profiles = runs[first]
    used = profiles >= 0
    size = used.sum(axis=1)
    return zs, profile, profiles[used], np.cumsum(size) - size


def padded_trial_counts(
    g: WeightedGraph,
    net: TreeOrderedNet,
    delta: float,
    gammas: list[float],
    trials: int,
    seed: int,
    dist_matrix: np.ndarray | None = None,
) -> dict[float, np.ndarray]:
    """Per-vertex counts of trials whose gamma-ball stayed in one cluster.

    Vertex z is padded in a trial when every u with d(z, u) <= gamma *
    (alpha+1) * delta shares z's cluster.  A `_claim_classes` class lands in
    one cluster in every trial, so one pair (z, c) is listed per class c
    other than z's own within r_max = max(gammas) * (alpha+1) * delta, at
    the distance from z to c's nearest member: by `ball_pairs`, or from the
    per-class minima of the all-pairs `dist_matrix` a caller supplies.  Each
    gamma's ball nests in r_max's and selects its pairs from that list.

    A pair's cut reads only the labels of its two classes, so z's count
    depends only on its ball profile: its own class and the classes in its
    gamma-ball.  Before the trials, each gamma gets a plan: the vertices
    with pairs, each one's profile, and each distinct profile's (own class,
    near class) pairs.  Memory, besides the pair list and the plans (one
    (vertices with pairs) x (most pairs of one vertex) table per gamma to
    find the profiles): per chunk of t trials, the sampler's (classes, t)
    labels of the classes' first members, in the smallest integer type that
    holds the center count, one (class pairs) x t bool tensor of cut class
    pairs, and for each gamma a (profile pairs) x t gather of it, reduced
    to one row per profile.  The counts are scattered from the profiles to
    their vertices once, after the last chunk.  No n x n matrix is
    allocated unless the caller passes one in.
    """
    params = DecompositionParams.from_net(net, delta)
    gammas = [float(gm) for gm in gammas]
    if not gammas:
        raise ValueError("gammas must be non-empty")
    for gm in gammas:
        if not 0 <= gm <= params.gamma_max:
            raise ValueError(f"gamma must lie in [0, {params.gamma_max}], got {gm}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    r_max = max(gammas) * params.diameter_bound
    cls = _claim_classes(net)
    if dist_matrix is None:
        rows, near, pair_d = ball_pairs(g, cls, r_max)
    else:  # row z's minimum over each class's columns, in row blocks of at most 2**13 entries
        by_class = np.argsort(cls, kind="stable")
        starts = np.searchsorted(cls[by_class], np.arange(cls.max() + 1))
        nearest = np.empty((g.n, starts.size))
        step = max(1, 8192 // g.n)
        for a in range(0, g.n, step):
            block = dist_matrix[a : a + step][:, by_class]
            nearest[a : a + step] = np.minimum.reduceat(block, starts, axis=1)
        rows, near = np.nonzero(nearest <= r_max)
        pair_d = nearest[rows, near]
    # z's own class is never cut from z.  Members of a class share a label
    # in every trial, so the sampler labels only each class's first member:
    # column col[c] of its blocks is class c's
    other = cls[rows] != near
    rows, near, pair_d = rows[other], near[other], pair_d[other]
    first = np.unique(cls, return_index=True)[1]
    vertices = np.sort(first)
    col = np.searchsorted(vertices, first)
    # class pair p compares columns own[p] and cols[p]; pair_of holds each
    # listed pair's p, ascending along each z's run (own class, then near)
    n_cls = len(first)
    class_pairs, pair_of = np.unique(cls[rows] * n_cls + near, return_inverse=True)
    own, cols = col[class_pairs // n_cls], col[class_pairs % n_cls]
    plans = {}
    for gm in gammas:
        sel = np.flatnonzero(pair_d <= gm * params.diameter_bound)
        if sel.size:
            plans[gm] = _ball_profiles(rows[sel], pair_of[sel], g.n)
    counts = {gm: np.full(g.n, trials, dtype=np.int64) for gm in gammas}
    # with no pair listed nothing reads the labels, and with an entry within
    # delta at every vertex no trial leaves one unclaimed: skip the sampler
    vertex, _, dist = net.center_entries()
    if not plans and np.bincount(vertex[dist <= net.delta], minlength=net.n).all():
        return counts
    cut = {gm: np.zeros(len(plan[3]), dtype=np.int64) for gm, plan in plans.items()}
    label_dtype = np.min_scalar_type(len(net.centers_in_order()))
    for block in sample_assignments(net, seed, trials, vertices=vertices):
        lab = block.T.astype(label_dtype)  # (classes, t), C-contiguous
        # a class pair is cut when its two classes land in different clusters
        diff = lab[cols] != lab[own]
        for gm, (_, _, pairs, starts) in plans.items():
            cut[gm] += np.logical_or.reduceat(diff[pairs], starts, axis=0).sum(axis=1)
    for gm, (zs, profile, _, _) in plans.items():
        counts[gm][zs] -= cut[gm][profile]
    return counts


@dataclass(frozen=True)
class PaddingEstimate:
    """One gamma's fewest padded trials over all vertices, a vertex with that
    count, the Wilson 99% lower bound of its rate, and the target
    exp(-padding_beta * gamma)."""

    gamma: float
    worst: int
    worst_vertex: int
    lcb: float
    target: float


def padding_estimates(
    counts: dict[float, np.ndarray],
    params: DecompositionParams,
    trials: int,
    gammas: list[float],
) -> list[PaddingEstimate]:
    """Summarise `padded_trial_counts` output: one estimate per gamma, in the
    order of `gammas`, repeats included."""
    out = []
    for gm in gammas:
        c = counts[float(gm)]
        worst, target = int(c.min()), math.exp(-params.padding_beta * gm)
        out.append(
            PaddingEstimate(gm, worst, int(c.argmin()), wilson_lower_bound(worst, trials), target)
        )
    return out
