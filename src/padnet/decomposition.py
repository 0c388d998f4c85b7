"""Randomized padded decomposition sampled from a tree-ordered net.

Centers are processed root-to-leaf; each draws a radius delta_i * Delta with
delta_i from a truncated exponential on [1, beta], beta = (alpha+1)/2, and
claims the not-yet-claimed part of its radius ball inside the subgraph
induced by its descendants.  The rate lambda = 4/(alpha-1) * ln(2 tau) uses
the measured packing value tau, which is what the padding guarantee
exp(-16 (alpha+1)/(alpha-1) ln(2 tau) * gamma) actually depends on.

Randomness: one counter-based Philox4x64-10 stream per center, keyed by
(seed, center id), as numpy's Philox generator draws it.  A single sample
reads draw 0 of each stream; trial t of a batch reads draw t, so trials are
independent, reproducible, and chunkable.  Draw t of a stream is a pure
function of (seed, center, t), so `center_uniforms` evaluates the draws of
every center, and of several seeds, at once in numpy, bit for bit equal to
per-center generators: one call per chunk of trials of a batch, and one per
chunk of seeds of a sweep of partitions (a single sample is a sweep of one).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graph import WeightedGraph, ball_pairs
from .ordered_net import TreeOrderedNet, check_net_delta


@dataclass(frozen=True)
class TruncatedExp:
    """Exponential distribution with rate lam conditioned on [theta1, theta2]."""

    theta1: float
    theta2: float
    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        if self.theta1 >= self.theta2:
            raise ValueError(f"need theta1 < theta2, got [{self.theta1}, {self.theta2}]")

    @property
    def shifted(self) -> bool:
        """Whether exp(-lam * theta1) underflows (is subnormal or 0).

        The plain forms divide by exp(-lam*theta1) - exp(-lam*theta2), which
        is then inexact or 0 (lam ~ 921 at alpha = 1.01, tau = 5).  They are
        kept wherever it is normal, so every draw there keeps its bits;
        otherwise the forms shifted by theta1 divide by
        -expm1(-lam*(theta2-theta1)) instead.
        """
        return math.exp(-self.lam * self.theta1) < sys.float_info.min

    def density(self, y):
        y = np.asarray(y, dtype=float)
        if self.shifted:
            val = self.lam * np.exp(-self.lam * (y - self.theta1)) / self.shifted_mass()
        else:
            lo, hi = math.exp(-self.lam * self.theta1), math.exp(-self.lam * self.theta2)
            val = self.lam * np.exp(-self.lam * y) / (lo - hi)
        return np.where((y >= self.theta1) & (y <= self.theta2), val, 0.0)

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        inside = np.clip(y, self.theta1, self.theta2)
        if self.shifted:
            out = -np.expm1(-self.lam * (inside - self.theta1)) / self.shifted_mass()
        else:
            lo, hi = math.exp(-self.lam * self.theta1), math.exp(-self.lam * self.theta2)
            out = (lo - np.exp(-self.lam * inside)) / (lo - hi)
        return np.where(y < self.theta1, 0.0, np.where(y > self.theta2, 1.0, out))

    def shifted_mass(self) -> float:
        """1 - exp(-lam*(theta2-theta1)): the mass on [theta1, theta2] over exp(-lam*theta1)."""
        return -math.expm1(-self.lam * (self.theta2 - self.theta1))


def sample_truncated_exp(dist: TruncatedExp, u) -> np.ndarray | float:
    """Inverse-CDF transform; u=0 and u=1 hit the interval endpoints exactly."""
    scalar = np.isscalar(u)
    u = np.asarray(u, dtype=float)
    if ((u < 0) | (u > 1)).any():
        raise ValueError("uniform draw outside [0, 1]")
    if dist.shifted:
        y = dist.theta1 - np.log1p(-u * dist.shifted_mass()) / dist.lam
    else:
        lo, hi = math.exp(-dist.lam * dist.theta1), math.exp(-dist.lam * dist.theta2)
        with np.errstate(divide="ignore"):
            y = -np.log(lo - u * (lo - hi)) / dist.lam
    y = np.clip(y, dist.theta1, dist.theta2)
    y = np.where(u == 0.0, dist.theta1, np.where(u == 1.0, dist.theta2, y))
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


@dataclass
class PaddedPartition:
    """One sampled partition plus the trace needed to replay it exactly."""

    clusters: tuple[PaddedCluster, ...]
    assignment: np.ndarray
    seed: int
    params: DecompositionParams
    trace: tuple[tuple[int, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "params": self.params.to_json_dict(),
            "clusters": [
                {
                    "center": c.center,
                    "radius": c.radius,
                    "members": sorted(c.members),
                }
                for c in self.clusters
            ],
            "assignment": {str(v): int(self.assignment[v]) for v in range(len(self.assignment))},
            "trace": [{"center": c, "radius": r} for c, r in self.trace],
        }


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def seeded_generator(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream); seed must fit 64 bits."""
    _check_seed(seed)
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


# Philox4x64-10 multipliers and Weyl key bumps (Salmon et al., SC 2011;
# numpy's philox.h), one per word pair (x0, x2) of a counter block
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64).reshape(2, 1, 1)


def center_uniforms(seed, streams, start: int, stop: int) -> np.ndarray:
    """Draws start..stop-1 of every stream keyed by (seed, stream), as (streams, draws).

    Row i equals seeded_generator(seed, streams[i]).random(stop)[start:] bit for
    bit.  seed may also be a sequence of seeds, which vary the key's seed
    word per column: the result is then
    np.hstack([center_uniforms(s, streams, start, stop) for s in seed]), the
    columns of one seed after those of the seed before it.  Philox is
    counter-based: the generator's counter block c (c = 1, 2, ...) yields its
    uint64 draws 4(c-1)..4(c-1)+3, so the blocks covering start..stop-1 are
    evaluated for all seeds and streams at once in uint64 numpy, and each
    draw becomes (x >> 11) * 2**-53 as in Generator.random.
    """
    seeds = [seed] if np.isscalar(seed) else list(seed)
    for s in seeds:
        _check_seed(s)
    if not 0 <= start <= stop:
        raise ValueError(f"need 0 <= start <= stop, got {start}, {stop}")
    streams = np.asarray(streams, dtype=np.uint64).reshape(-1)
    first, last = start // 4, -(-stop // 4)  # counter blocks first+1 .. last
    # words (x0, x2) and (x1, x3) of each block as (2, streams, seeds x
    # blocks); the constants are spelled out at that shape, as numpy's
    # uint64 operations on equal shapes cost least per call
    blocks = last - first
    shape = (2, len(streams), len(seeds) * blocks)
    even = np.zeros(shape, dtype=np.uint64)
    even[0] = np.tile(np.arange(first + 1, last + 1, dtype=np.uint64), len(seeds))
    odd = np.zeros(shape, dtype=np.uint64)
    key = np.empty(shape, dtype=np.uint64)
    key[0] = np.repeat(np.array(seeds, dtype=np.uint64), blocks)
    key[1] = streams[:, None]
    bump = np.broadcast_to(_PHILOX_W, shape).copy()
    m = np.broadcast_to(_PHILOX_M, shape).copy()
    low32, s32 = np.full(shape, 0xFFFFFFFF, dtype=np.uint64), np.full(shape, 32, dtype=np.uint64)
    m_lo, m_hi = m & low32, m >> s32
    for r in range(10):
        if r:
            key += bump  # wraps mod 2**64
        # the 128-bit product m * even from 32-bit halves; no partial sum wraps
        x_lo, x_hi = even & low32, even >> s32
        t = m_hi * x_lo + ((m_lo * x_lo) >> s32)
        u = m_lo * x_hi + (t & low32)
        hi = m_hi * x_hi + (t >> s32) + (u >> s32)
        # x0, x1, x2, x3 <- hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        even, odd = hi[::-1] ^ odd ^ key, (m * even)[::-1]
    words = np.stack([even[0], odd[0], even[1], odd[1]], axis=-1)
    words = words.reshape(len(streams), len(seeds), 4 * blocks)
    words = words[:, :, start - 4 * first : stop - 4 * first]
    words = words.reshape(len(streams), len(seeds) * (stop - start))
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _run_starts(vertex: np.ndarray, n: int) -> np.ndarray:
    """For entries sorted by vertex in 0..n-1, the index of the first entry
    of each entry's vertex."""
    count = np.bincount(vertex, minlength=n)
    return (np.cumsum(count) - count)[vertex]


def _claim_prefixes(
    entries: tuple[np.ndarray, ...], n: int, reach: np.ndarray, sure_reach: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The entries that can be a vertex's first claim, as (vertex, rank,
    dist, slot, sure), given each center's largest radius `reach` and
    smallest radius `sure_reach` (both indexed by rank).

    An entry beyond its center's largest radius never claims, and one within
    its center's smallest radius (a sure entry) always claims, so no entry
    after a vertex's first sure entry can be first.  `slot` numbers each
    vertex's entries left from 0, in rank order.
    """
    vertex, rank, dist = entries
    keep = dist <= reach[rank]
    vertex, rank, dist = vertex[keep], rank[keep], dist[keep]
    sure = dist <= sure_reach[rank]
    sure_before = np.cumsum(sure) - sure  # sure entries before each entry
    keep = sure_before == sure_before[_run_starts(vertex, n)]  # none earlier in its run
    vertex, rank, dist, sure = vertex[keep], rank[keep], dist[keep], sure[keep]
    return vertex, rank, dist, np.arange(vertex.size) - _run_starts(vertex, n), sure


def _first_claims(entries: tuple[np.ndarray, ...], n: int, radii: np.ndarray) -> np.ndarray:
    """First claiming center of every vertex in every trial, as (t, n) ranks.

    entries is the net's sparse center table (`center_entries()`: vertex,
    rank, dist, sorted by vertex then rank) over n vertices, and radii holds
    each ordered center's radius in each of t trials, shaped (k, t).  A
    center claims the vertices of its entries within its radius, and a vertex
    goes to the lowest rank that claims it.  Raises when some vertex is
    claimed by no center in some trial, naming the first such vertex.

    `_claim_prefixes` keeps the work near one entry per vertex, and exact
    for any radii.  The sampler's radii are >= delta, within which the net
    covers every vertex, so every vertex keeps a sure entry.  The entries
    left, L at most per vertex (no more than its packing count at the
    largest radius), are laid out as (n, L) slots and tested against all t
    radii at once.
    """
    vertex, rank, dist, slot, _ = _claim_prefixes(
        entries, n, radii.max(axis=1), radii.min(axis=1)
    )
    width = int(slot.max()) + 1 if slot.size else 1
    slot_rank = np.zeros((n, width), dtype=np.intp)
    slot_rank[vertex, slot] = rank
    claimed = np.zeros((n, width, radii.shape[1]), dtype=bool)
    claimed[vertex, slot] = dist[:, None] <= radii[rank]
    covered = claimed.any(axis=1)  # (n, t)
    if not covered.all():
        v = int(np.flatnonzero(~covered.all(axis=1))[0])
        raise AssertionError(f"vertex {v} claimed by no center; covering violated")
    return np.take_along_axis(slot_rank, claimed.argmax(axis=1), axis=1).T


def _claim_classes(net: TreeOrderedNet) -> np.ndarray:
    """A class id per vertex: vertices of one class get the same first claim
    in every trial of the sampler, whatever radii it draws.

    Every sampled radius is y * delta with 1 <= y <= beta, so each vertex's
    possible first claims are its `_claim_prefixes` at reach beta * delta and
    sure reach delta, and the sure entry's distance does not matter.  Two
    vertices with equal (rank, dist) prefixes, the sure distance replaced by
    a sentinel, are claimed alike.  Only the sampler's own inputs are read,
    and nothing is assumed of the net's covering: a vertex with no sure entry
    shares a class only with vertices of the same prefix, which then go
    unclaimed together.
    """
    params = DecompositionParams.from_net(net, net.delta)
    k = len(net.centers_in_order())
    vertex, rank, dist, slot, sure = _claim_prefixes(
        net.center_entries(),
        net.n,
        np.full(k, params.beta_internal * net.delta),
        np.full(k, net.delta),
    )
    width = int(slot.max()) + 1 if slot.size else 1
    # (rank, dist bits) per slot; -1 marks an empty slot's rank and a sure
    # entry's distance, and no rank or non-negative float's bits read -1
    prefix = np.full((net.n, 2 * width), -1, dtype=np.int64)
    prefix[vertex, 2 * slot] = rank
    prefix[vertex, 2 * slot + 1] = np.where(sure, -1, dist.view(np.int64))
    return np.unique(prefix, axis=0, return_inverse=True)[1].reshape(-1)


CHUNK = 256  # trials per block of sample_assignments, seeds per block of sampled partitions


def sample_padded_decompositions(
    net: TreeOrderedNet, delta: float, seeds
) -> Iterator[PaddedPartition]:
    """Yield the partition of each seed in `seeds`, in order, one at a time.

    Seeds are taken CHUNK at a time: one center_uniforms call draws every
    (seed, center) uniform of a chunk, and one `_first_claims` call gives
    the first claims of all its seeds, with radii shaped (centers, seeds).
    Only the partitions are built per seed, and each is yielded before the
    next is built.  A seed outside [0, 2**64) raises ValueError.
    """
    params = DecompositionParams.from_net(net, delta)
    texp = TruncatedExp(1.0, params.beta_internal, params.lam)
    centers = net.centers_in_order()
    entries = net.center_entries()
    seeds = list(seeds)
    for start in range(0, len(seeds), CHUNK):
        chunk = seeds[start : start + CHUNK]
        radii = sample_truncated_exp(texp, center_uniforms(chunk, centers, 0, 1)) * delta
        claims = _first_claims(entries, net.n, radii)
        for j, seed in enumerate(chunk):
            yield _partition_from_claims(net, claims[j], radii[:, j], seed, params)


def sample_padded_decomposition(
    g: WeightedGraph, net: TreeOrderedNet, delta: float, seed: int
) -> PaddedPartition:
    """The partition of one seed: `sample_padded_decompositions` over [seed]."""
    return next(sample_padded_decompositions(net, delta, [seed]))


def replay_decomposition(
    net: TreeOrderedNet, trace: list[tuple[int, float]], seed: int = -1
) -> PaddedPartition:
    """Rebuild a partition from recorded (center, radius) pairs."""
    centers = net.centers_in_order()
    by_center = dict(trace)
    radii = np.array([by_center[int(x)] for x in centers], dtype=float)
    params = DecompositionParams.from_net(net, net.delta)
    raw = _first_claims(net.center_entries(), net.n, radii[:, None])[0]
    return _partition_from_claims(net, raw, radii, seed, params)


def _partition_from_claims(
    net: TreeOrderedNet,
    raw: np.ndarray,
    radii: np.ndarray,
    seed: int,
    params: DecompositionParams,
) -> PaddedPartition:
    """The partition whose vertices go to the center ranks in raw, given
    each ordered center's radius."""
    centers = net.centers_in_order()
    # members of center i: one stable sort of the vertices by claiming center
    sizes = np.bincount(raw, minlength=len(centers))
    used = np.flatnonzero(sizes)
    ends = np.cumsum(sizes[used])
    by_center = np.argsort(raw, kind="stable").tolist()
    center_ids, radius_list = centers.tolist(), radii.tolist()
    clusters = tuple(
        PaddedCluster(center_ids[i], radius_list[i], frozenset(by_center[start:end]))
        for i, start, end in zip(used.tolist(), (ends - sizes[used]).tolist(), ends.tolist())
    )
    renumber = np.full(len(centers), -1, dtype=np.int64)
    renumber[used] = np.arange(len(used))
    assignment = renumber[raw]
    trace = tuple(zip(center_ids, radius_list))
    return PaddedPartition(
        clusters=clusters,
        assignment=assignment,
        seed=seed,
        params=params,
        trace=trace,
    )


def sample_assignments(net: TreeOrderedNet, seed: int, trials: int) -> Iterator[np.ndarray]:
    """Yield (t, n) first-claiming center ranks, CHUNK trials at a time,
    for trials 0..trials-1 at the net's own delta.

    Trial t uses draw t of each per-center stream, so trial 0 reproduces
    sample_padded_decomposition(seed) cluster-for-cluster.  Each chunk draws
    only its own trials' uniforms, start..stop-1 of every stream, with one
    center_uniforms call.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    params = DecompositionParams.from_net(net, net.delta)
    texp = TruncatedExp(1.0, params.beta_internal, params.lam)
    centers = net.centers_in_order()
    entries = net.center_entries()
    for start in range(0, trials, CHUNK):
        u = center_uniforms(seed, centers, start, min(start + CHUNK, trials))
        yield _first_claims(entries, net.n, sample_truncated_exp(texp, u) * net.delta)


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
    Memory, besides the pair list: per chunk of t trials, the (n, t) labels
    in the smallest integer type that holds the center count, two (pairs) x
    t gathers of them, one (pairs) x t bool tensor of cut pairs, and for each
    gamma a copy of its rows of it.  No n x n matrix is allocated unless the
    caller passes one in.
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
    else:  # row z's minimum over each class's columns, with no n x n copy
        nearest = np.full((g.n, cls.max() + 1), np.inf)
        np.minimum.at(nearest.T, cls, dist_matrix.T)
        rows, near = np.nonzero(nearest <= r_max)
        pair_d = nearest[rows, near]
    # z's own class is never cut from z; each class's first member stands
    # for it, as its members share a label in every trial
    other = cls[rows] != near
    first = np.unique(cls, return_index=True)[1]
    rows, cols, pair_d = rows[other], first[near[other]], pair_d[other]
    # each gamma with pairs: its pairs, their vertices z and the start of
    # each z's segment among them, for reduceat
    segments = {}
    for gm in gammas:
        sel = np.flatnonzero(pair_d <= gm * params.diameter_bound)
        if sel.size:
            segments[gm] = (sel, *np.unique(rows[sel], return_index=True))
    cuts = {gm: np.zeros(g.n, dtype=np.int64) for gm in gammas}
    label_dtype = np.min_scalar_type(len(net.centers_in_order()))
    for block in sample_assignments(net, seed, trials):
        nt = block.T.astype(label_dtype)  # (n, t), C-contiguous
        # a pair is cut when its two ends land in different clusters
        diff = nt[cols] != nt[rows]
        for gm, (sel, z, starts) in segments.items():
            cuts[gm][z] += np.logical_or.reduceat(diff[sel], starts, axis=0).sum(axis=1)
    return {gm: trials - c for gm, c in cuts.items()}


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
