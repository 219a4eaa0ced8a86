"""Downstream clustering of stable-ball centers."""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import GranularBall, ball_centers, squared_distances
from .errors import ConfigurationError
from .models import BLOCK_CELLS

BACKENDS = ("ac", "kmeanspp")
KMEANS_RESTARTS = 10     # seeded k-means++ attempts per seed; the lowest SSE wins
KMEANS_MAX_ITER = 300    # Lloyd iterations per attempt


@dataclass(frozen=True, eq=False)
class BallClustering:
    """Cluster ids for the stable balls, one label per ball, all in [0, K)."""

    ball_labels: np.ndarray


def agglomerative_ward(centers: np.ndarray, K: int) -> np.ndarray:
    """Bottom-up Ward merging of center vectors down to K clusters.

    Each merge minimizes the within-cluster SSE increase
    |A||B|/(|A|+|B|) * ||mu_A - mu_B||^2, priced by direct differences; ties
    go to the lexicographically smallest pair of lowest member indices. Every
    center counts as one point, whatever the size of its ball. Final labels
    are numbered by each cluster's lowest member index.

    Each live row caches its cheapest pair with a higher live row (the generic
    nearest-neighbour-list algorithm, Müllner 2011, arXiv:1109.2378), so a
    merge rescans only the rows it invalidates: O(k²) work in practice.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    k = centers.shape[0]
    if K < 1 or k < K:
        raise ConfigurationError(f"cannot form {K} clusters from {k} centers")

    # A merge keeps the lower row, so a live cluster's row is its lowest member
    # and the row-major first minimum of the upper triangle is the tie rule.
    means = centers.copy()
    counts = np.ones(k)
    owner = np.arange(k)                     # row of the cluster holding each center
    alive = np.ones(k, dtype=bool)
    nn_cost = np.full(k, np.inf)             # cheapest cost from each live row to a higher one
    nn_col = np.zeros(k, dtype=np.int64)     # its first column

    def cost(r: int, cols: np.ndarray) -> np.ndarray:
        # symmetric in (r, c) bit for bit, so a pair costs the same from either side
        factor = counts[r] * counts[cols] / (counts[r] + counts[cols])
        return factor * squared_distances(means[cols].T, means[r, :, None])

    def rescan(r: int) -> None:
        cols = r + 1 + np.flatnonzero(alive[r + 1:])
        if cols.size == 0:
            nn_cost[r] = np.inf
            return
        row = cost(r, cols)
        j = int(np.argmin(row))
        nn_cost[r], nn_col[r] = row[j], cols[j]

    for r in range(k):
        rescan(r)
    for _ in range(k - K):
        a = int(np.argmin(nn_cost))          # first row holding the global minimum
        b = int(nn_col[a])
        total = counts[a] + counts[b]
        means[a] = (counts[a] * means[a] + counts[b] * means[b]) / total
        counts[a] = total
        owner[owner == b] = a
        alive[b] = False
        nn_cost[b] = np.inf

        for r in np.flatnonzero(alive & ((nn_col == a) | (nn_col == b))):
            rescan(int(r))                   # includes row a, whose cache pointed at b
        # exact arithmetic never needs this, but a rounded merged mean can undercut lower caches
        lower = np.flatnonzero(alive[:a])
        to_a = cost(a, lower)
        better = (to_a < nn_cost[lower]) | ((to_a == nn_cost[lower]) & (a < nn_col[lower]))
        nn_cost[lower[better]] = to_a[better]
        nn_col[lower[better]] = a

    return np.unique(owner, return_inverse=True)[1]


def kmeanspp(centers: np.ndarray, K: int, seeds: Sequence[int]) -> np.ndarray:
    """K-means with D^2 seeding and Lloyd iterations on the center vectors, once per seed.

    Returns one labelling per seed, shape (len(seeds), n). Seed s draws one
    (``KMEANS_RESTARTS``, K) array of uniforms from ``default_rng(s % 2**63)``, and
    restart r seeds its centres from row r. Each seed keeps its restarts' lowest
    within-cluster SSE (ties and an all-inf seed: lowest restart), one ``argmin``.
    The seeds run in order, in lockstep groups of ``BLOCK_CELLS // (R·K·n)`` whole
    seeds (at least one), R = ``KMEANS_RESTARTS``, and a group draws its uniforms
    when it runs. Nothing but the labels outlives a group. Its (restarts, K, n)
    buffers hold at most max(``BLOCK_CELLS``, R·K·n) cells, and its (d, restarts, n)
    ones d/K times that, so memory grows with the seeds only by their labellings.
    Every restart has its own row of uniforms and its own label history, so a seed's
    labels equal those of a call on that seed alone.
    """
    points = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    n = len(points)
    if K < 1 or n < K:
        raise ConfigurationError(f"cannot form {K} clusters from {n} centers")
    R = KMEANS_RESTARTS
    cols = np.ascontiguousarray(points.T)
    labels = np.empty((len(seeds), n), dtype=np.int64)
    step = max(1, BLOCK_CELLS // (R * K * n))
    for start in range(0, len(seeds), step):
        u = np.concatenate([np.random.default_rng(operator.index(seed) % 2 ** 63).random((R, K))
                            for seed in seeds[start:start + step]])
        group_labels, sse = _restarts(cols, K, u)
        best = sse.reshape(-1, R).argmin(axis=1)
        labels[start:start + len(best)] = group_labels[R * np.arange(len(best)) + best]
    return labels


def _restarts(cols: np.ndarray, K: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep k-means++ restarts, one per row of uniforms ``u``: their labels and final SSEs.

    ``kmeanspp`` passes one group of whole seeds, ``KMEANS_RESTARTS`` rows each, and
    the (rows, K, n) Lloyd buffers live only for this call. Restart r's first centre
    is ⌊u[r, 0]·n⌋. Its centre j > 0 is the number of entries of its cumulative D^2,
    divided by its last entry, that are at most u[r, j]; that is the first point past
    u[r, j], which has D^2 > 0. When every D^2 is 0 the centre is ⌊u[r, j]·n⌋. An
    empty cluster steals the point farthest from its centroid among clusters that keep
    a member. A restart stops when its labels repeat any earlier labels of its own (a
    fixed point or a cycle, such as the repair moving a point to and fro between
    coinciding centroids), or after ``KMEANS_MAX_ITER`` steps.
    """
    d, n = cols.shape
    R = len(u)
    chosen = (u * n).astype(np.intp)        # the centres of a zero D^2 total stay here
    d2 = np.full((R, n), np.inf)
    for j in range(1, K):
        d2 = np.minimum(d2, squared_distances(cols[:, None], cols[:, chosen[:, j - 1], None]))
        cdf = np.cumsum(d2, axis=1)
        drawn = cdf[:, -1] > 0
        chosen[drawn, j] = (cdf[drawn] / cdf[drawn, -1:] <= u[drawn, j, None]).sum(axis=1)

    # Lloyd on the live restarts, with feature-major (d, R, K) centroids. One feature at a
    # time into two reused buffers sums in index order without squared_distances' (d, A, K, n)
    # difference, which would break the memory bound; bincount adds each cluster's rows in
    # ascending order. A stopped restart keeps its last accepted labels and centroids.
    centroids = cols[:, chosen]
    labels = np.empty((R, n), dtype=np.intp)
    dist_buf, scratch = np.empty(R * K * n), np.empty(R * K * n)
    offsets = np.arange(R)[:, None] * K
    rank = (K - np.arange(K, dtype=np.min_scalar_type(K)))[:, None]
    seen: set[tuple[int, bytes]] = set()                 # (restart, labels) states
    live = np.arange(R)
    for _ in range(KMEANS_MAX_ITER):
        A = live.size
        dist, tmp = (buf[:A * K * n].reshape(A, K, n) for buf in (dist_buf, scratch))
        live_t = centroids[:, live, :, None]                       # (d, A, K, 1)
        np.square(np.subtract(cols[0], live_t[0], out=dist), out=dist)
        for f in range(1, d):
            dist += np.square(np.subtract(cols[f], live_t[f], out=tmp), out=tmp)
        # the first centroid at the exact minimum is the tie rule: it holds the
        # highest rank, so K minus that rank is argmin's label, in rank's dtype
        nearest = dist.min(axis=1)
        new = K - ((dist == nearest[:, None]) * rank).max(axis=1)

        counts = np.bincount((new + offsets[:A]).ravel(), minlength=A * K).reshape(A, K)
        for a in np.flatnonzero((counts == 0).any(axis=1)):
            lab, count = new[a], counts[a]
            own = nearest[a]
            for c in np.flatnonzero(count == 0):
                # steal only from a cluster that keeps a member
                p = int(np.argmax(np.where(count[lab] > 1, own, -1.0)))
                count[lab[p]] -= 1
                count[c] = 1
                lab[p] = c

        # the next labels are a function of these alone, so a repeated state
        # is a fixed point or a cycle
        states = list(zip(live.tolist(), map(bytes, new)))
        keep = np.array([state not in seen for state in states])
        seen.update(states)
        live, new, counts = live[keep], new[keep], counts[keep]
        if not live.size:
            break
        labels[live] = new
        # bin (feature, restart, cluster); feature f's weights are row f of cols
        bins = (new + offsets[:live.size]) + (np.arange(d) * counts.size)[:, None, None]
        sums = np.bincount(bins.ravel(), weights=np.repeat(cols, live.size, axis=0).ravel(),
                           minlength=d * counts.size)
        centroids[:, live] = sums.reshape(d, -1, K) / counts

    residual = np.moveaxis(centroids, 0, 2)[np.arange(R)[:, None], labels]
    residual -= cols.T               # its square equals that of points - centroid
    return labels, np.square(residual, out=residual).reshape(R, n * d).sum(axis=1)


def reads_seed(stable_balls: list[GranularBall], K: int, backend: str) -> bool:
    """Whether ``cluster_or_passthrough``'s labels can depend on its seed.

    Only k-means++ draws, and only when the balls outnumber K so that it runs
    at all: Ward and the passthrough give every seed the same labels.
    """
    return backend == "kmeanspp" and len(stable_balls) > K


def cluster_or_passthrough(stable_balls: list[GranularBall], K: int, backend: str,
                           seed: int = 0, ball_labels: np.ndarray | None = None) -> BallClustering:
    """Cluster ball centers into K clusters, or pass balls through directly.

    When the ball count does not exceed K each ball is its own cluster and no
    backend runs at all. Otherwise the centers go to the chosen backend, k-means++
    as a one-seed ``kmeanspp`` call. A caller that already has the labelling, such
    as one row of a many-seed ``kmeanspp`` call, passes it as ``ball_labels``: it
    must hold one integer label in [0, K) per ball, and it is wrapped as it is,
    with neither the passthrough nor a backend run.
    """
    count = len(stable_balls)
    if count < 1:
        raise ConfigurationError("need at least one stable ball")
    if K < 1:
        raise ConfigurationError("K must be at least 1")
    if backend not in BACKENDS:
        raise ConfigurationError(f"unknown backend {backend!r}; expected one of {BACKENDS}")

    if ball_labels is not None:
        labels = np.asarray(ball_labels)
        if (labels.shape != (count,) or labels.dtype.kind not in "iu"
                or labels.min() < 0 or labels.max() >= K):
            raise ConfigurationError(f"ball_labels must hold one integer in [0, {K}) per ball")
        return BallClustering(ball_labels=labels)
    if count <= K:
        return BallClustering(ball_labels=np.arange(count, dtype=np.int64))

    centers = ball_centers(stable_balls)
    if backend == "ac":
        labels = agglomerative_ward(centers, K)
    else:
        labels = kmeanspp(centers, K, [seed])[0]
    return BallClustering(ball_labels=labels)
