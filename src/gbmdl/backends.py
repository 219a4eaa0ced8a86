"""Downstream clustering of stable-ball centers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GranularBall, squared_distances
from .errors import ConfigurationError

BACKENDS = ("ac", "kmeanspp")
KMEANS_RESTARTS = 10     # seeded k-means++ attempts per call; the lowest SSE wins
KMEANS_MAX_ITER = 300    # Lloyd iterations per attempt


@dataclass(frozen=True)
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
        return factor * ((means[cols] - means[r]) ** 2).sum(axis=1)

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


def kmeanspp(centers: np.ndarray, K: int, seed: int) -> np.ndarray:
    """K-means with D^2 seeding and Lloyd iterations on the center vectors.

    Runs ``KMEANS_RESTARTS`` attempts side by side as arrays, restart r drawing
    from SeedSequence([seed % 2**63, r]), and keeps the lowest within-cluster
    SSE (ties: lowest restart). A D^2 draw inverts the cumulative distribution
    as ``Generator.choice(n, p=...)`` does. An empty cluster steals the point
    farthest from its centroid among clusters that keep a member. A restart
    stops when its labels repeat any earlier labels of its own (a fixed point
    or a cycle, such as the repair moving a point to and fro between coinciding
    centroids), or after ``KMEANS_MAX_ITER`` steps. Same seed, same labels.
    """
    points = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    n, d = points.shape
    if K < 1 or n < K:
        raise ConfigurationError(f"cannot form {K} clusters from {n} centers")
    R = KMEANS_RESTARTS
    rngs = [np.random.default_rng(np.random.SeedSequence([seed % 2 ** 63, r])) for r in range(R)]

    # D^2 seeding sums the features in index order, as Lloyd's distance pass does
    cols = np.ascontiguousarray(points.T)
    chosen = np.empty((R, K), dtype=np.intp)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    d2 = np.full((R, n), np.inf)
    for j in range(1, K):
        d2 = np.minimum(d2, squared_distances(cols, points[chosen[:, j - 1]]))
        total = d2.sum(axis=1)
        drawn = total > 0
        cdf = np.cumsum(d2[drawn] / total[drawn, None], axis=1)
        cdf /= cdf[:, -1:]
        rows = iter(cdf)
        chosen[:, j] = [next(rows).searchsorted(rng.random(), side="right") if draw
                        else rng.integers(n) for rng, draw in zip(rngs, drawn)]

    # Lloyd on the live restarts, with feature-major (d, R, K) centroids: adding
    # one feature at a time sums the features in index order, and bincount adds
    # each cluster's rows in ascending order. A stopped restart keeps its last
    # accepted labels and centroids.
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
    residual -= points               # its square equals that of points - centroid
    sse = np.square(residual, out=residual).reshape(R, n * d).sum(axis=1)
    return labels[int(np.argmin(sse))].copy()   # argmin keeps the first of equal SSEs


def cluster_or_passthrough(stable_balls: list[GranularBall], K: int, backend: str,
                           seed: int = 0) -> BallClustering:
    """Cluster ball centers into K clusters, or pass balls through directly.

    When the ball count does not exceed K each ball is its own cluster and no
    backend runs at all. Otherwise the centers go to the chosen backend.
    """
    count = len(stable_balls)
    if count < 1:
        raise ConfigurationError("need at least one stable ball")
    if K < 1:
        raise ConfigurationError("K must be at least 1")
    if backend not in BACKENDS:
        raise ConfigurationError(f"unknown backend {backend!r}; expected one of {BACKENDS}")

    if count <= K:
        return BallClustering(ball_labels=np.arange(count, dtype=np.int64))

    centers = np.stack([b.center for b in stable_balls])
    if backend == "ac":
        labels = agglomerative_ward(centers, K)
    else:
        labels = kmeanspp(centers, K, seed)
    return BallClustering(ball_labels=labels)
