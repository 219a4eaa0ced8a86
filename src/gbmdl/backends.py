"""Downstream clustering of stable-ball centers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GranularBall
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


def _lloyd_once(points: np.ndarray, K: int,
                rng: np.random.Generator) -> tuple[np.ndarray, float]:
    n, d = points.shape

    # D^2 seeding
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, K):
        total = d2.sum()
        if total > 0:
            nxt = int(rng.choice(n, p=d2 / total))
        else:
            nxt = int(rng.integers(n))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((points - points[nxt]) ** 2).sum(axis=1))
    centroids = points[chosen]

    # Reducing over the leading feature axis sums the features in index order
    # (numpy sums a trailing axis pairwise from 8 terms on), and bincount adds
    # each cluster's rows in ascending row order.
    cols = np.ascontiguousarray(points.T)
    feature = np.arange(d)
    seen = set()
    for _ in range(KMEANS_MAX_ITER):
        dist2 = ((cols[:, :, None] - centroids.T[:, None, :]) ** 2).sum(axis=0)
        new_labels = np.argmin(dist2, axis=1)

        counts = np.bincount(new_labels, minlength=K)
        if (counts == 0).any():
            own = dist2[np.arange(n), new_labels]
            for c in np.flatnonzero(counts == 0):
                # steal only from a cluster that keeps a member
                p = int(np.argmax(np.where(counts[new_labels] > 1, own, -1.0)))
                counts[new_labels[p]] -= 1
                counts[c] = 1
                new_labels[p] = c

        # the next labels are a function of these alone, so a repeated state
        # is a fixed point or a cycle
        state = new_labels.tobytes()
        if state in seen:
            break
        seen.add(state)
        labels = new_labels
        sums = np.bincount((labels[:, None] * d + feature).ravel(), weights=points.ravel(),
                           minlength=K * d)
        centroids = sums.reshape(K, d) / counts[:, None]

    sse = float(((points - centroids[labels]) ** 2).sum())
    return labels, sse


def kmeanspp(centers: np.ndarray, K: int, seed: int) -> np.ndarray:
    """K-means with D^2 seeding and Lloyd iterations on the center vectors.

    Runs ``KMEANS_RESTARTS`` independent seeded attempts and keeps the lowest
    within-cluster SSE (ties: lowest restart index). Empty clusters are
    repaired by stealing the point farthest from its assigned centroid among
    clusters that keep a member. Lloyd's assignment step sums squared
    distances over features in index order (D^2 seeding takes numpy's row sum,
    unrolled from 8 features on), and each centroid is the sequential sum of
    its rows divided by its count. Lloyd stops when the new labels equal any
    earlier label state of the restart (a fixed point or a cycle, such as the
    repair moving a point to and fro between coinciding centroids), or after
    ``KMEANS_MAX_ITER`` steps. Same seed, same labels.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if K < 1 or centers.shape[0] < K:
        raise ConfigurationError(f"cannot form {K} clusters from {centers.shape[0]} centers")

    seeds = (np.random.SeedSequence([seed % 2 ** 63, r]) for r in range(KMEANS_RESTARTS))
    runs = (_lloyd_once(centers, K, np.random.default_rng(s)) for s in seeds)
    return min(runs, key=lambda run: run[1])[0]   # min keeps the first of equal SSEs


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
