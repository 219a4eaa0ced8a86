"""Downstream clustering of stable-ball centers and label propagation to samples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GranularBall
from .errors import ConfigurationError

BACKENDS = ("ac", "kmeanspp", "none")


@dataclass(frozen=True)
class BallClustering:
    """Cluster ids for the stable balls, one label per ball, all in [0, K)."""

    ball_labels: np.ndarray
    K: int


def _pairwise_sq_dists(points: np.ndarray) -> np.ndarray:
    sq = np.einsum("ij,ij->i", points, points)
    d2 = sq[:, None] - 2.0 * (points @ points.T) + sq[None, :]
    return np.maximum(d2, 0.0)


def agglomerative_ward(centers: np.ndarray, K: int) -> np.ndarray:
    """Bottom-up Ward merging of center vectors down to K clusters.

    Each merge minimizes the within-cluster SSE increase
    |A||B|/(|A|+|B|) * ||mu_A - mu_B||^2; ties go to the lexicographically
    smallest pair of lowest member indices. Every center counts as one point,
    whatever the size of its ball. Final labels are numbered by each
    cluster's lowest member index.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    k = centers.shape[0]
    if K < 1 or k < K:
        raise ConfigurationError(f"cannot form {K} clusters from {k} centers")

    means = centers.copy()
    counts = np.ones(k)
    reps = np.arange(k)                      # lowest original index per cluster
    members: list[list[int]] = [[i] for i in range(k)]
    alive = np.ones(k, dtype=bool)
    n_clusters = k

    while n_clusters > K:
        idx = np.flatnonzero(alive)
        sub = means[idx]
        d2 = _pairwise_sq_dists(sub)
        factor = counts[idx][:, None] * counts[idx][None, :] \
            / (counts[idx][:, None] + counts[idx][None, :])
        delta = factor * d2
        iu = np.triu_indices(idx.size, k=1)
        flat = delta[iu]
        best = flat.min()
        ties = np.flatnonzero(flat == best)
        pairs = sorted(
            (min(reps[idx[iu[0][t]]], reps[idx[iu[1][t]]]),
             max(reps[idx[iu[0][t]]], reps[idx[iu[1][t]]]), t)
            for t in ties
        )
        t = pairs[0][2]
        a, b = idx[iu[0][t]], idx[iu[1][t]]

        total = counts[a] + counts[b]
        means[a] = (counts[a] * means[a] + counts[b] * means[b]) / total
        counts[a] = total
        reps[a] = min(reps[a], reps[b])
        members[a].extend(members[b])
        alive[b] = False
        n_clusters -= 1

    labels = np.empty(k, dtype=np.int64)
    final = sorted(np.flatnonzero(alive), key=lambda c: reps[c])
    for label, c in enumerate(final):
        labels[members[c]] = label
    return labels


def _lloyd_once(points: np.ndarray, K: int, rng: np.random.Generator,
                max_iter: int) -> tuple[np.ndarray, float]:
    n = points.shape[0]

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
    centroids = points[chosen].copy()

    labels = None
    for _ in range(max_iter):
        dist2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dist2, axis=1)

        counts = np.bincount(new_labels, minlength=K)
        if (counts == 0).any():
            own = dist2[np.arange(n), new_labels].copy()
            for c in np.flatnonzero(counts == 0):
                p = int(np.argmax(own))
                new_labels[p] = c
                own[p] = -1.0
            counts = np.bincount(new_labels, minlength=K)

        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        for c in range(K):
            centroids[c] = points[labels == c].mean(axis=0)

    sse = float(((points - centroids[labels]) ** 2).sum())
    return labels, sse


def kmeanspp(centers: np.ndarray, K: int, seed: int, restarts: int = 10,
             max_iter: int = 300) -> np.ndarray:
    """K-means with D^2 seeding and Lloyd iterations on the center vectors.

    Runs ``restarts`` independent seeded attempts and keeps the lowest
    within-cluster SSE (ties: lowest restart index). Empty clusters are
    repaired by stealing the point farthest from its assigned centroid.
    Same seed, same labels.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if K < 1 or centers.shape[0] < K:
        raise ConfigurationError(f"cannot form {K} clusters from {centers.shape[0]} centers")

    best_labels = None
    best_sse = np.inf
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed % 2 ** 63, r]))
        labels, sse = _lloyd_once(centers, K, rng, max_iter)
        if sse < best_sse:
            best_sse = sse
            best_labels = labels
    return best_labels


def cluster_or_passthrough(stable_balls: list[GranularBall], K: int, backend: str,
                           seed: int = 0) -> BallClustering:
    """Cluster ball centers into K clusters, or pass balls through directly.

    When the ball count does not exceed K each ball is its own cluster and no
    backend runs at all. Otherwise the centers go to the chosen backend;
    backend "none" refuses in that case since the balls cannot be reported
    as clusters directly.
    """
    count = len(stable_balls)
    if count < 1:
        raise ConfigurationError("need at least one stable ball")
    if K < 1:
        raise ConfigurationError("K must be at least 1")
    if backend not in BACKENDS:
        raise ConfigurationError(f"unknown backend {backend!r}; expected one of {BACKENDS}")

    if count <= K:
        return BallClustering(ball_labels=np.arange(count, dtype=np.int64), K=K)

    if backend == "none":
        raise ConfigurationError(
            f"{count} stable balls exceed K={K}; pick a backend (ac or kmeanspp)")
    centers = np.stack([b.center for b in stable_balls])
    if backend == "ac":
        labels = agglomerative_ward(centers, K)
    else:
        labels = kmeanspp(centers, K, seed)
    return BallClustering(ball_labels=labels, K=K)


def labels_to_samples(ownership: np.ndarray, ball_labels: np.ndarray) -> np.ndarray:
    """Propagate each ball's cluster label to every sample it owns."""
    return np.asarray(ball_labels, dtype=np.int64)[np.asarray(ownership, dtype=np.int64)]
