"""Seeded synthetic inputs for the benchmark workloads.

Every generator draws from ``numpy.random.default_rng(seed)`` only, so the
same seed and parameters always give the same CSV bytes. The program under
test sees nothing but the written file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

CSV_FORMAT = "%.8f"


def blob_centers(rng: np.random.Generator, blobs: int, d: int, sigma: float,
                 min_gap_sigmas: float) -> np.ndarray:
    """Blob centers in [0.2, 0.8]^d, redrawn until every pair is min_gap_sigmas * sigma apart."""
    while True:
        centers = rng.uniform(0.2, 0.8, size=(blobs, d))
        gaps = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() >= min_gap_sigmas * sigma:
            return centers


def gaussian_blobs(seed: int, n: int, d: int, blobs: int, sigma: float,
                   noise: float = 0.0, min_gap_sigmas: float = 8.0,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic Gaussian blobs plus an optional share of uniform background noise.

    ``noise`` is the share of the n points drawn uniformly from the unit box;
    each noise point is labelled by its nearest blob center. Blob sizes differ
    by at most one point. Rows come out shuffled.
    """
    rng = np.random.default_rng(seed)
    centers = blob_centers(rng, blobs, d, sigma, min_gap_sigmas)
    n_noise = int(round(noise * n))
    n_blob = n - n_noise
    labels = np.arange(n_blob) % blobs
    points = centers[labels] + rng.normal(0.0, sigma, size=(n_blob, d))
    if n_noise:
        background = rng.uniform(0.0, 1.0, size=(n_noise, d))
        nearest = np.argmin(
            ((background[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)
        points = np.vstack([points, background])
        labels = np.concatenate([labels, nearest])
    order = rng.permutation(n)
    return points[order], labels[order]


def write_csv(path: Path, points: np.ndarray, labels: np.ndarray) -> None:
    header = ",".join([f"x{j}" for j in range(points.shape[1])] + ["label"])
    table = np.column_stack([points, labels.astype(np.float64)])
    fmt = [CSV_FORMAT] * points.shape[1] + ["%d"]
    tmp = path.with_suffix(".tmp")
    np.savetxt(tmp, table, fmt=fmt, delimiter=",", header=header, comments="")
    tmp.replace(path)


def cached_blobs_csv(cache_dir: Path, seed: int, params: dict) -> Path:
    """Write the seeded blob CSV once per (seed, params) and return its path."""
    key = json.dumps({"seed": seed, **params}, sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    path = cache_dir / f"blobs-{digest}.csv"
    if not path.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        points, labels = gaussian_blobs(seed, **params)
        write_csv(path, points, labels)
    return path
