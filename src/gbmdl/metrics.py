"""External clustering evaluation: ARI, optimally-matched ACC, and NMI."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


def contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-tabulation of two labelings as an int64 (rows × cols) count array.

    Rows follow the sorted distinct values of ``a``, columns those of ``b``;
    every row and column sum is positive.
    """
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise ValueError(f"label lengths differ: {a.shape[0]} vs {b.shape[0]}")
    if a.size == 0:
        raise ValueError("both labelings are empty; scoring needs at least one sample")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    rows, cols = ai.max() + 1, bi.max() + 1
    return np.bincount(ai * cols + bi, minlength=rows * cols).reshape(rows, cols)


def ari(true_labels: np.ndarray, pred_labels: np.ndarray) -> float:
    """Adjusted Rand index: pair-counting agreement, adjusted for chance.

    Returns 1.0 in the degenerate cases where the chance adjustment has a
    zero denominator (both partitions trivial and identical).
    """
    counts = contingency(true_labels, pred_labels)
    n = int(counts.sum())
    if n < 2:
        raise ValueError("ARI needs at least two samples")
    rows, cols = counts.sum(axis=1), counts.sum(axis=0)
    # exact int64 pair counts while n < 3e9; only a * b needs a Python int
    index = int((counts * (counts - 1) // 2).sum())
    a = int((rows * (rows - 1) // 2).sum())
    b = int((cols * (cols - 1) // 2).sum())
    expected = a * b / (n * (n - 1) // 2)
    max_index = (a + b) / 2.0
    if max_index == expected:
        return 1.0
    return (index - expected) / (max_index - expected)


def acc(true_labels: np.ndarray, pred_labels: np.ndarray) -> float:
    """Clustering accuracy under the best injective matching of cluster ids.

    The optimal matching is a linear sum assignment on the negated
    contingency table, so it stays exact for any number of clusters.
    """
    counts = contingency(true_labels, pred_labels)
    rows, cols = linear_sum_assignment(-counts)
    return int(counts[rows, cols].sum()) / int(counts.sum())


def nmi(true_labels: np.ndarray, pred_labels: np.ndarray) -> float:
    """Normalized mutual information with arithmetic-mean normalization, in nats.

    Exactly 1 when the partitions agree up to relabelling (both single
    clusters included), and 0 when exactly one of them is a single cluster.
    """
    counts = contingency(true_labels, pred_labels)
    i, j = np.nonzero(counts)
    # one nonzero cell per row and per column is a bijection of clusters, so
    # I(U;V) = H(U) = H(V) as exact sums; rounding them apart would miss 1.0
    if i.size == counts.shape[0] == counts.shape[1]:
        return 1.0
    if min(counts.shape) == 1:
        return 0.0
    n = counts.sum()
    p_true, p_pred = counts.sum(axis=1) / n, counts.sum(axis=0) / n
    h_true = -(p_true * np.log(p_true)).sum()
    h_pred = -(p_pred * np.log(p_pred)).sum()
    p = counts[i, j] / n
    mutual = (p * (np.log(p) - np.log(p_true[i]) - np.log(p_pred[j]))).sum()
    return min(max(float(mutual / (0.5 * (h_true + h_pred))), 0.0), 1.0)
