"""External clustering evaluation: ARI, optimally-matched ACC, and NMI."""

from __future__ import annotations

import numpy as np


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


def _assignment_total(counts: np.ndarray) -> int:
    """Largest total of ``counts`` over an injective matching of rows to columns.

    Kuhn's Hungarian method as shortest augmenting paths with integer
    potentials over the shorter side: O(min² · max) work, exact optimum.
    Plain Python ints over list rows, because on tables of a few dozen
    clusters numpy's per-call overhead made a vectorized loop 15-20x slower.
    """
    table = (counts.T if counts.shape[0] > counts.shape[1] else counts).tolist()
    cols = len(table[0])
    row_pot, col_pot = [0] * len(table), [0] * cols  # sum >= count on rows matched so far
    col_row, row_col = [-1] * cols, [-1] * len(table)
    for start in range(len(table)):
        dist, via = [float("inf")] * cols, [-1] * cols
        free, cols_seen = list(range(cols)), []
        i, reach = start, 0
        while i >= 0:                   # Dijkstra from `start` to a free column
            row, base, reach = table[i], reach + row_pot[i], float("inf")
            for j in free:
                if (cut := base + col_pot[j] - row[j]) < dist[j]:
                    dist[j], via[j] = cut, i
                if dist[j] < reach:
                    reach, nearest = dist[j], j
            free.remove(nearest)
            cols_seen.append(nearest)
            i = col_row[nearest]
        sink = nearest
        row_pot[start] -= reach
        for j in cols_seen[:-1]:        # the sink's shift is 0 and it has no row yet
            row_pot[col_row[j]] -= reach - dist[j]
            col_pot[j] += reach - dist[j]
        while i != start:               # flip the path from the sink back to `start`
            i = via[sink]
            col_row[sink], row_col[i], sink = i, sink, row_col[i]
    return sum(table[i][j] for i, j in enumerate(row_col))


def acc(true_labels: np.ndarray, pred_labels: np.ndarray) -> float:
    """Clustering accuracy under the best injective matching of cluster ids.

    The optimal matching is an exact integer assignment on the contingency
    table, so it stays exact for any number of clusters.
    """
    counts = contingency(true_labels, pred_labels)
    return _assignment_total(counts) / int(counts.sum())


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
