"""External clustering evaluation: ARI, optimally-matched ACC, and NMI."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class ContingencyTable:
    """Cross-tabulation of two labelings; the shared substrate of all metrics."""

    counts: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray
    n: int

    @classmethod
    def from_labels(cls, a: np.ndarray, b: np.ndarray) -> "ContingencyTable":
        a = np.asarray(a).ravel()
        b = np.asarray(b).ravel()
        if a.shape != b.shape:
            raise ValueError(f"label lengths differ: {a.shape[0]} vs {b.shape[0]}")
        if a.size == 0:
            raise ValueError("both labelings are empty; scoring needs at least one sample")
        _, ai = np.unique(a, return_inverse=True)
        _, bi = np.unique(b, return_inverse=True)
        rows, cols = ai.max() + 1, bi.max() + 1
        counts = np.bincount(ai * cols + bi, minlength=rows * cols).reshape(rows, cols)
        return cls(counts=counts, row_marginals=counts.sum(axis=1),
                   col_marginals=counts.sum(axis=0), n=int(a.shape[0]))


def _comb2(x: int) -> int:
    return x * (x - 1) // 2


def ari(true_labels: np.ndarray, pred_labels: np.ndarray) -> float:
    """Adjusted Rand index: pair-counting agreement, adjusted for chance.

    Returns 1.0 in the degenerate cases where the chance adjustment has a
    zero denominator (both partitions trivial and identical).
    """
    table = ContingencyTable.from_labels(true_labels, pred_labels)
    if table.n < 2:
        raise ValueError("ARI needs at least two samples")
    # exact integer pair counts; products overflow int64 on large n
    index = sum(_comb2(int(v)) for v in table.counts.ravel() if v > 1)
    a = sum(_comb2(int(v)) for v in table.row_marginals)
    b = sum(_comb2(int(v)) for v in table.col_marginals)
    total = _comb2(table.n)
    expected = a * b / total
    max_index = (a + b) / 2.0
    if max_index == expected:
        return 1.0
    return (index - expected) / (max_index - expected)


def acc(true_labels: np.ndarray, pred_labels: np.ndarray) -> float:
    """Clustering accuracy under the best injective matching of cluster ids.

    The optimal matching is a linear sum assignment on the negated
    contingency table, so it stays exact for any number of clusters.
    """
    table = ContingencyTable.from_labels(true_labels, pred_labels)
    rows, cols = linear_sum_assignment(-table.counts)
    matched = int(table.counts[rows, cols].sum())
    return matched / table.n


def nmi(true_labels: np.ndarray, pred_labels: np.ndarray) -> float:
    """Normalized mutual information with arithmetic-mean normalization, in nats.

    Defined as 1 when both partitions collapse to a single cluster and 0 when
    exactly one of them does.
    """
    table = ContingencyTable.from_labels(true_labels, pred_labels)
    n = table.n
    h_true = _entropy(table.row_marginals, n)
    h_pred = _entropy(table.col_marginals, n)
    if h_true == 0.0 and h_pred == 0.0:
        return 1.0
    if h_true == 0.0 or h_pred == 0.0:
        return 0.0

    # term-by-term mirror of _entropy so identical partitions give exactly 1.0
    mutual = 0.0
    for i in range(table.counts.shape[0]):
        ri = int(table.row_marginals[i])
        for j in range(table.counts.shape[1]):
            nij = int(table.counts[i, j])
            if nij > 0:
                cj = int(table.col_marginals[j])
                mutual += (nij / n) * (
                    math.log(nij / n) - math.log(ri / n) - math.log(cj / n))
    value = mutual / (0.5 * (h_true + h_pred))
    return min(max(value, 0.0), 1.0)


def _entropy(marginals: np.ndarray, n: int) -> float:
    h = 0.0
    for m in marginals:
        m = int(m)
        if m > 0:
            h -= (m / n) * math.log(m / n)
    return h
