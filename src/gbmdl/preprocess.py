"""Feature-wise min-max normalization and the global background coding volume."""

from __future__ import annotations

import numpy as np

from .core import Dataset

RANGE_FLOOR = 1e-12


def minmax_normalize(dataset: Dataset) -> Dataset:
    """Rescale every feature to [0, 1]; constant features map to 0.

    Constant features are kept rather than dropped, so the declared
    dimensionality stays intact for every downstream formula.
    """
    mins = dataset.values.min(axis=0)
    spread = dataset.values.max(axis=0) - mins
    scaled = (dataset.values - mins) / np.where(spread > 0, spread, 1.0)
    return Dataset(values=scaled, labels=dataset.labels)


def background_log_volume(values: np.ndarray) -> float:
    """Log-volume of the bounding box of raw values, the background coding space.

    It is the sum of log feature ranges, each floored at RANGE_FLOOR to keep
    the logarithm finite. Normalized data needs no call: the unit hypercube
    has log-volume exactly 0.
    """
    spread = np.maximum(values.max(axis=0) - values.min(axis=0), RANGE_FLOOR)
    return float(np.log(spread).sum())
