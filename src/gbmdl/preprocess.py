"""Feature-wise min-max normalization onto the unit hypercube.

Every run is normalized, so peeled residuals are coded against a uniform
background on [0, 1]^d, whose log-volume is exactly 0.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset


def minmax_normalize(dataset: Dataset) -> Dataset:
    """Rescale every feature to [0, 1]; constant features map to 0.

    Constant features are kept rather than dropped, so the declared
    dimensionality stays intact for every downstream formula.
    """
    mins = dataset.values.min(axis=0)
    spread = dataset.values.max(axis=0) - mins
    scaled = (dataset.values - mins) / np.where(spread > 0, spread, 1.0)
    return Dataset(values=scaled, labels=dataset.labels)
