"""Shared domain types and the elementary ball statistics every model reuses.

All types are immutable value objects: pipeline stages communicate by
constructing new instances, never by mutating shared state, so any number of
threads may read them concurrently. The ones that hold arrays compare and hash
by identity (``eq=False``), as arrays have no truth value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DataQualityError


def _as_matrix(values: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DataQualityError(f"expected a 2-D sample matrix, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """An n x d sample matrix plus optional ground-truth labels, one per sample.

    Labels may be any 1-D values that sort together, kept as given; only the
    scores read them, comparing by equality. Values must be finite, and so must
    each feature's range, which ``minmax_normalize`` divides by to map to [0, 1].
    """

    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        values = _as_matrix(self.values)
        object.__setattr__(self, "values", values)
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise DataQualityError("dataset needs at least one sample and one feature")
        if not np.isfinite(values).all():
            row, col = np.argwhere(~np.isfinite(values))[0]
            raise DataQualityError(f"non-finite value at sample {row}, feature {col}")
        with np.errstate(over="ignore"):
            spread = values.max(axis=0) - values.min(axis=0)
        if not np.isfinite(spread).all():
            col = int(np.flatnonzero(~np.isfinite(spread))[0])
            raise DataQualityError(f"feature {col} has a range beyond the float64 maximum")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (values.shape[0],):
                raise DataQualityError("labels must be one value per sample")
            if labels.dtype.kind in "OSU":
                try:
                    np.unique(np.asarray(self.labels, dtype=object))
                except TypeError:
                    raise DataQualityError("labels must be mutually comparable values") from None
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def minmax_normalize(dataset: Dataset) -> Dataset:
    """Rescale every feature to [0, 1]; constant features map to 0.

    Every run is normalized, so peeled residuals are coded against a uniform
    background on [0, 1]^d, whose log-volume is exactly 0. Constant features
    are kept rather than dropped, so the declared dimensionality stays intact
    for every downstream formula.
    """
    mins = dataset.values.min(axis=0)
    spread = dataset.values.max(axis=0) - mins
    scaled = dataset.values - mins
    scaled /= np.where(spread > 0, spread, 1.0)   # in place: one n x d temporary, same bits
    return Dataset(values=scaled, labels=dataset.labels)


def squared_distances(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared distances between ``x`` and ``c``, summed over features in index order.

    The feature axis is axis 0 of both, and the other axes broadcast: (d, m)
    against (d, 1) gives (m,), (d, 1, m) against (d, k, 1) gives (k, m). The
    differences go into a new C-ordered array, squared in place, and
    ``np.add.reduce`` over axis 0 adds whole feature rows:
    ((x_0 − c_0)² + (x_1 − c_1)²) + … at any d. That is numpy's row sum bit for
    bit up to 7 features; from 8 on the row sum is unrolled. numpy sums a lone
    column pairwise like a row, so a single distance is accumulated instead.
    """
    diff = np.subtract(x, c, order="C")
    np.square(diff, out=diff)
    if diff.size == diff.shape[0]:
        return np.add.accumulate(diff, axis=0)[-1]
    return np.add.reduce(diff, axis=0)


@dataclass(frozen=True, eq=False)
class BallStats:
    """Sufficient statistics of a point set: count, per-feature sum, total squared norm.

    Only the isotropic dispersion is ever needed downstream, so the squared
    norms are accumulated as one scalar rather than per feature. The same
    type also holds k point sets at once (count (k,), sum (k, d), sumsq (k,));
    every function taking BallStats then works element-wise over the k sets.
    """

    count: int | np.ndarray
    sum: np.ndarray
    sumsq: float | np.ndarray


def stats_from_points(points: np.ndarray) -> BallStats:
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return BallStats(
        count=pts.shape[0],
        sum=pts.sum(axis=0),
        sumsq=float(np.einsum("ij,ij->", pts, pts)),
    )


def stats_add_point(stats: BallStats, x: np.ndarray) -> BallStats:
    """Statistics after adding point x; stacked stats add x to every set.

    A (p, 1, d) stack of points against k stacked sets gives p x k grown sets.
    The squared norm is a stacked matmul, which rounds exactly like ``x @ x``.
    """
    x = np.asarray(x, dtype=np.float64)
    sq = (x[..., None, :] @ x[..., :, None])[..., 0, 0]
    return BallStats(stats.count + 1, stats.sum + x, stats.sumsq + sq)


def stats_sse(stats: BallStats) -> float | np.ndarray:
    """Within-set sum of squared deviations from the mean, clamped at 0.

    The clamp absorbs floating-point cancellation; downstream logarithms
    require nonnegativity. Stacked stats give one value per set.
    """
    sum_sq = np.einsum("...i,...i->...", stats.sum, stats.sum)
    return np.maximum(stats.sumsq - sum_sq / stats.count, 0.0)


@dataclass(frozen=True, eq=False)
class GranularBall:
    """A subset of samples summarized by its count, sum and squared norm.

    ``members`` holds original sample indices, kept sorted ascending so that
    iteration order (and therefore floating-point accumulation order) is
    reproducible across runs. The center follows from the statistics; it is
    computed on first use and then shared, so callers must not write to it.
    """

    members: np.ndarray
    stats: BallStats

    def __post_init__(self) -> None:
        members = np.asarray(self.members, dtype=np.int64)
        object.__setattr__(self, "members", members)
        if members.size == 0:
            raise ValueError("a granular ball must have at least one member")
        if not (np.diff(members) > 0).all():
            raise ValueError("members must be strictly increasing sample indices")

    @classmethod
    def from_members(cls, values: np.ndarray, members: np.ndarray) -> "GranularBall":
        members = np.sort(np.asarray(members, dtype=np.int64))
        return cls(members=members, stats=stats_from_points(values[members]))

    @property
    def size(self) -> int:
        return self.stats.count

    @cached_property
    def center(self) -> np.ndarray:
        return self.stats.sum / self.stats.count


class ModelChoice(Enum):
    """The three competing local explanations of a ball."""

    SINGLE_BALL = "M1"
    TWO_BALL = "M2"
    CORE_RESIDUAL = "M3"


@dataclass(frozen=True, eq=False)
class ModelVerdict:
    """Outcome of the three-way description-length competition for one ball.

    ``parts`` holds the winner's two ascending member arrays: (left, right) for M2,
    (core, residual) for M3, None for M1. ``split`` and ``peel_q`` derive from it.
    """

    choice: ModelChoice
    l1: float
    l2_star: float
    l3_star: float
    parts: tuple[np.ndarray, np.ndarray] | None

    @property
    def split(self) -> tuple[np.ndarray, np.ndarray] | None:
        return self.parts if self.choice is ModelChoice.TWO_BALL else None

    @property
    def peel_q(self) -> int | None:
        return self.parts[1].size if self.choice is ModelChoice.CORE_RESIDUAL else None


@dataclass(frozen=True, eq=False)
class GenerationResult:
    """Everything the generation stage produces.

    ``stable_balls`` are the final balls after residual attachment;
    ``residual_background`` lists samples that stayed in the background;
    ``ownership`` maps every sample to the stable ball with the nearest
    center; ``trace`` records (ball size, verdict) in dequeue order.
    """

    stable_balls: tuple[GranularBall, ...]
    residual_background: np.ndarray
    ownership: np.ndarray
    trace: tuple[tuple[int, ModelVerdict], ...]
