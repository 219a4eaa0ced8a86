"""Coarse initialization, the queue-driven regeneration loop, and residual handling.

Generation is deterministic: a FIFO queue of balls is refined by the model
competition until every ball is stable, peeled residuals are reassigned
against frozen ball statistics, and final ownership is defined by nearest
stable-ball centers.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (
    BallStats,
    Dataset,
    GenerationResult,
    GranularBall,
    ModelChoice,
    ModelVerdict,
    stats_add_point,
)
from .errors import ConfigurationError, DataQualityError
from .models import evaluate_ball, l1_length

# Ownership prices at most this many sample-to-center distances at a time
# (512 KB of float64), so its scratch memory does not grow with n.
OWNERSHIP_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs of the generation stage.

    ``n_min`` and ``k0`` are derived from the data shape when left unset;
    overrides exist for experiments, not for routine use.
    """

    n_min: int | None = None
    k0: int | None = None

    def __post_init__(self) -> None:
        for name in ("n_min", "k0"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigurationError(f"{name} must be at least 1")


def adaptive_n_min(n: int, d: int) -> int:
    """Minimum admissible ball size, adapted to sample count and dimension.

    Grows like sqrt(n) with a smooth dimensional correction, capped at d + 2
    (the parameter count of the single-ball model plus a safety margin), and
    never below 2.
    """
    raw = min(math.sqrt(n) / math.log(math.sqrt(d + 2)), d + 2)
    return max(2, math.ceil(raw))


def initial_ball_count(n: int) -> int:
    """Coarse initialization stops once floor(sqrt(n)) balls exist."""
    return max(1, math.isqrt(n))


def farthest_point_bisect(subset_indices: np.ndarray,
                          values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a subset by proximity to two approximately-farthest anchor points.

    The anchor chain starts at the lowest-index member; ties in either argmax
    go to the lowest index. Points equidistant from both anchors land in the
    first half.
    """
    subset = np.sort(np.asarray(subset_indices, dtype=np.int64))
    if subset.size < 2:
        raise ValueError("cannot bisect fewer than two points")
    pts = values[subset]

    d0 = ((pts - pts[0]) ** 2).sum(axis=1)
    anchor1 = int(np.argmax(d0))
    d1 = ((pts - pts[anchor1]) ** 2).sum(axis=1)
    anchor2 = int(np.argmax(d1))
    d2 = ((pts - pts[anchor2]) ** 2).sum(axis=1)

    near_first = d1 <= d2
    return subset[near_first], subset[~near_first]


def initialize_balls(dataset: Dataset, k0: int) -> list[GranularBall]:
    """Recursively bisect the largest ball until k0 balls exist.

    Ties on size go to the ball with the lowest minimum member index. A ball
    whose bisection returns an empty half (all members coincide) is left
    whole, so the loop also stops when nothing splittable remains. The result
    partitions all sample indices and is ordered by first member.
    """
    values = dataset.values
    entries: list[list] = [[np.arange(dataset.n, dtype=np.int64), True]]

    while len(entries) < k0:
        best = -1
        best_key = None
        for i, (members, splittable) in enumerate(entries):
            if not splittable or members.size < 2:
                continue
            key = (-members.size, int(members[0]))
            if best_key is None or key < best_key:
                best, best_key = i, key
        if best < 0:
            break
        half1, half2 = farthest_point_bisect(entries[best][0], values)
        if half1.size == 0 or half2.size == 0:
            entries[best][1] = False
            continue
        entries[best:best + 1] = [[half1, True], [half2, True]]

    entries.sort(key=lambda e: int(e[0][0]))
    return [GranularBall.from_members(values, members) for members, _ in entries]


def generate_stable_balls(dataset: Dataset, config: GenerationConfig | None = None,
                          ) -> tuple[list[GranularBall], list[int],
                                     list[tuple[int, ModelVerdict]]]:
    """Run the regeneration loop only; no residual attachment, no ownership.

    Returns the stable balls, the peeled residual pool, and the decision
    trace. Useful for inspecting the raw competition outcome; ``generate``
    wraps this with reassignment and final assignment.
    """
    cfg = config or GenerationConfig()
    n_min = cfg.n_min if cfg.n_min is not None else adaptive_n_min(dataset.n, dataset.d)
    k0 = cfg.k0 if cfg.k0 is not None else initial_ball_count(dataset.n)
    values = dataset.values

    queue = deque(initialize_balls(dataset, k0))
    stable: list[GranularBall] = []
    pool: list[int] = []
    trace: list[tuple[int, ModelVerdict]] = []

    while queue:
        ball = queue.popleft()
        verdict, split, peel = evaluate_ball(ball, values, n_min)
        trace.append((ball.size, verdict))
        if verdict.choice is ModelChoice.SINGLE_BALL:
            stable.append(ball)
        elif verdict.choice is ModelChoice.TWO_BALL:
            queue.append(GranularBall.from_members(values, split.left_indices))
            queue.append(GranularBall.from_members(values, split.right_indices))
        else:
            queue.append(GranularBall.from_members(values, peel.core_indices))
            pool.extend(int(i) for i in peel.residual_indices)

    return stable, sorted(pool), trace


def reassign_residuals(pool: list[int], stable_balls: list[GranularBall],
                       values: np.ndarray, background_log_volume: float,
                       ) -> tuple[list[GranularBall], dict[int, int], list[int]]:
    """Attach each residual to the cheapest destination, or keep it in the background.

    The attachment cost of a point is the increase in a ball's single-ball
    description length; the background costs the log bounding-box volume.
    Ball statistics are frozen at entry so the outcome is independent of
    processing order; winning balls are rebuilt once at the end. Ties between
    a ball and the background go to the ball, ties between balls to the lowest
    ball index.
    """
    if not stable_balls:
        return [], {}, sorted(pool)

    d = values.shape[1]
    frozen = BallStats(count=np.array([b.stats.count for b in stable_balls]),
                       sum=np.stack([b.stats.sum for b in stable_balls]),
                       sumsq=np.array([b.stats.sumsq for b in stable_balls]))
    base = l1_length(frozen, d)
    attachments: dict[int, int] = {}
    background: list[int] = []

    for idx in sorted(pool):
        deltas = l1_length(stats_add_point(frozen, values[idx]), d) - base
        j = int(np.argmin(deltas))
        if deltas[j] <= background_log_volume:
            attachments[idx] = j
        else:
            background.append(idx)

    extra: dict[int, list[int]] = {}
    for idx, j in attachments.items():
        extra.setdefault(j, []).append(idx)
    updated = []
    for j, ball in enumerate(stable_balls):
        if j in extra:
            merged = np.concatenate([ball.members, np.asarray(extra[j], dtype=np.int64)])
            updated.append(GranularBall.from_members(values, merged))
        else:
            updated.append(ball)
    return updated, attachments, background


def assign_samples(dataset: Dataset, stable_balls: list[GranularBall]) -> np.ndarray:
    """Map every sample to the stable ball with the nearest center (ties: lowest index).

    Rows are priced in blocks of about ``OWNERSHIP_BLOCK_CELLS`` distances with
    the same per-row formula at any block size. BLAS may round the product
    differently per block, which can only matter for centers tied within an ulp.
    """
    if not stable_balls:
        raise ValueError("need at least one stable ball")
    values = dataset.values
    centers = np.stack([b.center for b in stable_balls])
    sq_c = np.einsum("ij,ij->i", centers, centers)
    owner = np.empty(dataset.n, dtype=np.int64)
    rows = max(1, OWNERSHIP_BLOCK_CELLS // len(stable_balls))
    for start in range(0, dataset.n, rows):
        block = values[start:start + rows]
        sq_v = np.einsum("ij,ij->i", block, block)
        dist2 = sq_v[:, None] - 2.0 * (block @ centers.T) + sq_c[None, :]
        owner[start:start + rows] = np.argmin(dist2, axis=1)
    return owner


def generate(dataset: Dataset, config: GenerationConfig | None = None,
             background_log_volume: float | None = None) -> GenerationResult:
    """Full generation pipeline: regenerate, reassign residuals, assign ownership.

    The dataset is expected to be normalized to the unit hypercube; pass an
    explicit ``background_log_volume`` to run on raw coordinates.
    """
    if background_log_volume is None:
        lo, hi = dataset.values.min(), dataset.values.max()
        if lo < -1e-9 or hi > 1.0 + 1e-9:
            raise DataQualityError(
                "values fall outside [0, 1]; normalize first or supply background_log_volume")
        background_log_volume = 0.0

    stable, pool, trace = generate_stable_balls(dataset, config)
    updated, _, background = reassign_residuals(
        pool, stable, dataset.values, background_log_volume)
    ownership = assign_samples(dataset, updated)
    return GenerationResult(
        stable_balls=tuple(updated),
        residual_background=np.asarray(background, dtype=np.int64),
        ownership=ownership,
        trace=tuple(trace),
    )
