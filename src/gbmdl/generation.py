"""Coarse initialization, the queue-driven regeneration loop, and residual handling.

Generation is deterministic: a FIFO queue of balls is refined by the model
competition until every ball is stable, peeled residuals are reassigned
against frozen ball statistics, and final ownership is defined by nearest
stable-ball centers.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .core import (
    Dataset,
    GenerationResult,
    GranularBall,
    ModelChoice,
    ModelVerdict,
    ball_centers,
    squared_distances,
    stack_stats,
    stats_add_point,
)
from .errors import DataQualityError
from .models import BLOCK_CELLS, evaluate_ball, evaluate_balls, l1_length


def adaptive_n_min(n: int, d: int) -> int:
    """Minimum admissible ball size, adapted to sample count and dimension.

    Grows like sqrt(n) with a smooth dimensional correction, capped at d + 2
    (the parameter count of the single-ball model plus a safety margin), and
    never below 2.
    """
    raw = min(math.sqrt(n) / math.log(math.sqrt(d + 2)), d + 2)
    return max(2, math.ceil(raw))


def farthest_point_bisect(subset_indices: np.ndarray,
                          cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a subset by proximity to two approximately-farthest anchor points.

    ``cols`` is the feature-major (d, n) copy of the values, and distances sum
    over features in index order (``squared_distances``). The anchor chain
    starts at the lowest-index member; ties in either argmax go to the lowest
    index. Points equidistant from both anchors land in the first half.
    """
    subset = np.sort(np.asarray(subset_indices, dtype=np.int64))
    if subset.size < 2:
        raise ValueError("cannot bisect fewer than two points")
    # distinct indices, so a subset of every sample is every column in order
    pts = cols if subset.size == cols.shape[1] else cols[:, subset]

    d0 = squared_distances(pts, pts[:, :1])
    anchor1 = int(np.argmax(d0))
    d1 = squared_distances(pts, pts[:, anchor1, None])
    anchor2 = int(np.argmax(d1))
    d2 = squared_distances(pts, pts[:, anchor2, None])

    near_first = d1 <= d2
    return subset[near_first], subset[~near_first]


def initialize_balls(dataset: Dataset, k0: int) -> list[np.ndarray]:
    """Recursively bisect the largest ball until k0 balls exist.

    Ties on size go to the ball with the lowest minimum member index. A ball
    whose bisection returns an empty half (all members coincide) is left
    whole, so the loop also stops when nothing splittable remains. It returns
    ascending member arrays that partition the samples, ordered by first member.
    """
    cols = np.ascontiguousarray(dataset.values.T)
    # heap keys (-size, first member) never tie, because the member sets are disjoint
    heap = [(-dataset.n, 0, np.arange(dataset.n, dtype=np.int64))]
    while len(heap) < k0 and heap[0][0] <= -2:
        members = heapq.heappop(heap)[2]
        halves = farthest_point_bisect(members, cols)
        if min(half.size for half in halves) == 0:
            heapq.heappush(heap, (0, int(members[0]), members))   # sorts last: never popped again
            continue
        for half in halves:
            heapq.heappush(heap, (-half.size, int(half[0]), half))

    heap.sort(key=lambda entry: entry[1])
    return [members for _, _, members in heap]


def generate_stable_balls(dataset: Dataset) -> tuple[list[GranularBall], np.ndarray,
                                                     list[tuple[int, ModelVerdict]]]:
    """Run the regeneration loop only; no residual attachment, no ownership.

    The minimum ball size (``adaptive_n_min``) and the initial ball count
    floor(sqrt(n)) come from the data shape, so the loop has no parameter.
    Returns the stable balls, the residual pool (every peeled sample id, as one
    ascending int64 array) and the decision trace. Useful for inspecting the raw
    competition outcome; ``generate`` wraps this with reassignment and final assignment.

    The queue is FIFO and a verdict depends only on the ball and n_min, so the
    loop prices one generation of member arrays at a time (``evaluate_balls``):
    the verdict parts of a generation, in order, are the next one, so the trace
    is the one-ball-at-a-time FIFO trace. A ball kept whole keeps its verdict's stats.
    """
    n_min = adaptive_n_min(dataset.n, dataset.d)
    values = dataset.values

    generation = initialize_balls(dataset, math.isqrt(dataset.n))
    # the first ball goes alone through evaluate_ball, the span site where perfbench
    # counts calls and verdicts until it reads them from the trace (ROADMAP item 1)
    verdicts = [evaluate_ball(generation[0], values, n_min)[0],
                *evaluate_balls(generation[1:], values, n_min)]
    stable: list[GranularBall] = []
    residuals = [np.empty(0, dtype=np.int64)]
    trace: list[tuple[int, ModelVerdict]] = []

    while generation:
        children = []
        for members, verdict in zip(generation, verdicts):
            trace.append((members.size, verdict))
            if verdict.parts is None:
                stable.append(GranularBall(members, verdict.stats))
                continue
            children.append(verdict.parts[0])
            if verdict.choice is ModelChoice.TWO_BALL:
                children.append(verdict.parts[1])
            else:
                residuals.append(verdict.parts[1])
        generation = children
        verdicts = evaluate_balls(generation, values, n_min)

    return stable, np.sort(np.concatenate(residuals)), trace


def _first_minima(rows: np.ndarray, cells_per_row: int, price) -> np.ndarray:
    """Column of the first minimum in each row of ``price(rows)``, priced in blocks of
    ``BLOCK_CELLS // cells_per_row`` rows; ``price`` must price a row alike in any block."""
    index = np.empty(len(rows), dtype=np.int64)
    step = max(1, BLOCK_CELLS // cells_per_row)
    for start in range(0, len(rows), step):
        index[start:start + step] = np.argmin(price(rows[start:start + step]), axis=1)
    return index


def reassign_residuals(pool: np.ndarray, stable_balls: list[GranularBall], values: np.ndarray
                       ) -> tuple[list[GranularBall], np.ndarray, np.ndarray]:
    """Attach each residual to the cheapest destination, or keep it in the background.

    The attachment cost of a point is the increase in a ball's single-ball
    description length. The background codes a point uniformly over the unit
    hypercube, whose log-volume is 0, so it costs 0 nats.
    Ball statistics are frozen at entry, so the outcome does not depend on the order of
    ``pool`` (int64 sample ids, taken as given); winning balls are rebuilt once at the end.
    Returns the balls and the attached and background ids, int64 arrays in the pool's order.
    Ties between a ball and the background go to the ball, between balls to the lowest index.
    """
    pool = np.asarray(pool, dtype=np.int64)
    if not stable_balls:
        return [], pool[:0], pool

    k, d = len(stable_balls), values.shape[1]
    frozen = stack_stats([b.stats for b in stable_balls])
    base = l1_length(frozen, d)
    # a block of p residuals grows p x k stacked stats; the background is column k
    dest = _first_minima(values[pool, None, :], k * d, lambda x: np.pad(
        l1_length(stats_add_point(frozen, x), d) - base, ((0, 0), (0, 1))))
    updated = list(stable_balls)
    for j in np.unique(dest[dest < k]).tolist():
        merged = np.concatenate([stable_balls[j].members, pool[dest == j]])
        updated[j] = GranularBall.from_members(values, merged)
    return updated, pool[dest < k], pool[dest == k]


def assign_samples(dataset: Dataset, stable_balls: list[GranularBall]) -> np.ndarray:
    """Map every sample to the stable ball with the nearest center (ties: lowest index).

    A row's owner minimizes |c|² − 2x·c, its squared distance less |x|²: one GEMM
    per block against −2·Cᵀ, then |c|² added in place. A cell is within
    γ_{d+1}·(|c|² + 2|x|·|c|) of exact, γ_m = m·u / (1 − m·u), u = 2⁻⁵³, so two centers
    swap only if their exact prices differ by less than their bounds' sum (ROADMAP item 3).

    Duplicate centers are priced once, at their lowest ball index: BLAS may
    round identical columns of the product differently, which would otherwise
    hand rows to a later copy.
    """
    if not stable_balls:
        raise ValueError("need at least one stable ball")
    centers = ball_centers(stable_balls)
    keep = np.sort(np.unique(centers, axis=0, return_index=True)[1])
    centers = centers[keep]
    sq_c = np.einsum("ij,ij->i", centers, centers)
    scaled = -2.0 * centers.T

    def price(block: np.ndarray) -> np.ndarray:
        cells = block @ scaled
        cells += sq_c
        return cells

    return keep[_first_minima(dataset.values, len(keep), price)]


def generate(dataset: Dataset) -> GenerationResult:
    """Full generation pipeline: regenerate, reassign residuals, assign ownership.

    The dataset must be normalized to the unit hypercube (``minmax_normalize``).
    """
    lo, hi = dataset.values.min(), dataset.values.max()
    if lo < -1e-9 or hi > 1.0 + 1e-9:
        raise DataQualityError("values fall outside [0, 1]; normalize first")

    stable, pool, trace = generate_stable_balls(dataset)
    updated, _, background = reassign_residuals(pool, stable, dataset.values)
    ownership = assign_samples(dataset, updated)
    return GenerationResult(
        stable_balls=tuple(updated),
        residual_background=background,
        ownership=ownership,
        trace=tuple(trace),
    )
