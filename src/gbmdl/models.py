"""The description-length engine.

Three candidate explanations compete for every ball: keep it whole, split it
in two along the first principal direction, or peel the farthest points off
into a uniform background shell around a compact core. All lengths are in
nats (the Gaussian coding cost fixes base e) and the cheapest explanation
wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BallStats, GranularBall, ModelChoice, ModelVerdict, ball_radius, stats_sse
from .errors import GbmdlError

LOG_2PI = math.log(2.0 * math.pi)
SHELL_LOG_FLOOR = math.log(1e-300)
RADIUS_FLOOR = 1e-12
VARIANCE_FLOOR = 1e-12  # keeps duplicate-heavy balls at a finite, comparable cost


class DegenerateDirectionError(GbmdlError):
    """All points coincide, so no principal direction exists."""


@dataclass(frozen=True)
class SplitCandidate:
    """One feasible two-ball cut along the sorted principal projection."""

    cut_position: int
    l2: float
    left_indices: np.ndarray
    right_indices: np.ndarray


@dataclass(frozen=True)
class PeelCandidate:
    """One feasible core-plus-residual peel, identified by the residual size q."""

    q: int
    l3: float
    core_indices: np.ndarray
    residual_indices: np.ndarray


def _mle_var(stats: BallStats, d: int) -> float | np.ndarray:
    return np.maximum(stats_sse(stats) / (d * stats.count), VARIANCE_FLOOR)


def mle_mean_var(stats: BallStats, d: int) -> tuple[np.ndarray, float]:
    """Gaussian maximum-likelihood center and isotropic variance, floored."""
    return stats.sum / stats.count, _mle_var(stats, d)


def l1_length(stats: BallStats, d: int) -> float | np.ndarray:
    """Single-ball description length.

    Closed form of the Gaussian negative log-likelihood at the MLE plus a
    BIC-style penalty of (d+1)/2 * ln m for the d-dimensional center and the
    scalar variance. Stacked stats give one length per set.
    """
    m = stats.count
    return 0.5 * m * d * (1.0 + LOG_2PI + np.log(_mle_var(stats, d))) \
        + 0.5 * (d + 1) * np.log(m)


def partition_cost(m1: int | np.ndarray, m2: int | np.ndarray) -> float | np.ndarray:
    """Entropy cost of announcing a bipartition of m1 + m2 items, in nats.

    Uses the convention 0 * ln 0 = 0, so degenerate partitions cost nothing.
    m1 and m2 may be integers or broadcastable integer arrays.
    """
    n = np.maximum(m1 + m2, 1)
    return -(m1 * np.log(np.maximum(m1, 1) / n) + m2 * np.log(np.maximum(m2, 1) / n))


def first_principal_direction(points: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the sample covariance for its largest eigenvalue.

    Deterministic power iteration: start from the axis of maximum per-feature
    variance, iterate at most 100 times, stop when the direction moves by
    less than 1e-10. The sign is fixed so the first nonzero coordinate is
    positive. Raises DegenerateDirectionError when all points coincide.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] < 2:
        raise ValueError("need at least two points for a principal direction")
    centered = pts - pts.mean(axis=0)
    per_feature = (centered ** 2).sum(axis=0)
    if per_feature.max() <= 0.0:
        raise DegenerateDirectionError("zero covariance: all points coincide")

    v = np.zeros(pts.shape[1])
    v[int(np.argmax(per_feature))] = 1.0
    for _ in range(100):
        w = centered.T @ (centered @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise DegenerateDirectionError("power iteration collapsed to the null space")
        w /= norm
        delta = np.linalg.norm(w - v)
        v = w
        if delta < 1e-10:
            break

    nonzero = np.flatnonzero(v)
    if nonzero.size and v[nonzero[0]] < 0:
        v = -v
    return v


def log_ball_volume(d: int, r: float | np.ndarray) -> float | np.ndarray:
    """ln of the volume of a d-dimensional Euclidean ball of radius r.

    Evaluated entirely in the log domain via lgamma, since the raw volume
    underflows for a few hundred dimensions at unit radius. The radius is
    floored at RADIUS_FLOOR to keep the logarithm finite; an array of radii
    gives one value per radius.
    """
    r = np.maximum(r, RADIUS_FLOOR)
    return 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0) + d * np.log(r)


def log_shell_volume(d: int, r_out: float,
                     r_core: float | np.ndarray) -> float | np.ndarray:
    """ln of the volume between the core ball and the outer background ball.

    Computed as a + ln(1 - e^(b-a)) with a, b the log ball volumes; an empty
    core (r_core <= 0) gives a, and degenerate or underflowing shells give the
    fixed floor ln(1e-300). An array of core radii gives one value per radius.
    """
    a = log_ball_volume(d, r_out)
    b = log_ball_volume(d, r_core)
    open_shell = (r_core < r_out) & (b < a)
    # closed shells take e^-inf = 0 here and the floor below, so no log(0) is ever taken
    shell = a + np.log1p(-np.exp(np.where(open_shell, b - a, -np.inf)))
    shell = np.where(open_shell & (shell >= SHELL_LOG_FLOOR), shell, SHELL_LOG_FLOOR)
    return np.where(r_core <= 0.0, a, shell)[()]


def _prefix_stats(points: np.ndarray) -> BallStats:
    """Stacked stats of every prefix: entry i covers points[:i + 1]."""
    return BallStats(count=np.arange(1, len(points) + 1),
                     sum=np.cumsum(points, axis=0),
                     sumsq=np.cumsum(np.einsum("ij,ij->i", points, points)))


def l2_best_split(ball: GranularBall, values: np.ndarray,
                  n_min: int) -> tuple[float, SplitCandidate | None]:
    """Cheapest two-ball explanation over all feasible principal-direction cuts.

    Members are projected onto the first principal direction and stable-sorted
    by (projection, original index); every prefix length m1 with both halves
    at least n_min is evaluated from running sufficient statistics, so each
    cut costs O(d). Returns (+inf, None) when no cut is feasible or the
    direction is degenerate.
    """
    n_b = ball.size
    if n_b < 2 * n_min:
        return math.inf, None
    pts = values[ball.members]
    try:
        direction = first_principal_direction(pts)
    except DegenerateDirectionError:
        return math.inf, None

    proj = pts @ direction
    order = np.lexsort((ball.members, proj))
    sorted_members = ball.members[order]
    sorted_pts = pts[order]

    prefix = _prefix_stats(sorted_pts)
    d = pts.shape[1]

    m1 = np.arange(n_min, n_b - n_min + 1)
    left = BallStats(m1, prefix.sum[m1 - 1], prefix.sumsq[m1 - 1])
    right = BallStats(n_b - m1, prefix.sum[-1] - left.sum, prefix.sumsq[-1] - left.sumsq)
    lengths = partition_cost(left.count, right.count) \
        + l1_length(left, d) + l1_length(right, d)

    best = int(np.argmin(lengths))  # first minimum = smallest m1
    cut = int(m1[best])
    candidate = SplitCandidate(
        cut_position=cut,
        l2=float(lengths[best]),
        left_indices=np.sort(sorted_members[:cut]),
        right_indices=np.sort(sorted_members[cut:]),
    )
    return candidate.l2, candidate


def l3_best_peel(ball: GranularBall, values: np.ndarray,
                 n_min: int) -> tuple[float, PeelCandidate | None]:
    """Cheapest core-plus-residual explanation over all feasible residual sizes.

    Members are sorted ascending by distance to the full-ball center (ties by
    original index). For residual size q the core keeps the nearest
    n_B - q points; its cost is the single-ball length of the core plus
    q times the log shell volume between the core radius (about the core's own
    mean) and the outer background radius 2 * r_B, plus ln(max(n_B, 2)) to
    encode q itself. Returns (+inf, None) when n_B <= n_min, or when the ball
    radius sits at or below the radius floor so no residual shell exists.
    """
    n_b = ball.size
    if n_b <= n_min:
        return math.inf, None
    if ball.radius <= RADIUS_FLOOR:
        return math.inf, None
    pts = values[ball.members]
    dist = np.sqrt(((pts - ball.center) ** 2).sum(axis=1))
    order = np.lexsort((ball.members, dist))
    sorted_members = ball.members[order]
    sorted_pts = pts[order]
    d = pts.shape[1]

    prefix = _prefix_stats(sorted_pts)
    q = np.arange(1, n_b - n_min + 1)
    sizes = n_b - q
    core = BallStats(sizes, prefix.sum[sizes - 1], prefix.sumsq[sizes - 1])
    # each core radius is measured about that core's own mean
    radii = np.array([ball_radius(sorted_pts[:size], core_sum / size)
                      for size, core_sum in zip(sizes, core.sum)])
    lengths = l1_length(core, d) + q * log_shell_volume(d, 2.0 * ball.radius, radii) \
        + math.log(max(n_b, 2))

    best = int(np.argmin(lengths))  # first minimum = smallest q
    size = int(sizes[best])
    candidate = PeelCandidate(
        q=int(q[best]),
        l3=float(lengths[best]),
        core_indices=np.sort(sorted_members[:size]),
        residual_indices=np.sort(sorted_members[size:]),
    )
    return candidate.l3, candidate


def _choose(l1: float, l2_star: float, l3_star: float) -> ModelChoice:
    # exact ties prefer the least-destructive explanation: keep > peel > split
    if l1 <= l2_star and l1 <= l3_star:
        return ModelChoice.SINGLE_BALL
    if l3_star <= l2_star:
        return ModelChoice.CORE_RESIDUAL
    return ModelChoice.TWO_BALL


def evaluate_ball(ball: GranularBall, values: np.ndarray, n_min: int,
                  ) -> tuple[ModelVerdict, SplitCandidate | None, PeelCandidate | None]:
    """Run the three-way competition and keep the winning candidates around.

    The generation loop needs the concrete index sets of the winning split or
    peel, not just the verdict, so this returns all three.
    """
    d = values.shape[1]
    l1 = float(l1_length(ball.stats, d))
    l2_star, split = l2_best_split(ball, values, n_min)
    l3_star, peel = l3_best_peel(ball, values, n_min)
    choice = _choose(l1, l2_star, l3_star)
    verdict = ModelVerdict(
        choice=choice,
        l1=l1,
        l2_star=l2_star,
        l3_star=l3_star,
        split=(split.left_indices, split.right_indices)
        if choice is ModelChoice.TWO_BALL else None,
        peel_q=peel.q if choice is ModelChoice.CORE_RESIDUAL else None,
    )
    return verdict, split, peel


def select_model(ball: GranularBall, values: np.ndarray, n_min: int) -> ModelVerdict:
    """Pick the shortest of the three local explanations for one ball."""
    return evaluate_ball(ball, values, n_min)[0]
