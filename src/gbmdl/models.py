"""The description-length engine.

Three candidate explanations compete for every ball: keep it whole, split it
in two along the first principal direction, or peel the farthest points off
into a uniform background shell around a compact core. All lengths are in
nats (the Gaussian coding cost fixes base e) and the cheapest explanation
wins.
"""

from __future__ import annotations

import math

import numpy as np

from .core import BallStats, GranularBall, ModelChoice, ModelVerdict, stats_sse

LOG_2PI = math.log(2.0 * math.pi)
SHELL_LOG_FLOOR = math.log(1e-300)
RADIUS_FLOOR = 1e-12
VARIANCE_FLOOR = 1e-12  # keeps duplicate-heavy balls at a finite, comparable cost


def ball_radius(points: np.ndarray, center: np.ndarray) -> float:
    """Maximum Euclidean distance from any member point to the center."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return float(np.sqrt(((pts - center) ** 2).sum(axis=1).max()))


def l1_length(stats: BallStats, d: int) -> float | np.ndarray:
    """Single-ball description length.

    Closed form of the Gaussian negative log-likelihood at the MLE plus a
    BIC-style penalty of (d+1)/2 * ln m for the d-dimensional center and the
    scalar variance. Stacked stats give one length per set.
    """
    m = stats.count
    var = np.maximum(stats_sse(stats) / (d * m), VARIANCE_FLOOR)
    return 0.5 * m * d * (1.0 + LOG_2PI + np.log(var)) \
        + 0.5 * (d + 1) * np.log(m)


def partition_cost(m1: int | np.ndarray, m2: int | np.ndarray) -> float | np.ndarray:
    """Entropy cost of announcing a bipartition of m1 + m2 items, in nats.

    Uses the convention 0 * ln 0 = 0, so degenerate partitions cost nothing.
    m1 and m2 may be integers or broadcastable integer arrays.
    """
    n = np.maximum(m1 + m2, 1)
    return -(m1 * np.log(np.maximum(m1, 1) / n) + m2 * np.log(np.maximum(m2, 1) / n))


def first_principal_direction(points: np.ndarray) -> np.ndarray | None:
    """Unit eigenvector of the sample scatter for its largest eigenvalue.

    Solved exactly by a symmetric eigendecomposition of the d x d scatter
    matrix, so there is no iteration count or tolerance. The sign is fixed
    so the first nonzero coordinate is positive. Returns None when all
    points coincide, since no principal direction exists then.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] < 2:
        raise ValueError("need at least two points for a principal direction")
    centered = pts - pts.mean(axis=0)
    scatter = centered.T @ centered
    if scatter.diagonal().max() <= 0.0:
        return None

    v = np.linalg.eigh(scatter)[1][:, -1]   # eigenvalues ascend, so the last is the largest
    return -v if v[np.flatnonzero(v)[0]] < 0 else v


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

    Computed as a + ln(1 - e^(b-a)) with a, b the log ball volumes; a core of
    coinciding points (r_core <= 0) gives a, and degenerate or underflowing
    shells give the fixed floor ln(1e-300). Core radii in an array give one value each.
    """
    a = log_ball_volume(d, r_out)
    b = log_ball_volume(d, r_core)
    with np.errstate(divide="ignore"):   # a closed shell (b >= a) takes log1p(-1) = -inf
        shell = np.maximum(a + np.log1p(-np.exp(np.minimum(b - a, 0.0))), SHELL_LOG_FLOOR)
    return np.where(r_core <= 0.0, a, shell)[()]


Parts = tuple[np.ndarray, np.ndarray]


def _ordered_prefix(ball: GranularBall, pts: np.ndarray,
                    key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, BallStats]:
    """The ball's members, points and key stable-sorted by key, plus prefix stats.

    Members ascend, so exact key ties go to the lower sample id. Entry i of
    the stacked stats covers the first i + 1 sorted points.
    """
    order = np.argsort(key, kind="stable")
    pts = pts[order]
    prefix = BallStats(count=np.arange(1, len(pts) + 1),
                       sum=np.cumsum(pts, axis=0),
                       sumsq=np.cumsum(np.einsum("ij,ij->i", pts, pts)))
    return ball.members[order], pts, key[order], prefix


def _halves(sorted_members: np.ndarray, size: int) -> Parts:
    return np.sort(sorted_members[:size]), np.sort(sorted_members[size:])


def l2_best_split(ball: GranularBall, values: np.ndarray,
                  n_min: int) -> tuple[float, Parts | None]:
    """Cheapest two-ball explanation over all feasible principal-direction cuts.

    Members are projected onto the first principal direction and stable-sorted
    by (projection, original index); every prefix length m1 with both halves
    at least n_min is evaluated from running sufficient statistics, so each
    cut costs O(d). Returns the best length and the (left, right) member
    indices, each ascending, or (+inf, None) when no cut is feasible or the
    direction is degenerate.
    """
    n_b = ball.size
    if n_b < 2 * n_min:
        return math.inf, None
    pts = values[ball.members]
    direction = first_principal_direction(pts)
    if direction is None:
        return math.inf, None

    sorted_members, _, _, prefix = _ordered_prefix(ball, pts, pts @ direction)
    d = pts.shape[1]

    m1 = np.arange(n_min, n_b - n_min + 1)
    left = BallStats(m1, prefix.sum[m1 - 1], prefix.sumsq[m1 - 1])
    right = BallStats(n_b - m1, prefix.sum[-1] - left.sum, prefix.sumsq[-1] - left.sumsq)
    lengths = partition_cost(left.count, right.count) \
        + l1_length(left, d) + l1_length(right, d)

    best = int(np.argmin(lengths))  # first minimum = smallest m1
    return float(lengths[best]), _halves(sorted_members, int(m1[best]))


def core_radius_bounds(dist_sorted: np.ndarray, sizes: np.ndarray, means: np.ndarray,
                       center: np.ndarray) -> np.ndarray:
    """Upper bound on the radius of every prefix core about its own mean.

    Entry j bounds ``ball_radius(points[:sizes[j]], means[j])`` for points
    sorted by ascending distance ``dist_sorted`` to ``center``: the farthest
    core point's distance to the center plus the mean's distance to it.
    (d + 4)·8 eps of slack keeps the bound above the rounded exact radius
    where the triangle inequality is tight (collinear points).
    """
    d = means.shape[1]
    return (dist_sorted[sizes - 1] + np.sqrt(((means - center) ** 2).sum(axis=1))) \
        * (1.0 + 8 * (d + 4) * math.ulp(1.0))


def l3_best_peel(ball: GranularBall, values: np.ndarray,
                 n_min: int) -> tuple[float, Parts | None]:
    """Cheapest core-plus-residual explanation over all feasible residual sizes.

    Members are sorted ascending by distance to the full-ball center (ties by
    original index); the largest distance is the ball radius r_B. For residual
    size q the core keeps the nearest n_B - q points; its cost is the
    single-ball length of the core plus q times the log shell volume between
    the core radius (about the core's own mean) and the outer background
    radius 2 * r_B, plus ln n_B to encode q itself. Returns the best
    length and the (core, residual) member indices, each ascending, or
    (+inf, None) when n_B <= n_min or r_B <= RADIUS_FLOOR (no residual shell).

    Only the residual sizes that can win are measured. A core's radius is at
    most its farthest point's distance to the ball center plus its mean's
    distance to that center, and a larger radius only thins the shell, so
    that bound prices every q from below in O(n_B·d). The q are measured
    exactly in ascending bound order until the next bound exceeds the best
    length, so the first minimum is the full scan's, bit for bit.
    """
    n_b = ball.size
    if n_b <= n_min:
        return math.inf, None
    pts = values[ball.members]
    dist = np.sqrt(((pts - ball.center) ** 2).sum(axis=1))
    r_b = dist.max()   # sqrt is correctly rounded, so monotone: this is ball_radius bit for bit
    if r_b <= RADIUS_FLOOR:
        return math.inf, None
    sorted_members, sorted_pts, sorted_dist, prefix = _ordered_prefix(ball, pts, dist)
    d = pts.shape[1]

    q = np.arange(1, n_b - n_min + 1)
    sizes = n_b - q
    core = BallStats(sizes, prefix.sum[sizes - 1], prefix.sumsq[sizes - 1])
    means = core.sum / sizes[:, None]
    l1 = l1_length(core, d)
    log_n = math.log(n_b)

    def lengths(j, radii: float | np.ndarray) -> float | np.ndarray:
        return l1[j] + q[j] * log_shell_volume(d, 2.0 * r_b, radii) + log_n

    low = lengths(slice(None), core_radius_bounds(sorted_dist, sizes, means, ball.center))
    best = (math.inf, 0)   # first minimum of (length, j) = smallest q among the cheapest
    for _ in q:   # best-first; each core radius is measured about that core's own mean
        j = int(np.argmin(low))
        if low[j] > best[0]:   # every q left is bounded above the best length
            break
        best = min(best, (lengths(j, ball_radius(sorted_pts[:sizes[j]], means[j])), j))
        low[j] = math.inf
    return float(best[0]), _halves(sorted_members, int(sizes[best[1]]))


def evaluate_ball(ball: GranularBall, values: np.ndarray,
                  n_min: int) -> tuple[ModelVerdict, Parts | None]:
    """Run the three-way competition and return the verdict with the winning partition.

    The partition is None when the ball stays whole (M1), the (left, right)
    split for M2 and the (core, residual) peel for M3. Exact ties prefer the
    least-destructive explanation: keep > peel > split.
    """
    l1 = float(l1_length(ball.stats, values.shape[1]))
    l2_star, split = l2_best_split(ball, values, n_min)
    l3_star, peel = l3_best_peel(ball, values, n_min)
    if l1 <= l2_star and l1 <= l3_star:
        return ModelVerdict(ModelChoice.SINGLE_BALL, l1, l2_star, l3_star), None
    if l3_star <= l2_star:
        return ModelVerdict(ModelChoice.CORE_RESIDUAL, l1, l2_star, l3_star,
                            peel_q=peel[1].size), peel
    return ModelVerdict(ModelChoice.TWO_BALL, l1, l2_star, l3_star, split=split), split
