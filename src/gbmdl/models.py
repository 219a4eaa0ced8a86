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
# a block scan's result for one ball: its best length, the size of the first part
# and the members in scan order, or (+inf, 0, None) when no partition is feasible
Scan = tuple[float, int, np.ndarray | None]

# The batched scans, residual reattachment and ownership price at most about this
# many float64 cells (512 KB) per array at a time, so their scratch memory does not
# grow with n.
BLOCK_CELLS = 1 << 16


def _chunks(sizes: list[int], d: int):
    """Indices of runs of balls, in ascending size, whose padded (balls, largest
    size, d) block fits BLOCK_CELLS; a ball too large for that is a run of its
    own. Sizes alike share a block, so little of it is padding."""
    run: list[int] = []
    for i in sorted(range(len(sizes)), key=sizes.__getitem__):
        if run and (len(run) + 1) * sizes[i] * d > BLOCK_CELLS:
            yield run
            run = []
        run.append(i)
    if run:
        yield run


def _block(balls: list[GranularBall],
           values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The balls as rows padded to the largest size: sizes (B,), members (B, L) and
    points (B, L, d). Padding repeats sample 0; the scans key it +inf, so it sorts
    last and no feasible cut reads it."""
    sizes = np.array([ball.size for ball in balls])
    members = np.zeros((len(balls), sizes.max()), dtype=np.int64)
    members[np.arange(members.shape[1]) < sizes[:, None]] = np.concatenate(
        [ball.members for ball in balls])
    return sizes, members, values[members]


def _sorted_prefix(members: np.ndarray, pts: np.ndarray,
                   key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, BallStats]:
    """Each row's members, points and key stable-sorted by key, plus prefix stats.

    Members ascend, so exact key ties go to the lower sample id. Entry (b, j) of
    the stacked stats covers the first j + 1 sorted points of row b; the sums
    accumulate along the row exactly as on the ball alone.
    """
    rows, length = key.shape
    order = np.argsort(key, axis=1, kind="stable") + length * np.arange(rows)[:, None]
    pts = pts.reshape(rows * length, -1)[order]
    prefix = BallStats(count=np.arange(1, length + 1),
                       sum=np.cumsum(pts, axis=1),
                       sumsq=np.cumsum(np.einsum("bij,bij->bi", pts, pts), axis=1))
    return members.ravel()[order], pts, key.ravel()[order], prefix


def _scans(sorted_members: np.ndarray, sizes: np.ndarray, lengths: np.ndarray,
           cuts: np.ndarray, feasible: np.ndarray) -> list[Scan]:
    """Per row, the length, the cut and the row's members up to its size."""
    return [(float(length), cut, row[:n]) if ok else (math.inf, 0, None)
            for row, n, length, cut, ok
            in zip(sorted_members, sizes.tolist(), lengths, cuts.tolist(), feasible)]


def _parts(scan: Scan) -> Parts | None:
    """The ascending (first ``cut`` scanned members, rest) pair of a scan."""
    _, cut, row = scan
    return None if row is None else (np.sort(row[:cut]), np.sort(row[cut:]))


def _best_splits(balls: list[GranularBall], values: np.ndarray, n_min: int) -> list[Scan]:
    """``l2_best_split`` of every ball, scanned as one block."""
    sizes, members, pts = _block(balls, values)
    key = np.full(members.shape, np.inf)
    feasible = np.zeros(len(balls), dtype=bool)
    for b, ball in enumerate(balls):
        if ball.size >= 2 * n_min:
            # on the ball's own rows, as a padded scatter or projection would round differently
            ball_pts = values[ball.members]
            direction = first_principal_direction(ball_pts)
            if direction is not None:
                key[b, :ball.size] = ball_pts @ direction
                feasible[b] = True
    if not feasible.any():
        return [(math.inf, 0, None)] * len(balls)

    sorted_members, _, _, left = _sorted_prefix(members, pts, key)
    rows = np.arange(len(balls))
    total = BallStats(sizes, left.sum[rows, sizes - 1], left.sumsq[rows, sizes - 1])
    # right counts are clamped at 1 past the last cut, where no length is kept
    right = BallStats(np.maximum(total.count[:, None] - left.count, 1),
                      total.sum[:, None] - left.sum, total.sumsq[:, None] - left.sumsq)
    d = values.shape[1]
    lengths = partition_cost(left.count, right.count) \
        + l1_length(left, d) + l1_length(right, d)
    lengths[(left.count < n_min) | (right.count < n_min) | ~feasible[:, None]] = np.inf
    best = np.argmin(lengths, axis=1)  # first minimum = smallest left half
    return _scans(sorted_members, sizes, lengths[rows, best], best + 1, feasible)


def l2_best_split(ball: GranularBall, values: np.ndarray,
                  n_min: int) -> tuple[float, Parts | None]:
    """Cheapest two-ball explanation over all feasible principal-direction cuts.

    Members are projected onto the first principal direction and stable-sorted
    by (projection, original index); every prefix length m1 with both halves
    at least n_min is evaluated from running sufficient statistics, so each
    cut costs O(d). Returns the best length and the (left, right) member
    indices, each ascending, or (+inf, None) when no cut is feasible or the
    direction is degenerate. This is the one-ball case of ``evaluate_balls``'
    block scan.
    """
    scan = _best_splits([ball], values, n_min)[0]
    return scan[0], _parts(scan)


def core_radius_bounds(farthest: np.ndarray, means: np.ndarray,
                       center: np.ndarray) -> np.ndarray:
    """Upper bound on the radius of every prefix core about its own mean.

    ``farthest`` is each core's largest point distance to ``center``; the bound
    adds the mean's distance to it. (d + 4)·8 eps of slack keeps the bound above
    the rounded exact radius where the triangle inequality is tight (collinear
    points).
    """
    d = means.shape[-1]
    return (farthest + np.sqrt(((means - center) ** 2).sum(axis=-1))) \
        * (1.0 + 8 * (d + 4) * math.ulp(1.0))


def _best_peels(balls: list[GranularBall], values: np.ndarray, n_min: int) -> list[Scan]:
    """``l3_best_peel`` of every ball, scanned as one block; column j is the core of
    j + 1 points."""
    sizes, members, pts = _block(balls, values)
    centers = np.stack([ball.center for ball in balls])[:, None]
    dist = np.sqrt(((pts - centers) ** 2).sum(axis=2))
    sorted_members, sorted_pts, sorted_dist, core = _sorted_prefix(
        members, pts, np.where(np.arange(pts.shape[1]) < sizes[:, None], dist, np.inf))
    rows = np.arange(len(balls))
    # sqrt is correctly rounded, so monotone: r_b is ball_radius bit for bit
    r_b = sorted_dist[rows, sizes - 1]
    feasible = (sizes > n_min) & (r_b > RADIUS_FLOOR)

    d = pts.shape[2]
    q = sizes[:, None] - core.count
    l1 = l1_length(core, d)
    means = np.divide(core.sum, core.count[:, None], out=core.sum)   # the sums are spent
    r_out, log_n = 2.0 * r_b, np.array([math.log(n) for n in sizes.tolist()])

    def lengths(at, ball, radii: np.ndarray) -> np.ndarray:   # ``ball`` picks r_out and log_n
        return l1[at] + q[at] * log_shell_volume(d, r_out[ball], radii) + log_n[ball]

    low = lengths(..., np.s_[:, None], core_radius_bounds(sorted_dist, means, centers))
    low[(q < 1) | (core.count < n_min) | ~feasible[:, None]] = np.inf
    best = np.full(len(balls), np.inf)
    cut = np.zeros(len(balls), dtype=np.int64)
    open_rows = rows[feasible]
    while True:   # one best-first step per open ball
        j = low.shape[1] - 1 - np.argmin(low[open_rows, ::-1], axis=1)   # ties: smallest q
        going = low[open_rows, j] <= best[open_rows]   # else every q left is priced above best
        open_rows, j = open_rows[going], j[going]
        if not open_rows.size:
            return _scans(sorted_members, sizes, best, cut, feasible)
        radii = np.array([ball_radius(sorted_pts[b, :k + 1], means[b, k])
                          for b, k in zip(open_rows.tolist(), j.tolist())])
        got = lengths((open_rows, j), open_rows, radii)
        wins = (got < best[open_rows]) | ((got == best[open_rows]) & (j + 1 > cut[open_rows]))
        best[open_rows[wins]], cut[open_rows[wins]] = got[wins], j[wins] + 1
        low[open_rows, j] = np.inf


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
    length, so the first minimum is the full scan's, bit for bit. This is the
    one-ball case of ``evaluate_balls``' block scan, where every ball still
    open takes one such step per round.
    """
    scan = _best_peels([ball], values, n_min)[0]
    return scan[0], _parts(scan)


def _verdict(l1: float, split: Scan, peel: Scan) -> tuple[ModelVerdict, Parts | None]:
    """The competition over the scans; only the winning partition is cut."""
    l2_star, l3_star = split[0], peel[0]
    if l1 <= l2_star and l1 <= l3_star:
        return ModelVerdict(ModelChoice.SINGLE_BALL, l1, l2_star, l3_star), None
    if l3_star <= l2_star:
        parts = _parts(peel)
        return ModelVerdict(ModelChoice.CORE_RESIDUAL, l1, l2_star, l3_star,
                            peel_q=parts[1].size), parts
    parts = _parts(split)
    return ModelVerdict(ModelChoice.TWO_BALL, l1, l2_star, l3_star, split=parts), parts


def evaluate_balls(balls: list[GranularBall], values: np.ndarray,
                   n_min: int) -> list[tuple[ModelVerdict, Parts | None]]:
    """``evaluate_ball`` for every ball, in the order given.

    Balls of alike size share a block of at most BLOCK_CELLS padded cells,
    which is gathered, sorted and scanned as one array pass; only the principal
    direction, its projection and the measured core radii are computed ball by
    ball. Every length is the one-ball computation's, bit for bit, so the
    verdicts do not depend on how the balls are grouped.
    """
    d = values.shape[1]
    results: list = [None] * len(balls)
    for run in _chunks([ball.size for ball in balls], d):
        chunk = [balls[i] for i in run]
        l1 = l1_length(BallStats(np.array([ball.size for ball in chunk]),
                                 np.stack([ball.stats.sum for ball in chunk]),
                                 np.array([ball.stats.sumsq for ball in chunk])), d)
        for i, result in zip(run, map(_verdict, l1.tolist(), _best_splits(chunk, values, n_min),
                                      _best_peels(chunk, values, n_min))):
            results[i] = result
    return results


def evaluate_ball(ball: GranularBall, values: np.ndarray,
                  n_min: int) -> tuple[ModelVerdict, Parts | None]:
    """Run the three-way competition and return the verdict with the winning partition.

    The partition is None when the ball stays whole (M1), the (left, right)
    split for M2 and the (core, residual) peel for M3. Exact ties prefer the
    least-destructive explanation: keep > peel > split. This is
    ``evaluate_balls`` on one ball.
    """
    return evaluate_balls([ball], values, n_min)[0]
