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

from .core import (BallStats, ModelChoice, ModelVerdict, squared_distances, stats_from_points,
                   stack_stats, stats_sse)

LOG_2PI = math.log(2.0 * math.pi)
SHELL_LOG_FLOOR = math.log(1e-300)
RADIUS_FLOOR = 1e-12
VARIANCE_FLOOR = 1e-12  # keeps duplicate-heavy balls at a finite, comparable cost


def ball_radius(points: np.ndarray, center: np.ndarray) -> float:
    """Maximum Euclidean distance from any member point to the center."""
    return float(np.sqrt(squared_distances(np.transpose(points), center[:, None]).max()))


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
# a gathered chunk of balls: sizes (B,), members (B, L), points (B, L, d), stacked and own stats
Block = tuple[np.ndarray, np.ndarray, np.ndarray, BallStats, list[BallStats]]
# a block scan, per ball: best length (+inf if infeasible), first part's size, scanned members
Scan = tuple[np.ndarray, np.ndarray, np.ndarray]
# the competition's explanations in order of preference on an exact tie
WINNERS = (ModelChoice.SINGLE_BALL, ModelChoice.CORE_RESIDUAL, ModelChoice.TWO_BALL)

# The batched scans, residual reattachment, ownership and k-means++ groups price at
# most about this many float64 cells (512 KB) per array at a time, so their scratch
# memory does not grow with n; a k-means++ seed of more cells is a group of its own.
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


def _block(balls: list[np.ndarray], values: np.ndarray) -> Block:
    """The balls' member arrays padded to the largest size: sizes (B,), members (B, L),
    points (B, L, d) and each ball's stats from its own rows, stacked and one by one.
    Padding repeats sample 0; keyed +inf, it sorts last and no feasible cut reads it."""
    sizes = np.array([ball.size for ball in balls])
    members = np.zeros((len(balls), sizes.max()), dtype=np.int64)
    members[np.arange(members.shape[1]) < sizes[:, None]] = np.concatenate(balls)
    pts = values[members]
    stats = [stats_from_points(pts[b, :size]) for b, size in enumerate(sizes.tolist())]
    return sizes, members, pts, stack_stats(stats), stats


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


def _parts(scan: Scan, b: int, size: int) -> Parts | None:
    """Row b of a block scan as the ascending (first ``cut`` scanned members, rest)
    pair, or None when the row has no feasible partition."""
    lengths, cuts, rows = scan
    if lengths[b] == math.inf:
        return None
    row = rows[b, :size]
    return np.sort(row[:cuts[b]]), np.sort(row[cuts[b]:])


def _best_splits(block: Block, n_min: int) -> Scan:
    """``l2_best_split`` of every ball in a gathered block."""
    sizes, members, pts = block[:3]
    key = np.full(members.shape, np.inf)
    feasible = sizes >= 2 * n_min
    for b in np.flatnonzero(feasible).tolist():
        # the ball's own rows, copied, as a padded scatter or projection rounds differently
        ball_pts = pts[b, :sizes[b]].copy()
        direction = first_principal_direction(ball_pts)
        if direction is None:
            feasible[b] = False
        else:
            key[b, :sizes[b]] = ball_pts @ direction
    if not feasible.any():
        return np.full(len(sizes), math.inf), sizes, members   # no row is cut

    sorted_members, _, _, left = _sorted_prefix(members, pts, key)
    rows = np.arange(len(sizes))
    total = BallStats(sizes, left.sum[rows, sizes - 1], left.sumsq[rows, sizes - 1])
    # right counts are clamped at 1 past the last cut, where no length is kept
    right = BallStats(np.maximum(total.count[:, None] - left.count, 1),
                      total.sum[:, None] - left.sum, total.sumsq[:, None] - left.sumsq)
    d = pts.shape[2]
    lengths = partition_cost(left.count, right.count) \
        + l1_length(left, d) + l1_length(right, d)
    lengths[(left.count < n_min) | (right.count < n_min) | ~feasible[:, None]] = np.inf
    best = np.argmin(lengths, axis=1)  # first minimum = smallest left half
    return lengths[rows, best], best + 1, sorted_members


def l2_best_split(ball: np.ndarray, values: np.ndarray,
                  n_min: int) -> tuple[float, Parts | None]:
    """Cheapest two-ball explanation over all feasible principal-direction cuts.

    The points of the ascending member array ``ball`` are projected onto the
    first principal direction and stable-sorted by (projection, original
    index); every prefix length m1 with both halves at least n_min is
    evaluated from running sufficient statistics, so each cut costs O(d).
    Returns the best length and the (left, right) member indices, each
    ascending, or (+inf, None) when no cut is feasible or the direction is
    degenerate. This is the one-ball case of ``evaluate_balls``' block scan.
    """
    scan = _best_splits(_block([ball], values), n_min)
    return float(scan[0][0]), _parts(scan, 0, ball.size)


def core_radius_bounds(farthest: np.ndarray, means: np.ndarray,
                       center: np.ndarray) -> np.ndarray:
    """Upper bound on the radius of every prefix core about its own mean.

    ``farthest`` is each core's largest point distance to ``center``, and the bound adds
    the mean's distance to it; ``means`` and ``center`` are feature-major. (d + 4)·8
    eps of slack keeps the bound above the rounded exact radius where the triangle
    inequality is tight (collinear points).
    """
    d = means.shape[0]
    return (farthest + np.sqrt(squared_distances(means, center))) \
        * (1.0 + 8 * (d + 4) * math.ulp(1.0))


def _best_peels(block: Block, n_min: int) -> Scan:
    """``l3_best_peel`` of every ball in a gathered block; column j is the core of
    j + 1 points."""
    sizes, members, pts, stats, _ = block
    centers = (stats.sum / sizes[:, None]).T[..., None]   # (d, B, 1)
    dist = np.sqrt(squared_distances(np.moveaxis(pts, 2, 0), centers))
    sorted_members, sorted_pts, sorted_dist, core = _sorted_prefix(
        members, pts, np.where(np.arange(pts.shape[1]) < sizes[:, None], dist, np.inf))
    rows = np.arange(len(sizes))
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

    low = lengths(..., np.s_[:, None],
                  core_radius_bounds(sorted_dist, np.moveaxis(means, 2, 0), centers))
    low[(q < 1) | (core.count < n_min) | ~feasible[:, None]] = np.inf
    best = np.full(len(sizes), np.inf)
    cut = np.zeros(len(sizes), dtype=np.int64)
    open_rows = rows[feasible]
    while True:   # one best-first step per open ball
        j = low.shape[1] - 1 - np.argmin(low[open_rows, ::-1], axis=1)   # ties: smallest q
        going = low[open_rows, j] <= best[open_rows]   # else every q left is priced above best
        open_rows, j = open_rows[going], j[going]
        if not open_rows.size:
            return best, cut, sorted_members
        radii = np.array([ball_radius(sorted_pts[b, :k + 1], means[b, k])
                          for b, k in zip(open_rows.tolist(), j.tolist())])
        got = lengths((open_rows, j), open_rows, radii)
        wins = (got < best[open_rows]) | ((got == best[open_rows]) & (j + 1 > cut[open_rows]))
        best[open_rows[wins]], cut[open_rows[wins]] = got[wins], j[wins] + 1
        low[open_rows, j] = np.inf


def l3_best_peel(ball: np.ndarray, values: np.ndarray,
                 n_min: int) -> tuple[float, Parts | None]:
    """Cheapest core-plus-residual explanation over all feasible residual sizes.

    The ascending member array ``ball`` is sorted by distance to the ball's
    center (ties by original index); the largest distance is the radius r_B.
    For residual size q the core keeps the nearest n_B - q points; its cost is the
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
    scan = _best_peels(_block([ball], values), n_min)
    return float(scan[0][0]), _parts(scan, 0, ball.size)


def evaluate_balls(balls: list[np.ndarray], values: np.ndarray,
                   n_min: int) -> list[ModelVerdict]:
    """``evaluate_ball``'s verdict for every ball, in the order given.

    Each ball is an ascending member array. Balls of alike size share a block
    of at most BLOCK_CELLS padded cells, which is gathered once and gives each
    ball its stats, then sorted and scanned by the split and the peel as array
    passes; only the principal direction, its projection and the measured core
    radii are computed ball by ball. Only the winner's two parts are sorted, and
    an M1 verdict keeps the stats that priced it. Every length is the one-ball
    computation's, bit for bit, so the verdicts do not depend on the grouping.
    """
    d = values.shape[1]
    verdicts: list = [None] * len(balls)
    for run in _chunks([ball.size for ball in balls], d):
        block = _block([balls[i] for i in run], values)
        l1 = l1_length(block[3], d)
        split, peel = _best_splits(block, n_min), _best_peels(block, n_min)
        # the first minimum over (keep, peel, split): exact ties go to the least destructive
        winners = np.argmin([l1, peel[0], split[0]], axis=0).tolist()
        for b, (i, won) in enumerate(zip(run, winners)):
            parts = None if won == 0 else _parts((peel, split)[won - 1], b, balls[i].size)
            verdicts[i] = ModelVerdict(WINNERS[won], float(l1[b]), float(split[0][b]),
                                       float(peel[0][b]), parts, None if won else block[4][b])
    return verdicts


def evaluate_ball(ball: np.ndarray, values: np.ndarray,
                  n_min: int) -> tuple[ModelVerdict, Parts | None]:
    """Run the three-way competition and return the verdict with its partition.

    ``ball`` is an ascending member array. ``verdict.parts`` is None when it
    stays whole (M1), the (left, right) split for M2 and the (core, residual)
    peel for M3. Exact ties prefer the least-destructive explanation: keep >
    peel > split. This is ``evaluate_balls`` on one ball.
    """
    verdict, = evaluate_balls([ball], values, n_min)
    return verdict, verdict.parts
