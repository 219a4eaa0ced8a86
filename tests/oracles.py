"""Independent brute-force reference implementations used by the tests.

Everything here recomputes quantities from raw points with no shared
sufficient statistics, prefix tricks, or incremental updates, so the fast
paths in the package are checked against a genuinely different route.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import gammaln

VARIANCE_FLOOR = 1e-12
RADIUS_FLOOR = 1e-12
SHELL_LOG_FLOOR = math.log(1e-300)


def two_pass_sse(points: np.ndarray) -> float:
    pts = np.atleast_2d(points)
    return float(((pts - pts.mean(axis=0)) ** 2).sum())


def l1_numeric(points: np.ndarray) -> float:
    """Penalized negative log-likelihood evaluated numerically at the MLE.

    This is the definitional route: plug the mean and isotropic variance into
    the Gaussian NLL term by term, then add the parameter penalty.
    """
    pts = np.atleast_2d(points)
    m, d = pts.shape
    mean = pts.mean(axis=0)
    sse = float(((pts - mean) ** 2).sum())
    var = max(sse / (d * m), VARIANCE_FLOOR)
    nll = 0.5 * m * d * math.log(2.0 * math.pi * var) + sse / (2.0 * var)
    return nll + 0.5 * (d + 1) * math.log(m)


def l1_closed(points: np.ndarray) -> float:
    pts = np.atleast_2d(points)
    m, d = pts.shape
    var = max(two_pass_sse(pts) / (d * m), VARIANCE_FLOOR)
    return 0.5 * m * d * (1.0 + math.log(2.0 * math.pi * var)) \
        + 0.5 * (d + 1) * math.log(m)


def entropy_partition_cost(m1: int, m2: int) -> float:
    n = m1 + m2
    cost = 0.0
    for m in (m1, m2):
        if m:
            cost -= m * math.log(m / n)
    return cost


def log_ball_volume(d: int, r: float) -> float:
    r = max(r, RADIUS_FLOOR)
    return 0.5 * d * math.log(math.pi) - float(gammaln(0.5 * d + 1.0)) + d * math.log(r)


def log_shell_volume(d: int, r_out: float, r_core: float) -> float:
    a = log_ball_volume(d, r_out)
    if r_core <= 0.0:
        return a
    if r_core >= r_out:
        return SHELL_LOG_FLOOR
    b = log_ball_volume(d, r_core)
    if b >= a:
        return SHELL_LOG_FLOOR
    result = a + math.log1p(-math.exp(b - a))
    if not math.isfinite(result) or result < SHELL_LOG_FLOOR:
        return SHELL_LOG_FLOOR
    return result


def best_split_bruteforce(points: np.ndarray, members: np.ndarray,
                          direction: np.ndarray, n_min: int):
    """Exhaustive two-ball scan: at every feasible cut, recompute both halves
    from raw points.

    Returns (best length, (left, right)): the first m1 members in (projection,
    index) order and the rest, each as ascending member indices; the pair is
    None when no cut is feasible."""
    proj = points @ direction
    order = np.lexsort((members, proj))
    sorted_pts = points[order]
    n = len(points)
    best_len, best_m1 = math.inf, None
    for m1 in range(n_min, n - n_min + 1):
        left, right = sorted_pts[:m1], sorted_pts[m1:]
        length = entropy_partition_cost(m1, n - m1) + l1_closed(left) + l1_closed(right)
        if length < best_len:
            best_len, best_m1 = length, m1
    if best_m1 is None:
        return best_len, None
    return best_len, (np.sort(members[order[:best_m1]]), np.sort(members[order[best_m1:]]))


def best_peel_bruteforce(points: np.ndarray, members: np.ndarray, n_min: int):
    """Exhaustive core-plus-residual scan with full per-candidate recomputation.

    Returns (best length, (core, residual)): the residual is the last q
    members in (distance, index) order, and both are ascending member indices;
    the pair is None when no peel is feasible. Distances sum the features in
    index order (``sq_dists``)."""
    pts = np.atleast_2d(points)
    n, d = pts.shape
    center = pts.mean(axis=0)
    dist = np.sqrt(sq_dists(pts, center))
    r_ball = float(dist.max())
    if n <= n_min or r_ball <= RADIUS_FLOOR:
        return math.inf, None
    order = np.lexsort((members, dist))
    sorted_pts = pts[order]
    best_len, best_q = math.inf, None
    for q in range(1, n - n_min + 1):
        core = sorted_pts[: n - q]
        core_mean = core.mean(axis=0)
        core_radius = float(np.sqrt(sq_dists(core, core_mean).max()))
        length = l1_closed(core) \
            + q * log_shell_volume(d, 2.0 * r_ball, core_radius) \
            + math.log(max(n, 2))
        if length < best_len:
            best_len, best_q = length, q
    if best_q is None:
        return best_len, None
    return best_len, (np.sort(members[order[:n - best_q]]), np.sort(members[order[n - best_q:]]))


def is_ascending_partition(parts, members: np.ndarray) -> bool:
    """Both sides strictly ascending, disjoint, and together exactly ``members``."""
    a, b = parts
    return all(np.all(np.diff(side) > 0) for side in parts) \
        and not np.intersect1d(a, b).size \
        and np.array_equal(np.sort(np.concatenate([a, b])), np.sort(members))


def acc_bruteforce(true_labels, pred_labels) -> float:
    """Best matched fraction over every injective map of pred ids onto a padded
    square of true ids, by explicit permutation enumeration."""
    true_labels = np.asarray(true_labels)
    pred_labels = np.asarray(pred_labels)
    _, ti = np.unique(true_labels, return_inverse=True)
    _, pi = np.unique(pred_labels, return_inverse=True)
    r, c = ti.max() + 1, pi.max() + 1
    side = max(r, c)
    table = np.zeros((side, side), dtype=np.int64)
    np.add.at(table, (ti, pi), 1)
    best = 0
    for perm in itertools.permutations(range(side)):
        matched = sum(table[perm[j], j] for j in range(side))
        best = max(best, matched)
    return best / len(true_labels)


def ari_pairs(true_labels, pred_labels) -> float:
    """Adjusted Rand index from agreement counts over every pair i < j."""
    t, p = list(true_labels), list(pred_labels)
    both = same_t = same_p = total = 0
    for (ti, pi), (tj, pj) in itertools.combinations(zip(t, p), 2):
        total += 1
        same_t += ti == tj
        same_p += pi == pj
        both += ti == tj and pi == pj
    expected = same_t * same_p / total
    max_index = (same_t + same_p) / 2.0
    if max_index == expected:
        return 1.0
    return (both - expected) / (max_index - expected)


def nmi_definition(true_labels, pred_labels) -> float:
    """Arithmetic-mean NMI in nats: I(U;V) as the double sum over cluster pairs
    of p_ij·log(p_ij / (p_i·p_j)), divided by the mean of the two entropies."""
    t, p = list(true_labels), list(pred_labels)
    n = len(t)
    rows, cols = sorted(set(t)), sorted(set(p))
    p_t = {u: t.count(u) / n for u in rows}
    p_p = {v: p.count(v) / n for v in cols}
    h_t = -sum(q * math.log(q) for q in p_t.values())
    h_p = -sum(q * math.log(q) for q in p_p.values())
    if len(rows) == 1 or len(cols) == 1:
        return 1.0 if len(rows) == len(cols) else 0.0
    mutual = 0.0
    for u in rows:
        for v in cols:
            p_uv = sum(1 for a, b in zip(t, p) if a == u and b == v) / n
            if p_uv > 0:
                mutual += p_uv * math.log(p_uv / (p_t[u] * p_p[v]))
    return mutual / (0.5 * (h_t + h_p))


def min_sse_bipartition(points: np.ndarray):
    """Exhaustive search over all 2-partitions minimizing total within-group SSE."""
    n = len(points)
    best, best_mask = math.inf, None
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        if mask.all() or (~mask).all():
            continue
        sse = two_pass_sse(points[mask]) + two_pass_sse(points[~mask])
        if sse < best:
            best, best_mask = sse, mask
    return best_mask


def sq_dist(a, b) -> float:
    """Squared distance between two points, one Python float per feature in index
    order: ((a_0 - b_0)² + (a_1 - b_1)²) + ..."""
    total = 0.0
    for x, y in zip(np.asarray(a, dtype=np.float64).tolist(),
                    np.asarray(b, dtype=np.float64).tolist()):
        total += (x - y) * (x - y)
    return total


def sq_dists(a, b) -> np.ndarray:
    """Squared distances between the points of ``a`` and ``b``, features on the last
    axis and the rest broadcast, added one feature at a time in index order as
    ``sq_dist`` does."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    total = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    for f in range(a.shape[-1]):
        total += (a[..., f] - b[..., f]) ** 2
    return total


def farthest_point_bisect_loop(subset, values: np.ndarray):
    """Farthest-point bisection by scalar loops, summing squared distances with
    ``sq_dist``. The anchor chain starts at the lowest member, each farthest point
    is the first (lowest-index) maximum, and points equidistant from both anchors
    go to the first half. Returns both halves as ascending int64 arrays."""
    members = sorted(int(i) for i in subset)
    rows = [values[i] for i in members]

    def distances(anchor):
        return [sq_dist(row, anchor) for row in rows]

    d0 = distances(rows[0])
    d1 = distances(rows[d0.index(max(d0))])
    d2 = distances(rows[d1.index(max(d1))])
    first = [i for i, a, b in zip(members, d1, d2) if a <= b]
    second = [i for i, a, b in zip(members, d1, d2) if a > b]
    return np.array(first, dtype=np.int64), np.array(second, dtype=np.int64)


def core_radii_loop(points: np.ndarray, sizes, means: np.ndarray) -> np.ndarray:
    """Radius of each prefix core points[:size] about its mean, one direct-difference
    pass per core."""
    return np.array([np.sqrt(sq_dists(points[:size], mean)).max()
                     for size, mean in zip(sizes, means)])


def ward_replay(centers: np.ndarray) -> list[frozenset]:
    """Naive all-pairs Ward merge sequence down to one cluster.

    Every merge recomputes every live pair's SSE increase
    |A||B|/(|A|+|B|) * ||mu_A - mu_B||^2 from direct differences, summed over
    features in index order (``sq_dists``), and takes the row-major first
    minimum of the upper triangle, with live clusters kept in order of their
    lowest member. Returns the merged member set of each merge.
    """
    means = np.array(centers, dtype=np.float64)
    sizes = np.ones(len(means))
    clusters = [frozenset([i]) for i in range(len(means))]
    merges = []
    while len(clusters) > 1:
        factor = sizes[:, None] * sizes[None, :] / (sizes[:, None] + sizes[None, :])
        cost = factor * sq_dists(means[None, :, :], means[:, None, :])
        cost[np.tril_indices(len(clusters))] = np.inf
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        merges.append(clusters[i] | clusters[j])
        means[i] = (sizes[i] * means[i] + sizes[j] * means[j]) / (sizes[i] + sizes[j])
        sizes[i] += sizes[j]
        clusters[i] = merges[-1]
        means, sizes = np.delete(means, j, axis=0), np.delete(sizes, j)
        del clusters[j]
    return merges


def clusters_after(merges: list[frozenset], k: int, K: int) -> set[frozenset]:
    """The partition of range(k) left after the first k - K merges."""
    clusters = {frozenset([i]) for i in range(k)}
    for merged in merges[: k - K]:
        clusters = {c for c in clusters if not c <= merged} | {merged}
    return clusters


def kmeanspp_replay(centers: np.ndarray, K: int, seed: int) -> np.ndarray:
    """Seeded k-means++ with one Python pass per centroid and per feature.

    Seed s draws one (10, K) array of uniforms from default_rng(s % 2**63), and
    restart r seeds from row r. Its first centre is ⌊row[0]·n⌋, and centre
    j > 0 is the first point whose running D^2 sum, over the full sum, exceeds
    row[j], or ⌊row[j]·n⌋ when every D^2 is 0. When the full sum overflows to inf,
    it is the first point whose running sum is inf. Seeding and Lloyd both sum squared
    differences feature by feature in index order. Lloyd takes the first
    nearest centroid, repairs each empty cluster by stealing the point farthest
    from its centroid among clusters that keep a member, stops when the labels equal
    any earlier labels of the restart or after 300 steps, and sets each
    centroid to the sequential sum of its rows over its count. The lowest
    final SSE wins, ties to the lowest restart, and restart 0 when every SSE is inf.
    """
    points = np.array(centers, dtype=np.float64)
    n = len(points)
    uniforms = np.random.default_rng(seed % 2 ** 63).random((10, K)).tolist()

    best_labels, best_sse = None, None
    for row in uniforms:
        chosen = [int(row[0] * n)]
        d2 = sq_dists(points, points[chosen[0]])
        for u in row[1:]:
            running = list(itertools.accumulate(d2.tolist()))
            total = running[-1]
            if total == math.inf:
                nxt = running.index(math.inf)
            elif total > 0:
                nxt = next(i for i, c in enumerate(running) if c / total > u)
            else:
                nxt = int(u * n)
            chosen.append(nxt)
            d2 = np.minimum(d2, sq_dists(points, points[nxt]))
        centroids = points[chosen].copy()

        history = []
        for _ in range(300):
            dist2 = sq_dists(points[:, None], centroids[None])
            new = np.argmin(dist2, axis=1)
            counts = np.bincount(new, minlength=K)
            own = dist2[np.arange(n), new]
            for c in range(K):
                if counts[c] == 0:
                    p = int(np.argmax(np.where(counts[new] > 1, own, -1.0)))
                    counts[new[p]] -= 1
                    counts[c] = 1
                    new[p] = c
            if any(np.array_equal(earlier, new) for earlier in history):
                break
            history.append(new)
            labels = new
            for c in range(K):
                # a running sum adds the rows one by one in row order
                centroids[c] = np.cumsum(points[labels == c], axis=0)[-1] / counts[c]

        sse = float(((points - centroids[labels]) ** 2).sum())
        if best_sse is None or sse < best_sse:
            best_labels, best_sse = labels, sse
    return best_labels
