import math
from collections import Counter

import numpy as np
import pytest

from gbmdl import models
from gbmdl.core import (
    BallStats,
    Dataset,
    GranularBall,
    ModelChoice,
    minmax_normalize,
    stats_from_points,
)
from gbmdl.generation import adaptive_n_min, generate
from gbmdl.models import (
    RADIUS_FLOOR,
    VARIANCE_FLOOR,
    ball_radius,
    core_radius_bounds,
    evaluate_ball,
    evaluate_balls,
    first_principal_direction,
    l1_length,
    l2_best_split,
    l3_best_peel,
    log_ball_volume,
    log_shell_volume,
    partition_cost,
)

from oracles import (
    best_peel_bruteforce,
    best_split_bruteforce,
    core_radii_loop,
    is_ascending_partition,
    l1_numeric,
    sq_dists,
)
from oracles import log_ball_volume as oracle_log_ball_volume
from oracles import log_shell_volume as oracle_log_shell_volume

FLOOR = VARIANCE_FLOOR


def ball_of(points) -> GranularBall:
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return GranularBall.from_members(pts, np.arange(len(pts)))


SCAN_KINDS = ["normal"] * 25 + ["embedded", "lattice"] * 20


def scan_ball(rng, n, d, kind):
    """A ball of n points in d dimensions and the matrix its members index.

    "normal" balls are the whole matrix, so member ids equal positions.
    "embedded" balls are an ascending, non-contiguous subset of a matrix three
    times their size; "lattice" ones too, with every coordinate on a coarse
    grid, so many projections and distances tie exactly.
    """
    if kind == "normal":
        values = rng.normal(size=(n, d))
        return values, ball_of(values)
    values = rng.normal(size=(3 * n, d)) if kind == "embedded" \
        else rng.integers(0, 3, size=(3 * n, d)) / 2.0
    ball = GranularBall.from_members(values, np.sort(rng.choice(3 * n, size=n, replace=False)))
    assert np.diff(ball.members).max() > 1
    return values, ball


class TestL1Length:
    def test_two_point_hand_value(self):
        got = l1_length(stats_from_points(np.array([[0.0], [1.0]])), d=1)
        assert got == pytest.approx(1.0 + math.log(math.pi / 2) + math.log(2), abs=1e-12)

    def test_singleton_penalty_vanishes(self):
        for d in (1, 3, 7):
            got = l1_length(stats_from_points(np.zeros((1, d))), d=d)
            assert got == pytest.approx(0.5 * d * (1.0 + math.log(2 * math.pi * FLOOR)),
                                        abs=1e-12)

    def test_duplicate_pair_floored(self):
        got = l1_length(stats_from_points(np.array([[0.0], [0.0]])), d=1)
        expected = 1.0 + math.log(2 * math.pi * FLOOR) + math.log(2)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-24.10, abs=0.01)

    def test_matches_numeric_nll_route(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            m = int(rng.integers(2, 301))
            d = int(rng.integers(1, 31))
            pts = rng.normal(size=(m, d)) * rng.uniform(0.05, 5.0)
            assert l1_length(stats_from_points(pts), d) == pytest.approx(
                l1_numeric(pts), rel=1e-9)

    def test_scale_monotonicity(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(40, 3))
        mean = pts.mean(axis=0)
        previous = l1_length(stats_from_points(pts), 3)
        for s in (0.8, 0.5, 0.2):
            shrunk = mean + s * (pts - mean)
            current = l1_length(stats_from_points(shrunk), 3)
            assert current < previous
            previous = current

    def test_translation_invariance(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(25, 4))
        shift = rng.normal(size=4) * 100
        a = l1_length(stats_from_points(pts), 4)
        b = l1_length(stats_from_points(pts + shift), 4)
        assert b == pytest.approx(a, rel=1e-9)


class TestPartitionCost:
    def test_balanced(self):
        assert partition_cost(2, 2) == pytest.approx(4 * math.log(2), abs=1e-12)

    def test_unbalanced(self):
        expected = 3 * (-(1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3))
        assert partition_cost(1, 2) == pytest.approx(expected, abs=1e-12)
        assert partition_cost(1, 2) == pytest.approx(1.9095, abs=1e-4)

    def test_degenerate_partition_free(self):
        assert partition_cost(5, 0) == 0.0
        assert partition_cost(0, 5) == 0.0
        m1, m2 = np.array([5, 0, 0, 1, 2, 7]), np.array([0, 5, 0, 2, 2, 3])
        assert partition_cost(m1, m2).tolist() == [
            partition_cost(int(a), int(b)) for a, b in zip(m1, m2)]

    def test_stirling_binomial_approximation(self):
        # the entropy cost tracks ln C(n, m1) and tightens as n grows
        worst = []
        for n in (100, 1000, 10000):
            m1 = np.arange(1, n)
            log_binom = (math.lgamma(n + 1)
                         - np.array([math.lgamma(m + 1) for m in m1])
                         - np.array([math.lgamma(n - m + 1) for m in m1]))
            entropy = np.array([partition_cost(int(m), int(n - m)) for m in m1])
            ratio = np.abs(log_binom - entropy) / n
            worst.append(ratio.max())
            assert ratio.max() <= 0.1
        assert worst[0] > worst[1] > worst[2]


class TestFirstPrincipalDirection:
    def test_axis_aligned(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, 0.0]])
        assert np.allclose(first_principal_direction(pts), [1.0, 0.0], atol=1e-10)

    def test_diagonal_line(self):
        t = np.linspace(0, 1, 9)
        pts = np.stack([t, t], axis=1)
        got = first_principal_direction(pts)
        assert np.allclose(got, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-8)

    def test_degenerate_when_identical(self):
        assert first_principal_direction(np.full((5, 3), 0.2)) is None

    def test_one_point_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^need at least two points for a principal direction$"):
            first_principal_direction(np.array([[0.3, 0.7]]))

    def test_sign_convention(self):
        pts = np.stack([np.linspace(0, 1, 11), -np.linspace(0, 1, 11)], axis=1)
        got = first_principal_direction(pts)
        assert got[0] > 0

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            pts = rng.normal(size=(rng.integers(5, 60), rng.integers(2, 8)))
            pts = pts @ np.diag(rng.uniform(0.2, 3.0, pts.shape[1]))
            got = first_principal_direction(pts)
            cov = np.cov(pts, rowvar=False, bias=True)
            w, v = np.linalg.eigh(np.atleast_2d(cov))
            ref = v[:, -1]
            assert abs(abs(got @ ref) - 1.0) < 1e-6

    def test_rayleigh_quotient_reaches_top_eigenvalue(self):
        # nearly isotropic balls have close top eigenvalues, where an
        # iterative solver stops short of the first principal direction
        rng = np.random.default_rng(22)
        short = []
        for _ in range(200):
            pts = rng.normal(size=(rng.integers(20, 201), rng.integers(2, 9)))
            centered = pts - pts.mean(axis=0)
            scatter = centered.T @ centered
            v = first_principal_direction(pts)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            if v @ scatter @ v < np.linalg.eigvalsh(scatter)[-1] * (1 - 1e-9):
                short.append(pts.shape)
        assert short == []


class TestLogVolumes:
    def test_circle(self):
        assert log_ball_volume(2, 1.0) == pytest.approx(math.log(math.pi), abs=1e-12)

    def test_segment(self):
        assert log_ball_volume(1, 2.0) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_sphere(self):
        assert log_ball_volume(3, 1.0) == pytest.approx(math.log(4 * math.pi / 3), abs=1e-12)

    def test_high_dimension_stays_finite(self):
        assert math.isfinite(log_ball_volume(500, 0.5))

    def test_shell_direct(self):
        assert log_shell_volume(1, 2.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_shell_empty_core(self):
        assert log_shell_volume(4, 1.5, 0.0) == log_ball_volume(4, 1.5)

    def test_shell_degenerate(self):
        assert log_shell_volume(3, 1.0, 1.0) == math.log(1e-300)
        assert log_shell_volume(3, 1.0, 2.0) == math.log(1e-300)
        radii = np.array([1.0, 2.0, 0.0, 0.5, 1e-13])
        assert log_shell_volume(3, 1.0, radii).tolist() == [
            log_shell_volume(3, 1.0, float(r)) for r in radii]
        # an outer radius at or below RADIUS_FLOOR floors both log-volumes to one
        # value, and an open 300-d shell has a log-volume below ln(1e-300)
        for d, r_out, r_core in [(3, 1e-13, 5e-14), (300, 0.01, 0.005)]:
            assert log_shell_volume(d, r_out, r_core) == math.log(1e-300)
            assert log_shell_volume(d, r_out, np.array([r_core, r_out])).tolist() == [
                math.log(1e-300)] * 2

    def test_matches_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            d = int(rng.integers(1, 40))
            r_out = float(rng.uniform(0.01, 3.0))
            r_core = float(rng.uniform(0.0, r_out))
            assert log_shell_volume(d, r_out, r_core) == pytest.approx(
                oracle_log_shell_volume(d, r_out, r_core), rel=1e-9)
            assert log_ball_volume(d, r_out) == pytest.approx(
                oracle_log_ball_volume(d, r_out), rel=1e-9)
            radii = np.array([0.0, r_core, r_out, 1.5 * r_out])
            assert log_shell_volume(d, r_out, radii).tolist() == [
                log_shell_volume(d, r_out, float(r)) for r in radii]
            assert log_ball_volume(d, radii).tolist() == [
                log_ball_volume(d, float(r)) for r in radii]


class TestL2BestSplit:
    def test_two_clumps_1d(self):
        pts = np.array([[0.0], [0.1], [0.2], [0.9], [1.0], [1.1]])
        ball = ball_of(pts)
        l2_star, (left, right) = l2_best_split(ball.members, pts, n_min=2)
        assert left.tolist() == [0, 1, 2] and right.tolist() == [3, 4, 5]
        assert l2_star < l1_length(ball.stats, 1)
        direction = first_principal_direction(pts)
        oracle_len, (oracle_left, _) = best_split_bruteforce(pts, ball.members, direction, 2)
        assert l2_star == pytest.approx(oracle_len, rel=1e-9)
        assert np.array_equal(left, oracle_left)

    def test_infeasible_when_too_small(self):
        pts = np.array([[0.0], [0.5], [1.0]])
        l2_star, cand = l2_best_split(np.arange(len(pts)), pts, n_min=2)
        assert l2_star == math.inf and cand is None

    def test_identical_points_degenerate(self):
        pts = np.full((10, 2), 0.25)
        ball = ball_of(pts)
        l2_star, cand = l2_best_split(ball.members, pts, n_min=2)
        assert l2_star == math.inf and cand is None
        assert l2_star > l1_length(ball.stats, 2)

    def test_nearly_identical_points_still_beaten_by_single_ball(self):
        # 0.4 carries representation noise, so the direction is not degenerate;
        # the split still loses on entropy plus the doubled penalty at the floor
        pts = np.full((10, 2), 0.4)
        ball = ball_of(pts)
        l2_star, _ = l2_best_split(ball.members, pts, n_min=2)
        assert l2_star > l1_length(ball.stats, 2)

    def test_matches_bruteforce_on_random_balls(self):
        rng = np.random.default_rng(77)
        for kind in SCAN_KINDS:
            n = int(rng.integers(8, 120))
            d = int(rng.integers(1, 6))
            values, ball = scan_ball(rng, n, d, kind)
            n_min = int(rng.integers(2, max(3, n // 3)))
            l2_star, split = l2_best_split(ball.members, values, n_min)
            pts = values[ball.members]
            direction = first_principal_direction(pts)
            if n < 2 * n_min or direction is None:
                assert l2_star == math.inf and split is None
                continue
            oracle_len, oracle = best_split_bruteforce(pts, ball.members, direction, n_min)
            assert l2_star == pytest.approx(oracle_len, rel=1e-9)
            assert is_ascending_partition(split, ball.members)
            assert all(np.array_equal(a, b) for a, b in zip(split, oracle))

    def test_translation_invariance(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(30, 3))
        shifted = pts + np.array([50.0, -20.0, 7.0])
        a, _ = l2_best_split(np.arange(len(pts)), pts, 3)
        b, _ = l2_best_split(np.arange(len(shifted)), shifted, 3)
        assert b == pytest.approx(a, rel=1e-9)


def peel_cores(points, n_min):
    """The peel scan's cores: the ball, member order by (distance to the ball
    center, index), the sorted distances, the core sizes and each core's mean."""
    ball = ball_of(points)
    n = len(points)
    dist = np.sqrt(sq_dists(points, ball.center))
    order = np.lexsort((np.arange(n), dist))
    sizes = np.arange(n - 1, n_min - 1, -1)
    means = np.cumsum(points[order], axis=0)[sizes - 1] / sizes[:, None]
    return ball, order, dist[order], sizes, means


def full_scan_peel(points, n_min):
    """Every q's peel length from per-core loop radii, priced in l3_best_peel's
    order of operations; returns the first minimum and its (core, residual) pair."""
    ball, order, _, sizes, means = peel_cores(points, n_min)
    n, d = points.shape
    sorted_pts = points[order]
    sums = np.cumsum(sorted_pts, axis=0)[sizes - 1]
    core = BallStats(sizes, sums, np.cumsum(np.einsum("ij,ij->i", sorted_pts, sorted_pts))[sizes - 1])
    radii = core_radii_loop(sorted_pts, sizes, means)
    r_out = 2.0 * ball_radius(points, ball.center)
    lengths = l1_length(core, d) + (n - sizes) * log_shell_volume(d, r_out, radii) \
        + math.log(max(n, 2))
    best = int(np.argmin(lengths))
    return lengths[best], (np.sort(order[:sizes[best]]), np.sort(order[sizes[best]:]))


def peel_test_balls():
    rng = np.random.default_rng(31)
    scaled = np.random.default_rng(21)
    wide = np.random.default_rng(13)
    grid = np.array([(i, j) for i in range(8) for j in range(8)]) / 4.0
    return {
        "quarter-grid": grid[rng.permutation(64)],
        "few-levels": rng.integers(0, 3, size=(150, 4)) * 0.5,
        "offset-1e6": rng.integers(0, 4, size=(120, 3)) / 4.0 + 1e6,
        "random": rng.normal(size=(200, 8)) * 10.0 ** rng.integers(-3, 4, size=8),
        # 13 features of like scale, past the 7 that numpy's row sum adds in order
        "random-13": wide.normal(size=(180, 13)) * wide.uniform(0.5, 2.0, size=13),
        # balls on a line make the radius bound tight, so many q survive to be measured
        "lattice-1d": np.repeat(np.arange(5) / 4.0, 60)[:, None],
        "even-1d": (np.arange(500) / 499.0)[:, None],
        "collinear": np.outer(np.arange(300) / 299.0, [0.6, -0.3, 0.2]) + 0.1,
        # without its slack the rounded bound falls below the rounded exact radius here
        "scaled-lattice-1d": scaled.integers(0, 20, size=(110, 1)) / 7.0 * scaled.random(),
        # a core of one repeated row far from the center is bounded at 2ρ but measures 0
        "two-rows": np.repeat(np.eye(2, 8), 500, axis=0),
    }


class TestL3BestPeel:
    def test_far_outlier_peeled(self):
        pts = np.array([[0.0], [0.05], [0.1], [0.15], [0.2], [1.0]])
        ball = ball_of(pts)
        l3_star, (core, residual) = l3_best_peel(ball.members, pts, n_min=3)
        assert core.tolist() == [0, 1, 2, 3, 4] and residual.tolist() == [5]
        assert l3_star < l1_length(ball.stats, 1)
        oracle_len, (_, oracle_residual) = best_peel_bruteforce(pts, ball.members, 3)
        assert l3_star == pytest.approx(oracle_len, rel=1e-9)
        assert np.array_equal(residual, oracle_residual)

    def test_infeasible_at_n_min(self):
        pts = np.random.default_rng(2).random((4, 2))
        l3_star, cand = l3_best_peel(np.arange(len(pts)), pts, n_min=4)
        assert l3_star == math.inf and cand is None

    def test_q_bounded_by_feasibility(self):
        rng = np.random.default_rng(6)
        pts = rng.random((12, 2))
        n_min = 5
        _, (_, residual) = l3_best_peel(np.arange(len(pts)), pts, n_min)
        assert 1 <= residual.size <= 12 - n_min

    def test_zero_radius_ball_has_no_shell(self):
        pts = np.full((8, 2), 0.25)
        l3_star, cand = l3_best_peel(np.arange(len(pts)), pts, n_min=2)
        assert l3_star == math.inf and cand is None

    def test_coincident_core_costs_the_whole_outer_ball(self):
        # a core of nine equal points has radius 0; the floored shell formula would
        # price its shell about 1.4e-12 nats below the outer ball
        pts = np.array([[0.5]] * 9 + [[0.9]])
        ball = ball_of(pts)
        l3_star, (core, residual) = l3_best_peel(ball.members, pts, n_min=2)
        assert core.tolist() == list(range(9)) and residual.tolist() == [9]
        r_b = ball_radius(pts, ball.center)
        assert l3_star == l1_length(stats_from_points(pts[:9]), 1) \
            + log_ball_volume(1, 2.0 * r_b) + math.log(10)

    def test_matches_bruteforce_on_random_balls(self):
        rng = np.random.default_rng(88)
        for kind in SCAN_KINDS:
            n = int(rng.integers(5, 100))
            d = int(rng.integers(1, 6))
            values, ball = scan_ball(rng, n, d, kind)
            n_min = int(rng.integers(2, max(3, n // 2)))
            l3_star, peel = l3_best_peel(ball.members, values, n_min)
            oracle_len, oracle = best_peel_bruteforce(values[ball.members], ball.members, n_min)
            if oracle is None:
                assert l3_star == math.inf and peel is None
                continue
            assert l3_star == pytest.approx(oracle_len, rel=1e-9)
            assert is_ascending_partition(peel, ball.members)
            assert all(np.array_equal(a, b) for a, b in zip(peel, oracle))

    def test_translation_invariance(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(30, 3))
        shifted = pts + np.array([-9.0, 4.0, 100.0])
        a, _ = l3_best_peel(np.arange(len(pts)), pts, 3)
        b, _ = l3_best_peel(np.arange(len(shifted)), shifted, 3)
        assert b == pytest.approx(a, rel=1e-9)

    def test_centre_distances_sum_features_in_index_order(self):
        # The farthest pair's squared offset is 2^54 plus 31 terms of 1.375², each under
        # half its ulp: added in feature order they vanish, while numpy's row sum gathers
        # them in eight partial sums first and lands 56 higher, which moves r_B by 7 ulps
        # and l3_star with it. Integer coordinates and mirrored points put the centre at 0.
        d = 32
        half = np.random.default_rng(0).integers(-2 ** 24, 2 ** 24, size=(24, d)) * 1.0
        far = np.full(d, 1.375)
        far[0] = 2.0 ** 27
        assert sq_dists(far, np.zeros(d)) == 2.0 ** 54 != np.square(far).sum()
        points = np.vstack([half, far, -half, -far]) * 2.0 ** -27
        ball = ball_of(points)
        assert not ball.center.any()
        for n_min in (2, 12):
            length, (core, residual) = l3_best_peel(ball.members, points, n_min)
            want, (want_core, want_residual) = full_scan_peel(points, n_min)
            assert length == want
            assert np.array_equal(core, want_core) and np.array_equal(residual, want_residual)

    @pytest.mark.parametrize("name", sorted(peel_test_balls()))
    def test_bit_equal_to_full_scan(self, name, monkeypatch):
        points = peel_test_balls()[name]
        measured = []
        monkeypatch.setattr(models, "ball_radius",
                            lambda pts, center: measured.append(len(pts)) or ball_radius(pts, center))
        survivors = []
        for n_min in (2, len(points) // 4):
            measured.clear()
            length, (core, residual) = l3_best_peel(np.arange(len(points)), points, n_min)
            want, (want_core, want_residual) = full_scan_peel(points, n_min)
            assert length == want
            assert np.array_equal(core, want_core) and np.array_equal(residual, want_residual)
            assert 1 <= len(measured) <= len(points) - n_min
            survivors.append(len(measured))
        # best-first counts at n_min = 2 and len // 4; most balls measure one q
        assert survivors == {"collinear": [5, 5], "even-1d": [15, 15], "lattice-1d": [1, 5],
                             "two-rows": [499, 251]}.get(name, [1, 1])


class TestCoreRadii:
    """The radius bound the peel scan prices every core with must sit at or
    above the core's exact radius, so the scan still finds the full scan's
    first minimum."""

    @staticmethod
    def check(points, n_min):
        ball, order, dist_sorted, sizes, means = peel_cores(points, 1)
        bounds = core_radius_bounds(dist_sorted[sizes - 1], means.T, ball.center[:, None])
        assert np.all(bounds >= core_radii_loop(points[order], sizes, means))
        length, peel = l3_best_peel(np.arange(len(points)), points, n_min)
        want, want_peel = full_scan_peel(points, n_min)
        assert length == want
        assert all(np.array_equal(a, b) for a, b in zip(peel, want_peel))

    # powers of two keep every mantissa; the odd factors change every rounding
    @pytest.mark.parametrize("scale", [1, 3, 50, 997, 1 << 20])
    @pytest.mark.parametrize("name", ["few-levels", "offset-1e6", "quarter-grid", "random",
                                      "random-13"])
    def test_bit_equal_to_per_core_loop(self, name, scale):
        self.check(peel_test_balls()[name] * scale, n_min=2)

    def test_bit_equal_on_random_balls(self):
        rng = np.random.default_rng(32)
        for _ in range(150):
            n, d = int(rng.integers(2, 150)), int(rng.integers(1, 10))
            kind = rng.integers(3)
            if kind == 0:
                points = rng.integers(0, int(rng.integers(2, 6)), size=(n, d)) / 4.0
            elif kind == 1:
                points = np.outer(rng.integers(0, 20, size=n) / 19.0, rng.normal(size=d))
            else:
                points = rng.normal(size=(n, d))
            points = points * 10.0 ** rng.integers(-6, 7) + rng.choice([0.0, 1e3, -1e6])
            if ball_radius(points, ball_of(points).center) > RADIUS_FLOOR:
                self.check(points, n_min=int(rng.integers(1, n)))


class TestEvaluateBall:
    def test_two_clumps_choose_split(self):
        pts = np.array([[0.0], [0.1], [0.2], [0.9], [1.0], [1.1]])
        verdict, parts = evaluate_ball(np.arange(len(pts)), pts, n_min=2)
        assert verdict.choice is ModelChoice.TWO_BALL
        assert parts is verdict.split and verdict.peel_q is None
        assert parts[0].tolist() == [0, 1, 2] and parts[1].tolist() == [3, 4, 5]

    def test_outlier_chooses_peel(self):
        pts = np.array([[0.0], [0.05], [0.1], [0.15], [0.2], [1.0]])
        verdict, parts = evaluate_ball(np.arange(len(pts)), pts, n_min=3)
        assert verdict.choice is ModelChoice.CORE_RESIDUAL
        assert verdict.peel_q == 1 and verdict.split is None
        assert parts[1].size == verdict.peel_q and parts[1].tolist() == [5]

    def test_verdicts_compare_and_hash_by_identity(self):
        # a two-clump ball's verdict holds its split's member arrays
        pts = np.array([[0.0], [0.1], [0.2], [0.9], [1.0], [1.1]])
        first, second = (evaluate_ball(np.arange(len(pts)), pts, n_min=2)[0] for _ in range(2))
        assert first.choice is second.choice is ModelChoice.TWO_BALL
        assert first == first and first != second
        assert len({first, second, first}) == 2

    def test_small_ball_forced_single(self):
        pts = np.array([[0.0], [1.0]])
        verdict, parts = evaluate_ball(np.arange(len(pts)), pts, n_min=2)
        assert verdict.choice is ModelChoice.SINGLE_BALL and parts is None
        assert verdict.l2_star == math.inf and verdict.l3_star == math.inf

    def test_members_and_stats_suffice(self):
        # the member array is the whole input: the block scan prices it with the stats
        # that GranularBall.from_members gives the same members, bit for bit
        rng = np.random.default_rng(41)
        for kind in SCAN_KINDS:
            n, d = int(rng.integers(5, 80)), int(rng.integers(1, 5))
            values, ball = scan_ball(rng, n, d, kind)
            n_min = int(rng.integers(2, max(3, n // 3)))
            verdict, _ = evaluate_ball(ball.members, values, n_min)
            assert verdict.l1.hex() == float(l1_length(ball.stats, d)).hex()

    def test_choice_is_argmin(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            pts = rng.normal(size=(int(rng.integers(5, 60)), int(rng.integers(1, 5))))
            ball = ball_of(pts)
            verdict, parts = evaluate_ball(ball.members, pts, n_min=2)
            best = min(verdict.l1, verdict.l2_star, verdict.l3_star)
            chosen = {ModelChoice.SINGLE_BALL: verdict.l1,
                      ModelChoice.TWO_BALL: verdict.l2_star,
                      ModelChoice.CORE_RESIDUAL: verdict.l3_star}[verdict.choice]
            assert chosen == best
            assert parts is verdict.parts
            assert (parts is None) == (verdict.choice is ModelChoice.SINGLE_BALL)
            if verdict.choice is ModelChoice.TWO_BALL:
                assert parts is verdict.split
            elif verdict.choice is ModelChoice.CORE_RESIDUAL:
                assert parts[1].size == verdict.peel_q
            if parts is not None:
                assert is_ascending_partition(parts, ball.members)


def flat_lengths(monkeypatch, whole, pair, shell):
    """Price every 12-point ball at ``whole`` nats and every feasible split of it at
    ``pair``; a core costs nothing but ``shell`` per residual point and ln 12.

    With ``shell`` 0 every feasible residual size ties at exactly ln 12."""
    def shape(*arrays):
        return np.broadcast(*arrays).shape

    monkeypatch.setattr(models, "l1_length", lambda stats, d: np.where(
        np.broadcast_to(stats.count, shape(stats.count, stats.sumsq)) >= 12, whole, 0.0))
    monkeypatch.setattr(models, "partition_cost", lambda m1, m2: np.full(shape(m1, m2), pair))
    monkeypatch.setattr(models, "log_shell_volume",
                        lambda d, r_out, r_core: np.full(shape(r_out, r_core), shell))


def tie_test_balls():
    """Two 12-point member arrays among smaller ones over one matrix, so all share a block."""
    values = np.random.default_rng(17).random((60, 2))
    members = [np.arange(12), np.arange(12, 17), np.arange(17, 29), np.arange(29, 36)]
    return values, members


class TestExactTies:
    """Exact ties go to the least-destructive explanation, keep > peel > split, and
    among equal peels to the smallest residual."""

    LN12 = math.log(12)

    @pytest.mark.parametrize("whole, pair, choice", [
        (0.0, 0.0, ModelChoice.SINGLE_BALL),           # keep = split < peel
        (LN12, 100.0, ModelChoice.SINGLE_BALL),        # keep = peel < split
        (LN12, LN12, ModelChoice.SINGLE_BALL),         # all three equal
        (100.0, LN12, ModelChoice.CORE_RESIDUAL),      # peel = split < keep
    ], ids=["keep-split", "keep-peel", "all-three", "peel-split"])
    def test_competition(self, monkeypatch, whole, pair, choice):
        values, balls = tie_test_balls()
        flat_lengths(monkeypatch, whole, pair, shell=0.0)
        lone = evaluate_ball(balls[0], values, n_min=4)[0]
        assert (lone.l1, lone.l2_star, lone.l3_star) == (whole, pair, self.LN12)
        assert lone.choice is choice
        verdicts = evaluate_balls(balls, values, n_min=4)
        assert [verdicts[0].choice, verdicts[2].choice] == [choice, choice]

    def test_peel_takes_the_smallest_residual(self, monkeypatch):
        values, balls = tie_test_balls()
        flat_lengths(monkeypatch, 100.0, 100.0, shell=0.0)
        length, (core, residual) = l3_best_peel(balls[0], values, n_min=3)
        assert length == self.LN12 and (core.size, residual.size) == (11, 1)
        assert evaluate_ball(balls[0], values, n_min=3)[0].peel_q == 1
        verdicts = evaluate_balls(balls, values, n_min=3)
        assert [v.peel_q for v in verdicts] == [1, None, 1, None]


def batch_test_balls(kind):
    """A sample matrix and the member arrays of many balls over it: sizes 1 to ~150 (one 8,000-point
    ball among 6-point ones for "big-among-small"), members drawn at random,
    so balls overlap and sit in no order of size."""
    rng = np.random.default_rng(["d1", "lattice", "duplicates", "collinear",
                                 "big-among-small"].index(kind) + 60)
    if kind == "d1":
        values = np.vstack([rng.random((300, 1)), rng.integers(0, 5, size=(300, 1)) / 4.0])
    elif kind == "lattice":
        values = rng.integers(0, 3, size=(600, 3)) / 2.0
    elif kind == "duplicates":
        values = rng.random((4, 2))[rng.integers(0, 4, size=600)]
    elif kind == "collinear":
        values = np.outer(rng.integers(0, 40, size=600) / 39.0, [0.6, -0.3, 0.2]) + 0.1
    else:
        values = rng.normal(size=(8_000, 4))
        members = [rng.choice(8_000, size=6, replace=False) for _ in range(60)]
        members.insert(27, np.arange(8_000))
        return values, [np.sort(m) for m in members]
    sizes = [*range(1, 8), *rng.integers(8, 150, size=33)]
    rng.shuffle(sizes)
    return values, [np.sort(rng.choice(600, size=n, replace=False)) for n in sizes]


class TestEvaluateBalls:
    @pytest.mark.parametrize("kind", ["d1", "lattice", "duplicates", "collinear",
                                      "big-among-small"])
    def test_equals_one_ball_at_a_time(self, kind, monkeypatch):
        values, balls = batch_test_balls(kind)
        n_min = 3
        want = [evaluate_ball(ball, values, n_min) for ball in balls]
        assert {v.choice for v, _ in want} == set(ModelChoice)
        # every ball alone, tiny balls in twos and threes, blocks of up to 24 cells, and
        # the default, where one block takes all balls but the largest
        for cells in (1, 5, 24, models.BLOCK_CELLS):
            monkeypatch.setattr(models, "BLOCK_CELLS", cells)
            got = evaluate_balls(balls, values, n_min)
            assert len(got) == len(balls)
            for g, (w, w_parts) in zip(got, want):
                assert (g.choice, g.peel_q) == (w.choice, w.peel_q)
                assert [x.hex() for x in (g.l1, g.l2_star, g.l3_star)] \
                    == [x.hex() for x in (w.l1, w.l2_star, w.l3_star)]
                assert (g.parts is None) == (w_parts is None)
                if w_parts is not None:
                    assert all(np.array_equal(a, b) for a, b in zip(g.parts, w_parts))
                assert (g.stats is None) == (w_parts is not None)
                if g.stats is not None:
                    assert g.stats.sum.tobytes() == w.stats.sum.tobytes()
                    assert g.stats.sumsq.hex() == w.stats.sumsq.hex()

    def test_no_balls(self):
        assert evaluate_balls([], np.zeros((3, 2)), 2) == []

    def test_block_stats_are_the_from_members_stats(self):
        # each ball is summed from its own rows, one at a time: summing a zero-padded
        # block at once rounds the sums differently at d = 1 and the squared norms at
        # several d, so a kept ball could not take its stats from such a block
        rng = np.random.default_rng(29)
        for _ in range(150):
            d, scale = int(rng.integers(1, 33)), float(rng.choice([1e-3, 1.0, 1e3]))
            values = rng.normal(scale=scale, size=(400, d))
            balls = [np.sort(rng.choice(400, size=int(rng.integers(1, 301)), replace=False))
                     for _ in range(int(rng.integers(1, 21)))]
            sizes, _, _, stacked, own = models._block(balls, values)
            assert len(own) == len(balls) and sizes.tolist() == [b.size for b in balls]
            for b, ball in enumerate(balls):
                want = GranularBall.from_members(values, ball).stats
                for got in (own[b], BallStats(stacked.count[b], stacked.sum[b],
                                              float(stacked.sumsq[b]))):
                    assert got.count == want.count
                    assert got.sum.tobytes() == want.sum.tobytes()
                    assert got.sumsq.hex() == want.sumsq.hex()


def one_gaussian(rng, d):
    return rng.normal(0.5, 0.05, size=(400, d))


def two_gaussians(rng, d):
    shift = np.zeros(d)
    shift[0] = 0.15
    return np.vstack([rng.normal(0.5, 0.05, size=(200, d)) - shift,
                      rng.normal(0.5, 0.05, size=(200, d)) + shift])


def gaussian_and_uniform(rng, d):
    return np.vstack([rng.normal(0.5, 0.05, size=(360, d)), rng.random((40, d))])


class TestCalibration:
    """The competition's verdicts on data whose true model is known.

    These pin the current coding, bias included, so that any change to a
    description length shows here first: in few dimensions the uniform
    residual shell codes a clean Gaussian's tail more cheaply than the fitted
    Gaussian does, so M3 wins where M1 is the true model.
    """

    DIMENSIONS = (1, 2, 4, 8, 16, 32)

    @pytest.mark.parametrize("generator, expected", [
        (one_gaussian, [{"M3": 20}, {"M3": 20}, {"M1": 11, "M3": 9},
                        {"M1": 20}, {"M1": 20}, {"M1": 20}]),
        (two_gaussians, [{"M2": 20}] * 6),
        (gaussian_and_uniform, [{"M3": 20}] * 6),
    ], ids=["one-gaussian", "two-gaussians", "gaussian-and-uniform"])
    def test_single_ball_verdicts(self, generator, expected):
        # one ball of 400 points clipped to the unit cube, 20 seeds per dimension
        def verdict(seed, d):
            pts = np.clip(generator(np.random.default_rng(seed), d), 0.0, 1.0)
            return evaluate_ball(np.arange(len(pts)), pts, adaptive_n_min(400, d))[0].choice.value

        got = [Counter(verdict(seed, d) for seed in range(20)) for d in self.DIMENSIONS]
        assert got == expected

    def test_one_dimensional_background_share(self):
        # in 1-d each peeled core is peeled again, so most of a normal ends as background
        dataset = minmax_normalize(Dataset(values=np.random.default_rng(0).normal(size=(2000, 1))))
        result = generate(dataset)
        assert (result.residual_background.size, len(result.stable_balls)) == (1207, 99)
