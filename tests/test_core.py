import dataclasses

import numpy as np
import pytest

from gbmdl.backends import cluster_or_passthrough
from gbmdl.core import (
    BallStats,
    Dataset,
    GranularBall,
    minmax_normalize,
    squared_distances,
    stats_add_point,
    stats_from_points,
    stats_sse,
)
from gbmdl.errors import DataQualityError
from gbmdl.generation import generate
from gbmdl.metrics import acc, ari, nmi
from gbmdl.models import ball_radius

from oracles import sq_dist, two_pass_sse


class TestDataset:
    def test_shape_and_labels(self):
        ds = Dataset(values=np.array([[0.0, 1.0], [1.0, 0.0]]), labels=[0, 1])
        assert ds.n == 2 and ds.d == 2
        assert ds.labels.tolist() == [0, 1]

    def test_one_dim_input_promoted(self):
        ds = Dataset(values=np.array([0.1, 0.2, 0.3]))
        assert ds.n == 3 and ds.d == 1

    def test_rejects_non_finite(self):
        with pytest.raises(DataQualityError):
            Dataset(values=np.array([[0.0], [np.nan]]))
        with pytest.raises(DataQualityError):
            Dataset(values=np.array([[np.inf, 1.0]]))

    def test_rejects_bad_label_length(self):
        with pytest.raises(DataQualityError, match=r"^labels must be one value per sample$"):
            Dataset(values=np.array([[0.0], [1.0]]), labels=[1])

    @pytest.mark.parametrize("labels", [[None, 1, 1, 2], [1, "1", 2, 2]],
                             ids=["none", "int-and-str"])
    def test_rejects_labels_that_do_not_sort(self, labels):
        # the scores sort labels: None would fail there with a bare TypeError,
        # and numpy would merge 1 and "1" into one string class
        with pytest.raises(DataQualityError, match=r"^labels must be mutually comparable values$"):
            Dataset(values=np.arange(4.0), labels=labels)

    @pytest.mark.parametrize("classes", [[0.5, 1.7, 1.2], ["a", "b", "c"]],
                             ids=["fractional", "strings"])
    def test_labels_kept_as_given(self, classes):
        # labels are compared by equality only: a cast to integers would merge 1.7 and 1.2
        rng = np.random.default_rng(0)
        values = np.vstack([rng.normal(loc=c, scale=0.02, size=(40, 2))
                            for c in [(0.2, 0.2), (0.8, 0.8), (0.2, 0.8)]])
        truth = np.repeat(classes, 40)
        ds = minmax_normalize(Dataset(values=values, labels=truth))
        assert np.array_equal(ds.labels, truth) and np.unique(ds.labels).size == 3
        result = generate(ds)
        clustering = cluster_or_passthrough(list(result.stable_balls), 3, "ac")
        predicted = clustering.ball_labels[result.ownership]
        assert (ari(ds.labels, predicted), acc(ds.labels, predicted),
                nmi(ds.labels, predicted)) == (1.0, 1.0, 1.0)

    def test_rejects_empty(self):
        with pytest.raises(DataQualityError):
            Dataset(values=np.empty((0, 3)))

    def test_rejects_three_dim_input(self):
        with pytest.raises(DataQualityError, match=r"^expected a 2-D sample matrix, got ndim=3$"):
            Dataset(values=np.zeros((2, 2, 2)))


class TestBallCenter:
    def test_two_point_midpoint(self):
        ball = GranularBall.from_members(np.array([[0.0, 0.0], [0.0, 2.0]]), np.arange(2))
        assert np.allclose(ball.center, [0.0, 1.0])

    def test_singleton_is_its_own_center(self):
        ball = GranularBall.from_members(np.array([[0.3]]), np.arange(1))
        assert ball.center == pytest.approx(0.3)

    def test_three_point_mean(self):
        ball = GranularBall.from_members(np.array([[0.0], [1.0], [0.4]]), np.arange(3))
        assert ball.center[0] == pytest.approx(1.4 / 3, abs=1e-12)

    def test_computed_once_and_not_assignable(self):
        values = np.random.default_rng(13).random((9, 3))
        ball = GranularBall.from_members(values, np.array([1, 4, 6]))
        assert ball.center is ball.center
        assert ball.center.tobytes() == (ball.stats.sum / ball.stats.count).tobytes()
        with pytest.raises(dataclasses.FrozenInstanceError):
            ball.center = np.zeros(3)


class TestBallRadius:
    def test_two_points(self):
        assert ball_radius(np.array([[0.0], [1.0]]), np.array([0.5])) == pytest.approx(0.5)

    def test_singleton_zero(self):
        assert ball_radius(np.array([[0.7]]), np.array([0.7])) == 0.0

    def test_three_four_five_triangle(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert ball_radius(pts, np.array([1.5, 2.0])) == pytest.approx(2.5)


class TestSquaredDistances:
    @pytest.mark.parametrize("m", [1, 2, 3, 600])
    @pytest.mark.parametrize("d", [1, 4, 7, 8, 13, 33, 130])
    def test_sums_features_in_index_order(self, d, m):
        rng = np.random.default_rng(100 * d + m)
        # magnitudes spread over features, so the order of the sum shows in the last bit
        values = rng.random((m + 4, d)) * rng.random(d) * 2.0 ** rng.integers(-8, 8, d)
        points = rng.random((3, d))
        subset = rng.permutation(m + 4)[:m]
        # a transposed gather is F-ordered; numpy reduces its leading axis pairwise
        for cols in (np.ascontiguousarray(values[subset].T), values[subset].T):
            want = [[sq_dist(col, p) for col in cols.T] for p in points]
            assert np.array_equal(squared_distances(cols, points), want)
            if m > 1:
                assert np.array_equal(squared_distances(cols, points[1]), want[1])

    @pytest.mark.parametrize("d", [1, 8, 130])
    def test_one_distance_is_refused(self, d):
        # numpy sums a lone (d, 1) column pairwise, like a row
        for point in (np.zeros(d), np.zeros((1, d))):
            with pytest.raises(ValueError, match="pairwise"):
                squared_distances(np.ones((d, 1)), point)


class TestStats:
    def test_sse_two_points(self):
        stats = stats_from_points(np.array([[0.0], [1.0]]))
        assert stats_sse(stats) == pytest.approx(0.5)

    def test_sse_identical_points_zero(self):
        stats = stats_from_points(np.full((5, 3), 0.25))
        assert stats_sse(stats) == 0.0
        # values without an exact binary representation leave only rounding dust
        noisy = stats_from_points(np.full((5, 3), 0.4))
        assert 0.0 <= stats_sse(noisy) < 1e-12

    def test_add_matches_recount(self):
        rng = np.random.default_rng(7)
        sets = [rng.random((n, 4)) for n in (10, 1, 3)]
        x = rng.random(4)
        base = [stats_from_points(pts) for pts in sets]
        grown = [stats_add_point(stats, x) for stats in base]
        for pts, stats in zip(sets, grown):
            recount = stats_from_points(np.vstack([pts, x]))
            assert stats.count == recount.count
            assert np.all(np.abs(stats.sum - recount.sum) < 1e-12)
            assert abs(stats.sumsq - recount.sumsq) < 1e-12
        # stacked stats add x to every set and match the one-at-a-time results
        stacked = BallStats(count=np.array([s.count for s in base]),
                            sum=np.stack([s.sum for s in base]),
                            sumsq=np.array([s.sumsq for s in base]))
        grown_stacked = stats_add_point(stacked, x)
        assert grown_stacked.count.tolist() == [s.count for s in grown]
        assert np.array_equal(grown_stacked.sum, np.stack([s.sum for s in grown]))
        assert np.array_equal(stats_sse(grown_stacked), [stats_sse(s) for s in grown])
        # a (p, 1, d) stack of points grows every set by every point at once
        points = rng.random((5, 4))
        grid = stats_add_point(stacked, points[:, None, :])
        one_by_one = [[stats_add_point(s, p) for s in base] for p in points]
        assert np.array_equal(np.broadcast_to(grid.count, (5, 3)),
                              [[s.count for s in row] for row in one_by_one])
        assert np.array_equal(grid.sum, [[s.sum for s in row] for row in one_by_one])
        assert np.array_equal(grid.sumsq, [[s.sumsq for s in row] for row in one_by_one])
        # |x|² rounds like x @ x (einsum differs in the last bit on many 8-d rows)
        wide = rng.random((300, 8))
        grown_wide = stats_add_point(stats_from_points(wide[:3]), wide[:, None, :])
        assert np.array_equal(grown_wide.sumsq[:, 0],
                              [stats_from_points(wide[:3]).sumsq + float(x @ x) for x in wide])

    def test_incremental_matches_two_pass(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            n = int(rng.integers(2, 501))
            d = int(rng.integers(1, 21))
            pts = rng.normal(size=(n, d)) * rng.uniform(0.1, 10)
            fast = stats_sse(stats_from_points(pts))
            slow = two_pass_sse(pts)
            assert fast == pytest.approx(slow, rel=1e-9)

    def test_radius_zero_iff_coincident(self):
        rng = np.random.default_rng(5)
        pts = rng.random((20, 3))
        assert ball_radius(pts, pts.mean(axis=0)) > 0
        same = np.full((6, 3), 0.25)
        assert ball_radius(same, same.mean(axis=0)) == 0.0


class TestGranularBall:
    def test_from_members_invariants(self):
        rng = np.random.default_rng(11)
        values = rng.random((30, 3))
        members = np.array([4, 2, 17, 9])
        ball = GranularBall.from_members(values, members)
        assert ball.members.tolist() == [2, 4, 9, 17]
        assert [f.name for f in dataclasses.fields(GranularBall)] == ["members", "stats"]
        pts = values[ball.members]
        assert np.all(np.abs(ball.center - pts.mean(axis=0)) < 1e-10)
        assert np.array_equal(ball.center, ball.stats.sum / ball.stats.count)

    def test_rejects_empty_and_duplicates(self):
        values = np.zeros((5, 2))
        with pytest.raises(ValueError, match="at least one member"):
            GranularBall(members=np.array([], dtype=np.int64),
                         stats=stats_from_points(values[:1]))
        with pytest.raises(ValueError, match="at least one member"):
            GranularBall.from_members(values, [])
        with pytest.raises(ValueError):
            GranularBall(members=np.array([1, 1]),
                         stats=stats_from_points(values[:2]))
