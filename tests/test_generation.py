import math

import numpy as np
import pytest

from gbmdl import generation
from gbmdl.core import Dataset, GranularBall, ModelChoice
from gbmdl.errors import ConfigurationError, DataQualityError
from gbmdl.generation import (
    GenerationConfig,
    adaptive_n_min,
    assign_samples,
    farthest_point_bisect,
    generate,
    generate_stable_balls,
    initial_ball_count,
    initialize_balls,
    reassign_residuals,
)
from gbmdl.models import l1_length, select_model
from gbmdl.core import stats_add_point


def blobs(n_per: int = 50, spread: float = 0.02, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(0.25, 0.25), scale=spread, size=(n_per, 2))
    b = rng.normal(loc=(0.75, 0.75), scale=spread, size=(n_per, 2))
    values = np.clip(np.vstack([a, b]), 0.0, 1.0)
    labels = np.array([0] * n_per + [1] * n_per)
    return Dataset(values=values, labels=labels)


class TestAdaptiveNMin:
    @pytest.mark.parametrize("n,d,expected", [(150, 4, 6), (4, 1, 3), (1, 10, 2)])
    def test_worked_values(self, n, d, expected):
        assert adaptive_n_min(n, d) == expected

    def test_never_below_two(self):
        for n in (1, 2, 5, 100):
            for d in (1, 2, 50):
                assert adaptive_n_min(n, d) >= 2


class TestInitialBallCount:
    @pytest.mark.parametrize("n,expected", [(100, 10), (1, 1), (50, 7)])
    def test_worked_values(self, n, expected):
        assert initial_ball_count(n) == expected


class TestFarthestPointBisect:
    def test_hand_trace_1d(self):
        values = np.array([[0.0], [1.0], [0.4]])
        y1, y2 = farthest_point_bisect(np.array([0, 1, 2]), values)
        assert y1.tolist() == [1]
        assert sorted(y2.tolist()) == [0, 2]

    def test_equidistant_goes_to_first_half(self):
        # anchors are 0.0 and 1.0; the midpoint ties and lands with anchor one
        values = np.array([[0.0], [1.0], [0.5]])
        y1, y2 = farthest_point_bisect(np.array([0, 1, 2]), values)
        assert 2 in y1.tolist()

    def test_two_points_become_singletons(self):
        values = np.array([[0.0], [1.0]])
        y1, y2 = farthest_point_bisect(np.array([0, 1]), values)
        assert y1.size == 1 and y2.size == 1

    def test_rejects_singleton(self):
        with pytest.raises(ValueError):
            farthest_point_bisect(np.array([3]), np.zeros((5, 2)))


class TestInitializeBalls:
    def test_single_sample(self):
        ds = Dataset(values=np.array([[0.5]]))
        balls = initialize_balls(ds, 1)
        assert len(balls) == 1 and balls[0].members.tolist() == [0]

    def test_reaches_target_count_and_partitions(self):
        rng = np.random.default_rng(8)
        ds = Dataset(values=rng.random((100, 3)))
        balls = initialize_balls(ds, 10)
        assert len(balls) == 10
        seen = np.concatenate([b.members for b in balls])
        assert np.array_equal(np.sort(seen), np.arange(100))

    def test_duplicate_pairs(self):
        values = np.array([[0.1, 0.1], [0.1, 0.1], [0.9, 0.9], [0.9, 0.9]])
        balls = initialize_balls(Dataset(values=values), 2)
        assert len(balls) == 2
        groups = sorted(tuple(b.members.tolist()) for b in balls)
        assert groups == [(0, 1), (2, 3)]

    def test_all_identical_points_stop_early(self):
        values = np.full((9, 2), 0.25)
        balls = initialize_balls(Dataset(values=values), 3)
        assert len(balls) == 1
        assert balls[0].members.size == 9


class TestGenerate:
    def test_separated_blobs_give_pure_balls(self):
        ds = blobs()
        result = generate(ds)
        assert len(result.stable_balls) >= 2
        for ball in result.stable_balls:
            blob_ids = np.unique(ds.labels[ball.members])
            assert blob_ids.size == 1

    def test_identical_points_terminate(self):
        ds = Dataset(values=np.full((40, 2), 0.25))
        result = generate(ds)
        assert sum(b.size for b in result.stable_balls) \
            + result.residual_background.size == 40
        assert all(v.choice is ModelChoice.SINGLE_BALL for _, v in result.trace)

    def test_children_strictly_smaller(self):
        ds = blobs(seed=3)
        result = generate(ds)
        assert len(result.trace) < 10_000
        for size, verdict in result.trace:
            if verdict.choice is ModelChoice.TWO_BALL:
                left, right = verdict.split
                assert left.size + right.size == size
                assert 0 < left.size < size and 0 < right.size < size
            elif verdict.choice is ModelChoice.CORE_RESIDUAL:
                assert 1 <= verdict.peel_q < size

    def test_stable_balls_are_stable(self):
        rng = np.random.default_rng(17)
        ds = Dataset(values=rng.random((300, 4)))
        stable, pool, _ = generate_stable_balls(ds)
        n_min = adaptive_n_min(ds.n, ds.d)
        for ball in stable:
            if ball.size > n_min:
                verdict = select_model(ball, ds.values, n_min)
                assert verdict.choice is ModelChoice.SINGLE_BALL

    def test_partition_before_reassignment(self):
        rng = np.random.default_rng(18)
        ds = Dataset(values=rng.random((250, 3)))
        stable, pool, _ = generate_stable_balls(ds)
        indices = np.concatenate([b.members for b in stable] + [np.array(pool, dtype=np.int64)])
        assert np.array_equal(np.sort(indices), np.arange(250))

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        ds = Dataset(values=rng.random((200, 3)))
        r1 = generate(ds)
        r2 = generate(ds)
        assert len(r1.stable_balls) == len(r2.stable_balls)
        for b1, b2 in zip(r1.stable_balls, r2.stable_balls):
            assert np.array_equal(b1.members, b2.members)
        assert np.array_equal(r1.ownership, r2.ownership)
        assert [(s, v.choice) for s, v in r1.trace] == [(s, v.choice) for s, v in r2.trace]

    def test_permutation_equivariance_on_blobs(self):
        ds = blobs(seed=4)
        rng = np.random.default_rng(40)
        perm = rng.permutation(ds.n)
        permuted = Dataset(values=ds.values[perm])
        member_sets = lambda res, values: {
            frozenset(map(tuple, values[b.members])) for b in res.stable_balls}
        sets_a = member_sets(generate(ds), ds.values)
        sets_b = member_sets(generate(permuted), permuted.values)
        assert sets_a == sets_b

    @pytest.mark.parametrize("field", ["n_min", "k0"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_overrides_below_one(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            GenerationConfig(**{field: value})

    def test_rejects_unnormalized_without_volume(self):
        ds = Dataset(values=np.array([[0.0], [5.0], [10.0]]))
        with pytest.raises(DataQualityError):
            generate(ds)
        generate(ds, background_log_volume=math.log(10.0))  # explicit volume is fine

    def test_ownership_covers_every_sample(self):
        ds = blobs(seed=6)
        result = generate(ds)
        assert result.ownership.shape == (ds.n,)
        assert result.ownership.min() >= 0
        assert result.ownership.max() < len(result.stable_balls)


class TestReassignResiduals:
    def test_midpoint_residual_prefers_background(self):
        values = np.array([[0.0], [1.0], [0.5]])
        ball = GranularBall.from_members(values, np.array([0, 1]))
        updated, attachments, background = reassign_residuals(
            [2], [ball], values, background_log_volume=0.0)
        grown = stats_add_point(ball.stats, values[2])
        delta = l1_length(grown, 1) - l1_length(ball.stats, 1)
        assert delta == pytest.approx(0.5231, abs=1e-4)
        assert delta > 0
        assert attachments == {} and background == [2]
        assert updated[0].members.tolist() == [0, 1]

    def test_nearby_residual_attaches(self):
        rng = np.random.default_rng(23)
        values = np.vstack([rng.normal(0.5, 0.01, size=(30, 2)), [[0.5, 0.5]]])
        values = np.clip(values, 0, 1)
        ball = GranularBall.from_members(values, np.arange(30))
        updated, attachments, background = reassign_residuals(
            [30], [ball], values, background_log_volume=0.0)
        assert attachments == {30: 0}
        assert background == []
        assert updated[0].size == 31
        assert 30 in updated[0].members

    def test_far_corner_residual_stays_background(self):
        rng = np.random.default_rng(24)
        values = np.vstack([rng.normal(0.2, 0.02, size=(25, 2)), [[1.0, 1.0]]])
        values = np.clip(values, 0, 1)
        ball = GranularBall.from_members(values, np.arange(25))
        _, attachments, background = reassign_residuals(
            [25], [ball], values, background_log_volume=0.0)
        assert background == [25]

    def test_no_stable_balls_all_background(self):
        values = np.array([[0.1], [0.9]])
        updated, attachments, background = reassign_residuals(
            [0, 1], [], values, background_log_volume=0.0)
        assert updated == [] and attachments == {} and background == [0, 1]

    def test_destination_is_argmin(self):
        rng = np.random.default_rng(25)
        values = np.clip(np.vstack([
            rng.normal(0.3, 0.02, size=(20, 2)),
            rng.normal(0.7, 0.02, size=(20, 2)),
            rng.uniform(0, 1, size=(6, 2)),
        ]), 0, 1)
        balls = [GranularBall.from_members(values, np.arange(20)),
                 GranularBall.from_members(values, np.arange(20, 40))]
        pool = list(range(40, 46))
        _, attachments, background = reassign_residuals(pool, balls, values, 0.0)
        for idx in pool:
            deltas = [l1_length(stats_add_point(b.stats, values[idx]), 2)
                      - l1_length(b.stats, 2) for b in balls]
            j = int(np.argmin(deltas))
            if deltas[j] <= 0.0:
                assert attachments[idx] == j
            else:
                assert idx in background


class TestAssignSamples:
    def test_single_ball_owns_everything(self):
        values = np.array([[0.1], [0.5], [0.9]])
        ball = GranularBall.from_members(values, np.arange(3))
        assert assign_samples(Dataset(values=values), [ball]).tolist() == [0, 0, 0]

    def test_nearest_center_wins(self):
        values = np.array([[0.0], [1.0], [0.3]])
        balls = [GranularBall.from_members(values, np.array([0])),
                 GranularBall.from_members(values, np.array([1]))]
        assert assign_samples(Dataset(values=values), balls).tolist() == [0, 1, 0]

    def test_tie_goes_to_lower_index(self):
        values = np.array([[0.0], [1.0], [0.5]])
        balls = [GranularBall.from_members(values, np.array([0])),
                 GranularBall.from_members(values, np.array([1]))]
        assert assign_samples(Dataset(values=values), balls)[2] == 0

    def test_blocks_match_dense_formula(self, monkeypatch):
        # eighths keep every product and sum exact, so block size cannot move a bit
        rng = np.random.default_rng(26)
        values = rng.integers(0, 8, size=(53, 2)) / 8.0
        ds = Dataset(values=values)
        firsts = [0, 5, 9, 5, 0, 17]                    # balls 3 and 4 duplicate 1 and 0
        balls = [GranularBall.from_members(values, np.array([i])) for i in firsts]
        centers = np.stack([b.center for b in balls])
        dist2 = ((values ** 2).sum(axis=1)[:, None] - 2.0 * (values @ centers.T)
                 + (centers ** 2).sum(axis=1)[None, :])
        expected = np.argmin(dist2, axis=1)
        assert not np.isin(expected, [3, 4]).any()
        assert np.isin(expected, [0, 1]).sum() > 6
        for cells in (1, 13, 20, 41, 1 << 16):          # blocks of 1, 2, 3, 6 and all rows
            monkeypatch.setattr(generation, "OWNERSHIP_BLOCK_CELLS", cells)
            owner = assign_samples(ds, balls)
            assert owner.dtype == np.int64
            assert np.array_equal(owner, expected)
