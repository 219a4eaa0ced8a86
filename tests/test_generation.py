import hashlib
import math
from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest

from gbmdl import core, generation, models
from gbmdl.cli import load_csv
from gbmdl.core import (
    Dataset,
    GranularBall,
    ModelChoice,
    minmax_normalize,
    stats_add_point,
    stats_from_points,
)
from gbmdl.errors import DataQualityError
from gbmdl.generation import (
    adaptive_n_min,
    assign_samples,
    farthest_point_bisect,
    generate,
    generate_stable_balls,
    initialize_balls,
    reassign_residuals,
)
from gbmdl.models import evaluate_ball, l1_length

from oracles import farthest_point_bisect_loop, sq_dists


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
    @pytest.mark.parametrize("n", [1, 50, 100])
    def test_loop_starts_from_isqrt_n_balls(self, n):
        # every initial ball is dequeued once, a split enqueues two balls, a peel one
        ds = Dataset(values=np.random.default_rng(n).random((n, 2)))
        _, _, trace = generate_stable_balls(ds)
        choices = Counter(verdict.choice for _, verdict in trace)
        assert len(trace) == math.isqrt(n) + 2 * choices[ModelChoice.TWO_BALL] \
            + choices[ModelChoice.CORE_RESIDUAL]


class TestFarthestPointBisect:
    def test_hand_trace_1d(self):
        values = np.array([[0.0], [1.0], [0.4]])
        y1, y2 = farthest_point_bisect(np.array([0, 1, 2]), values.T)
        assert y1.tolist() == [1]
        assert sorted(y2.tolist()) == [0, 2]

    def test_equidistant_goes_to_first_half(self):
        # anchors are 0.0 and 1.0; the midpoint ties and lands with anchor one
        values = np.array([[0.0], [1.0], [0.5]])
        y1, y2 = farthest_point_bisect(np.array([0, 1, 2]), values.T)
        assert 2 in y1.tolist()

    def test_two_points_become_singletons(self):
        values = np.array([[0.0], [1.0]])
        y1, y2 = farthest_point_bisect(np.array([0, 1]), values.T)
        assert y1.size == 1 and y2.size == 1

    def test_rejects_singleton(self):
        with pytest.raises(ValueError):
            farthest_point_bisect(np.array([3]), np.zeros((2, 5)))


class TestInitializeBalls:
    def test_single_sample(self):
        ds = Dataset(values=np.array([[0.5]]))
        balls = initialize_balls(ds, 1)
        assert len(balls) == 1 and balls[0].tolist() == [0]

    def test_reaches_target_count_and_partitions(self):
        rng = np.random.default_rng(8)
        ds = Dataset(values=rng.random((100, 3)))
        balls = initialize_balls(ds, 10)
        assert len(balls) == 10
        seen = np.concatenate(balls)
        assert np.array_equal(np.sort(seen), np.arange(100))

    def test_duplicate_pairs(self):
        values = np.array([[0.1, 0.1], [0.1, 0.1], [0.9, 0.9], [0.9, 0.9]])
        balls = initialize_balls(Dataset(values=values), 2)
        assert len(balls) == 2
        groups = sorted(tuple(b.tolist()) for b in balls)
        assert groups == [(0, 1), (2, 3)]

    def test_all_identical_points_stop_early(self):
        values = np.full((9, 2), 0.25)
        balls = initialize_balls(Dataset(values=values), 3)
        assert len(balls) == 1
        assert balls[0].size == 9

    @staticmethod
    def linear_scan_replay(values, k0):
        # bisect the largest splittable ball, ties to the lowest first member,
        # found by scanning every ball before each split, with the scalar-loop
        # bisection of the oracles
        entries = [[np.arange(len(values)), True]]
        while len(entries) < k0:
            live = [i for i, (m, ok) in enumerate(entries) if ok and m.size >= 2]
            if not live:
                break
            best = min(live, key=lambda i: (-entries[i][0].size, int(entries[i][0][0])))
            half1, half2 = farthest_point_bisect_loop(entries[best][0], values)
            if half1.size == 0 or half2.size == 0:
                entries[best][1] = False
            else:
                entries[best:best + 1] = [[half1, True], [half2, True]]
        return sorted((m.tolist() for m, _ in entries), key=lambda m: m[0])

    @pytest.mark.parametrize("kind", ["random", "lattice", "duplicates"])
    def test_matches_linear_scan_replay(self, kind):
        rng = np.random.default_rng({"random": 50, "lattice": 51, "duplicates": 52}[kind])
        for _ in range(40):
            # from 8 features on numpy's row sum is unrolled, so only a sum in
            # feature order matches the scalar replay there
            n, d = int(rng.integers(1, 120)), int(rng.choice([1, 2, 3, 8, 13]))
            if kind == "random":
                values = rng.random((n, d))
            elif kind == "lattice":
                values = rng.integers(0, 4, size=(n, d)) / 3.0
            else:
                distinct = rng.random((int(rng.integers(1, 6)), d))
                values = distinct[rng.integers(0, len(distinct), n)]
            k0 = int(rng.integers(1, n + 3))
            got = [b.tolist() for b in initialize_balls(Dataset(values=values), k0)]
            assert got == self.linear_scan_replay(values, k0)


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
                verdict, _ = evaluate_ball(ball.members, ds.values, n_min)
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

    def test_rejects_unnormalized(self):
        ds = Dataset(values=np.array([[0.0], [5.0], [10.0]]))
        with pytest.raises(DataQualityError):
            generate(ds)

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
        updated, attachments, background = reassign_residuals([2], [ball], values)
        grown = stats_add_point(ball.stats, values[2])
        delta = l1_length(grown, 1) - l1_length(ball.stats, 1)
        assert delta == pytest.approx(0.5231, abs=1e-4)
        assert delta > 0
        assert attachments.tolist() == [] and background.tolist() == [2]
        assert updated[0].members.tolist() == [0, 1]

    def test_nearby_residual_attaches(self):
        rng = np.random.default_rng(23)
        values = np.vstack([rng.normal(0.5, 0.01, size=(30, 2)), [[0.5, 0.5]]])
        values = np.clip(values, 0, 1)
        ball = GranularBall.from_members(values, np.arange(30))
        updated, attachments, background = reassign_residuals([30], [ball], values)
        assert attachments.tolist() == [30]
        assert background.tolist() == []
        assert updated[0].size == 31
        assert 30 in updated[0].members

    def test_far_corner_residual_stays_background(self):
        rng = np.random.default_rng(24)
        values = np.vstack([rng.normal(0.2, 0.02, size=(25, 2)), [[1.0, 1.0]]])
        values = np.clip(values, 0, 1)
        ball = GranularBall.from_members(values, np.arange(25))
        _, attachments, background = reassign_residuals([25], [ball], values)
        assert background.tolist() == [25]

    def test_no_stable_balls_all_background(self):
        values = np.array([[0.1], [0.9]])
        updated, attachments, background = reassign_residuals([0, 1], [], values)
        assert updated == [] and attachments.tolist() == [] and background.tolist() == [0, 1]
        assert attachments.dtype == np.int64

    def test_destination_is_argmin(self, monkeypatch):
        rng = np.random.default_rng(25)
        values = np.clip(np.vstack([
            rng.normal(0.3, 0.02, size=(20, 2)),
            rng.normal(0.7, 0.02, size=(20, 2)),
            rng.uniform(0, 1, size=(6, 2)),
            rng.normal(0.3, 0.02, size=(3, 2)),
        ]), 0, 1)
        balls = [GranularBall.from_members(values, np.arange(20)),
                 GranularBall.from_members(values, np.arange(20, 40)),
                 GranularBall.from_members(values, np.arange(20))]   # ball 0's copy
        pool = list(range(40, 49))
        results = []
        # a residual prices 3 balls x 2 sums = 6 cells: blocks of 1, 1, 4 and all 9 residuals
        for cells in (1, 5, 24, generation.BLOCK_CELLS):
            monkeypatch.setattr(generation, "BLOCK_CELLS", cells)
            updated, attachments, background = reassign_residuals(pool, balls, values)
            results.append((attachments.tolist(), background.tolist(),
                            [b.members.tolist() for b in updated]))
        assert all(result == results[0] for result in results)
        assert np.isin(updated[0].members, attachments).any()
        assert not np.isin(updated[2].members, attachments).any() and updated[2] is balls[2]
        # the background keeps the pool's order
        assert len(background) > 1 and reassign_residuals(pool[::-1], balls, values)[2].tolist() \
            == background.tolist()[::-1]
        for idx in pool:
            deltas = [l1_length(stats_add_point(b.stats, values[idx]), 2)
                      - l1_length(b.stats, 2) for b in balls]
            j = int(np.argmin(deltas))
            if deltas[j] <= 0.0:
                assert [b for b, ball in enumerate(updated) if idx in ball.members] == [j]
            else:
                assert idx in background


def gamma(m: int) -> float:
    """γ_m = m·u / (1 − m·u), u = 2⁻⁵³: the relative error of m float64 roundings."""
    return m * 2.0 ** -53 / (1 - m * 2.0 ** -53)


class TestAssignSamples:
    def test_no_balls_rejected(self):
        with pytest.raises(ValueError, match=r"^need at least one stable ball$"):
            assign_samples(Dataset(values=np.array([[0.1], [0.5]])), [])

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

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
    def test_near_tie_goes_to_the_exact_nearest_center(self):
        # the sample is nearer ball 1 by 2⁻⁹¹ in exact arithmetic, far inside the
        # γ_{d+1}·(|c|² + 2|x|·|c|) bound of each expanded |c|² − 2x·c cell
        values = np.array([[0.5], [0.5 + 2.0 ** -40], [0.5 + 2.0 ** -41 + 2.0 ** -52]])
        balls = [GranularBall.from_members(values, np.array([i])) for i in (0, 1)]
        x = Fraction(values[2, 0])
        exact = [(x - Fraction(b.center[0])) ** 2 for b in balls]
        assert exact[0] - exact[1] == Fraction(1, 2 ** 91)
        assert assign_samples(Dataset(values=values), balls)[2] == exact.index(min(exact))

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
        for cells in (1, 13, 20, 41, 1 << 16):          # blocks of 1, 3, 5, 10 and all rows
            monkeypatch.setattr(generation, "BLOCK_CELLS", cells)
            owner = assign_samples(ds, balls)
            assert owner.dtype == np.int64
            assert np.array_equal(owner, expected)

    def test_duplicate_centers_never_own_rows(self):
        # BLAS may round identical center columns differently; the copy must never win
        rng = np.random.default_rng(27)
        values = rng.random((20_000, 8))
        firsts = rng.choice(values.shape[0], size=690, replace=False)
        balls = [GranularBall.from_members(values, np.array([i])) for i in firsts]
        copies = [GranularBall.from_members(values, np.array([firsts[j]])) for j in (3, 300, 600)]
        ds = Dataset(values=values)
        owner = assign_samples(ds, balls + copies)
        assert not np.isin(owner, [690, 691, 692]).any()
        assert np.array_equal(owner, assign_samples(ds, balls))

    @pytest.mark.parametrize("d", [1, 4, 8, 13])
    def test_owners_are_first_minima_of_direct_differences(self, d):
        # full-mantissa rows and centers that are means of three rows, so products round
        rng = np.random.default_rng(45 + d)
        values = rng.random((600, d))
        balls = [GranularBall.from_members(values, np.sort(rng.choice(600, 3, replace=False)))
                 for _ in range(300)]
        for j in rng.choice(300, size=8, replace=False).tolist():
            balls.insert(int(rng.integers(len(balls) + 1)), balls[j])   # exact copies, anywhere
        centers = np.stack([b.center for b in balls])
        dist = sq_dists(values[:, None, :], centers[None, :, :])
        nearest = np.argmin(dist, axis=1)
        assert np.array_equal(assign_samples(Dataset(values=values), balls), nearest)

        # every other distinct center is farther by more than both cells' bounds plus the
        # oracle's own rounding (γ_{d+2} of each distance), so the agreement is not luck
        first = dist.min(axis=1)
        copies = (centers[None, :, :] == centers[nearest][:, None, :]).all(axis=2)
        second = np.where(copies, np.inf, dist).min(axis=1)
        assert np.isfinite(second).all()
        c_max = np.sqrt((centers ** 2).sum(axis=1)).max()
        cell_bound = gamma(d + 1) * (c_max ** 2 + 2 * np.sqrt((values ** 2).sum(axis=1)) * c_max)
        assert (second - first > 2 * cell_bound + gamma(d + 2) * (first + second)).all()

    def test_cell_error_within_stated_bound(self, monkeypatch):
        # A cell is fl(fl(x·(−2c)) + fl(|c|²)). A d-term dot product, summed in any order
        # with or without fused multiply-adds, errs by at most γ_d times the sum of its
        # |terms|: γ_d·2|x|·|c| for x·(−2c) (Cauchy–Schwarz) and γ_d·|c|² for |c|². The
        # add rounds once more, by u·(|c|² + 2|x|·|c|)·(1 + γ_d) at most, and
        # γ_d + u·(1 + γ_d) ≤ γ_{d+1}: the bound is γ_{d+1}·(|c|² + 2|x|·|c|).
        prices = []
        first_minima = generation._first_minima
        monkeypatch.setattr(generation, "_first_minima", lambda rows, cells, price: (
            prices.append(price) or first_minima(rows, cells, price)))
        rng = np.random.default_rng(46)
        rounded = 0
        for d in (1, 4, 8, 13):
            near = rng.random((6, d))
            far = 1e6 * (1.0 + rng.random((6, d)))
            values = np.vstack([near, far])
            balls = [GranularBall.from_members(values, members) for members in
                     ([0, 1], [2, 3, 4], [5, 6], [7, 9, 11], [8, 10], [3, 8])]
            assign_samples(Dataset(values=values), balls)
            cells = prices.pop()(values)
            assert cells.shape == (12, len(balls))
            bound_factor = Fraction(d + 1, 2 ** 53 - (d + 1))      # gamma(d + 1), exactly
            for x, row in zip(values.tolist(), cells.tolist()):
                sq_x = sum(Fraction(v) ** 2 for v in x)
                for c, cell in zip((b.center.tolist() for b in balls), row):
                    sq_c = sum(Fraction(v) ** 2 for v in c)
                    exact = sq_c - 2 * sum(Fraction(a) * Fraction(b) for a, b in zip(x, c))
                    err = abs(Fraction(cell) - exact)
                    rounded += err > 0
                    # err ≤ γ·(|c|² + 2|x|·|c|), squared to stay in exact arithmetic
                    excess = err / bound_factor - sq_c
                    assert excess <= 0 or excess ** 2 <= 4 * sq_x * sq_c
        assert rounded > 0


def trace_digest(result) -> str:
    """SHA-256 over the decisions, stable-ball members, background and ownership.

    Description lengths are left out, so a rewrite that moves only their last
    digits keeps the digest.
    """
    digest = hashlib.sha256()

    def put(tag: bytes, values) -> None:
        arr = np.ascontiguousarray(values, dtype="<i8")
        digest.update(tag + arr.size.to_bytes(8, "little") + arr.tobytes())

    for size, verdict in result.trace:
        digest.update(f"{verdict.choice.value}:{size}:{verdict.peel_q};".encode())
        if verdict.split is not None:
            put(b"L", verdict.split[0])
            put(b"R", verdict.split[1])
    for ball in result.stable_balls:
        put(b"B", ball.members)
    put(b"G", result.residual_background)
    put(b"O", result.ownership)
    return digest.hexdigest()


@pytest.mark.parametrize("fixture,expected", [
    ("iris_path", "62690bc3706ab4136f0f5070d4cc4cbc6db32409bc57e2dffe0d5440cdfc3991"),
    ("wine_path", "26e0bb8ad00bafc64ec4c86e148af6347feddd56fa4ed241eaf07e1c1b17a3c2"),
])
def test_golden_decision_trace(fixture, expected, request):
    dataset = minmax_normalize(load_csv(request.getfixturevalue(fixture)))
    assert trace_digest(generate(dataset)) == expected


def noisy_blobs() -> Dataset:
    # four Gaussian blobs under 30% uniform noise: many more peels than Iris and Wine
    rng = np.random.default_rng(13)
    means = rng.random((4, 4))
    blob = means[rng.integers(0, 4, size=2_100)] + rng.normal(scale=0.04, size=(2_100, 4))
    values = np.vstack([blob, rng.random((900, 4))])
    return minmax_normalize(Dataset(values=values[rng.permutation(3_000)]))


def test_golden_decision_trace_noisy_blobs():
    result = generate(noisy_blobs())
    assert sum(v.choice is ModelChoice.CORE_RESIDUAL for _, v in result.trace) >= 20
    assert trace_digest(result) == \
        "5ae028f9782af0eb0d54552c2d67875cd00ebdbb1bd0807d7db0235b4aa98d38"


def fifo_replay(dataset):
    """The regeneration loop one ball at a time: pop the queue's head, append its children."""
    n_min = adaptive_n_min(dataset.n, dataset.d)
    values = dataset.values
    queue = deque(initialize_balls(dataset, math.isqrt(dataset.n)))
    stable, pool, trace = [], [], []
    while queue:
        members = queue.popleft()
        verdict, parts = evaluate_ball(members, values, n_min)
        trace.append((members.size, verdict))
        if parts is None:
            stable.append(members)
            continue
        queue.append(parts[0])
        if verdict.choice is ModelChoice.TWO_BALL:
            queue.append(parts[1])
        else:
            pool.extend(parts[1].tolist())
    return stable, sorted(pool), trace


@pytest.mark.parametrize("name", ["iris", "wine", "noisy"])
def test_generations_match_fifo_replay(name, request):
    dataset = noisy_blobs() if name == "noisy" else \
        minmax_normalize(load_csv(request.getfixturevalue(f"{name}_path")))
    stable, pool, trace = generate_stable_balls(dataset)
    want_stable, want_pool, want_trace = fifo_replay(dataset)
    assert [b.members.tolist() for b in stable] == [m.tolist() for m in want_stable]
    assert pool.tolist() == want_pool
    assert len(trace) == len(want_trace)
    for (size, got), (want_size, want) in zip(trace, want_trace):
        assert (size, got.choice, got.peel_q) == (want_size, want.choice, want.peel_q)
        assert [x.hex() for x in (got.l1, got.l2_star, got.l3_star)] \
            == [x.hex() for x in (want.l1, want.l2_star, want.l3_star)]
        assert (got.split is None) == (want.split is None)
        if want.split is not None:
            assert all(np.array_equal(a, b) for a, b in zip(got.split, want.split))


def count_built_balls(monkeypatch) -> list[int]:
    """Record the size of every ``GranularBall.from_members`` call from here on."""
    built = []
    from_members = GranularBall.__dict__["from_members"].__func__

    def counted(cls, values, members):
        built.append(len(members))
        return from_members(cls, values, members)

    monkeypatch.setattr(GranularBall, "from_members", classmethod(counted))
    return built


def test_initial_balls_are_member_arrays(monkeypatch):
    built = count_built_balls(monkeypatch)
    dataset = noisy_blobs()
    balls = initialize_balls(dataset, math.isqrt(dataset.n))
    assert built == []
    assert all(type(b) is np.ndarray and (np.diff(b) > 0).all() for b in balls)
    assert np.array_equal(np.sort(np.concatenate(balls)), np.arange(dataset.n))
    assert [int(b[0]) for b in balls] == sorted(int(b[0]) for b in balls)


def test_granular_balls_are_built_only_for_returned_balls(monkeypatch):
    # a generation is member arrays: a ball that stays whole becomes a GranularBall of
    # the stats its verdict priced, and reattachment rebuilds each ball it grows; no
    # split or peel part is built, and each ball's rows are summed once per build
    built = count_built_balls(monkeypatch)
    constructed, summed, winners = [], [], set()
    post_init, reassign = GranularBall.__post_init__, generation.reassign_residuals

    def recorded(ball):
        post_init(ball)
        constructed.append(ball)

    def counted_sum(points):
        summed.append(len(points))
        return stats_from_points(points)

    def spy(pool, stable_balls, values):
        updated, attachments, background = reassign(pool, stable_balls, values)
        winners.update(j for j, ball in enumerate(updated)
                       if np.isin(ball.members, attachments).any())
        return updated, attachments, background

    monkeypatch.setattr(GranularBall, "__post_init__", recorded)
    monkeypatch.setattr(core, "stats_from_points", counted_sum)
    monkeypatch.setattr(models, "stats_from_points", counted_sum)
    monkeypatch.setattr(generation, "reassign_residuals", spy)
    result = generate(noisy_blobs())
    kept = [size for size, v in result.trace if v.choice is ModelChoice.SINGLE_BALL]
    assert (len(kept), len(winners), len(result.trace)) == (135, 39, 238)
    assert len(built) == len(winners)
    assert [ball.size for ball in constructed[:len(kept)]] == kept
    # the winners are rebuilt in ball order, after every kept ball
    want = constructed[:len(kept)]
    for j, ball in zip(sorted(winners), constructed[len(kept):], strict=True):
        want[j] = ball
    assert len(result.stable_balls) == len(want)
    assert all(got is ball for got, ball in zip(result.stable_balls, want))
    assert len(summed) == len(result.trace) + len(winners)


@pytest.mark.parametrize("name", ["iris", "wine", "noisy"])
def test_returned_balls_keep_their_own_stats(name, request):
    dataset = noisy_blobs() if name == "noisy" else \
        minmax_normalize(load_csv(request.getfixturevalue(f"{name}_path")))
    result = generate(dataset)
    for ball in result.stable_balls:
        want = stats_from_points(dataset.values[ball.members])
        assert ball.stats.count == want.count
        assert ball.stats.sum.tobytes() == want.sum.tobytes()
        assert ball.stats.sumsq.hex() == want.sumsq.hex()
        assert ball.center.tobytes() == (want.sum / want.count).tobytes()
    sums = [ball.stats.sum for ball in result.stable_balls]
    assert not any(np.may_share_memory(a, b) for i, a in enumerate(sums) for b in sums[:i])
    # a kept ball holds its M1 verdict's stats unless reattachment grew it
    m1 = [v for _, v in result.trace if v.choice is ModelChoice.SINGLE_BALL]
    assert len(m1) == len(result.stable_balls)
    for ball, verdict in zip(result.stable_balls, m1):
        assert ball.stats is verdict.stats or ball.size > verdict.stats.count
    assert all(v.stats is None for _, v in result.trace if v.choice is not ModelChoice.SINGLE_BALL)
    stable, _, trace = generate_stable_balls(dataset)
    m1 = [v for _, v in trace if v.choice is ModelChoice.SINGLE_BALL]
    assert all(ball.stats is v.stats for ball, v in zip(stable, m1, strict=True))


@pytest.mark.parametrize("name", ["iris", "wine", "noisy"])
def test_residual_ids_are_one_ascending_array(name, request):
    # the pool and the background stay int64 arrays from the peel to the report
    dataset = noisy_blobs() if name == "noisy" else \
        minmax_normalize(load_csv(request.getfixturevalue(f"{name}_path")))
    stable, pool, trace = generate_stable_balls(dataset)
    peeled = [v.parts[1] for _, v in trace if v.choice is ModelChoice.CORE_RESIDUAL]
    assert peeled and type(pool) is np.ndarray and pool.dtype == np.int64
    assert (np.diff(pool) > 0).all()
    assert np.array_equal(pool, np.sort(np.concatenate(peeled)))
    background = generate(dataset).residual_background
    assert type(background) is np.ndarray and background.dtype == np.int64
    assert (np.diff(background) > 0).all() and np.isin(background, pool).all()
    assert np.array_equal(background, reassign_residuals(pool, stable, dataset.values)[2])


def test_reassignment_is_free_of_pool_order():
    # statistics are frozen at entry, so no attachment depends on the order of the pool
    dataset = noisy_blobs()
    stable, pool, _ = generate_stable_balls(dataset)
    shuffled = np.random.default_rng(29).permutation(pool)
    assert not np.array_equal(shuffled, pool)
    got = reassign_residuals(shuffled, stable, dataset.values)
    want = reassign_residuals(pool, stable, dataset.values)
    assert got[1].size and sorted(got[1]) == sorted(want[1])
    assert np.array_equal(got[1], shuffled[np.isin(shuffled, want[1])])   # the pool's order
    assert len(got[0]) == len(want[0])
    for a, b in zip(got[0], want[0]):
        assert a.members.tolist() == b.members.tolist()
        assert a.stats.count == b.stats.count
        assert a.stats.sum.tobytes() == b.stats.sum.tobytes()
        assert a.stats.sumsq.hex() == b.stats.sumsq.hex()
    assert sorted(got[2]) == sorted(want[2])
