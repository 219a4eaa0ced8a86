import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmdl import backends
from gbmdl.backends import agglomerative_ward, cluster_or_passthrough, kmeanspp
from gbmdl.core import GranularBall
from gbmdl.errors import ConfigurationError

from oracles import clusters_after, kmeanspp_replay, min_sse_bipartition, sq_dist, ward_replay


def balls_from_rows(values: np.ndarray) -> list[GranularBall]:
    return [GranularBall.from_members(values, np.array([i])) for i in range(len(values))]


def co_labeled(labels, i, j) -> bool:
    return labels[i] == labels[j]


def ulp_spaced(seed: int) -> np.ndarray:
    # 4-19 centres in 1-3 dimensions, a few ulps apart around one base in [0.5, 1)
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.5, 1.0)
    top = int(rng.integers(2, 12))
    shape = (int(rng.integers(4, 20)), int(rng.integers(1, 4)))
    return base + np.spacing(base) * rng.integers(0, top, size=shape)


def replay_cases(d: int) -> list[tuple[str, np.ndarray, int, int]]:
    """(name, centers, K, seed) inputs at d features on which k-means++ meets every branch."""
    n = 36
    rng = np.random.default_rng(23 + d)
    # the first n points of the quarter lattice {0, 1/4, 2/4, 3/4}^d: exact sums, many ties
    lattice = np.zeros((n, d))
    lattice[:, :3] = (np.arange(n)[:, None] // 4 ** np.arange(min(d, 3)) % 4) / 4.0
    # fewer distinct rows than K = 8 forces coinciding centroids, so a
    # cluster comes out empty and the repair runs
    duplicates = rng.random((3, d))[rng.integers(0, 3, n)]
    # all rows equal: every D^2 draw after the first sees a zero total
    identical = np.repeat(rng.random((1, d)), n, axis=0)
    inputs = {"random": rng.random((n, d)), "lattice": lattice[rng.permutation(n)],
              "duplicates": duplicates, "identical": identical}
    cases = [(name, centers, K, seed) for name, centers in inputs.items()
             for seed, K in enumerate((1, 2, 3, 8, n))]

    # seed 0 is the first whose restarts meet the repair: its restart 3 seeds
    # centroids at 10, 2 and 0, and the one at 2 loses both its points at the
    # second step and is repaired, while the other nine restarts stop after two steps
    line = np.zeros((8, d))
    line[:, 0] = [0.0, 0.99, 0.99, 2.0, 5.9, 6.1, 6.1, 10.0]
    cases.append(("line", line, 3, 0))

    # from K = 256 on, the ranks and the labels take uint16 instead of uint8
    many = rng.random((260, d))
    return cases + [("many", many, K, K) for K in (255, 256)]


def cycling_centers() -> np.ndarray:
    # three rows repeated plus one stray row at K = 6: every restart of seed 0 cycles
    # with period 4, and restart 3 stops two steps before the other nine, so they keep
    # iterating at shifted live positions; 166 is the first generator seed for which
    # checking a history by live position changes seed 0's labels
    rng = np.random.default_rng(166)
    return np.vstack([rng.random((3, 2))[np.arange(11) % 3], rng.random((1, 2))])


class TestClusterOrPassthrough:
    def test_passthrough_when_few_balls(self):
        values = np.array([[0.1], [0.5], [0.9]])
        clustering = cluster_or_passthrough(balls_from_rows(values), K=5, backend="ac")
        assert clustering.ball_labels.tolist() == [0, 1, 2]

    def test_equal_count_passthrough_both_backends(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a backend ran")

        # each ball is its own cluster, and no backend runs
        monkeypatch.setattr(backends, "agglomerative_ward", refuse)
        monkeypatch.setattr(backends, "kmeanspp", refuse)
        rng = np.random.default_rng(12)
        values = rng.random((10, 2))
        for backend in ("ac", "kmeanspp"):
            clustering = cluster_or_passthrough(balls_from_rows(values), K=10,
                                                backend=backend)
            assert clustering.ball_labels.tolist() == list(range(10))

    def test_tight_pairs_co_labeled_by_both_backends(self):
        values = np.array([[0.0, 0.0], [0.02, 0.0], [1.0, 1.0], [1.0, 0.98]])
        mask = min_sse_bipartition(values)
        for backend in ("ac", "kmeanspp"):
            labels = cluster_or_passthrough(balls_from_rows(values), K=2,
                                            backend=backend, seed=1).ball_labels
            assert co_labeled(labels, 0, 1) and co_labeled(labels, 2, 3)
            # agrees with the exhaustive minimum-SSE bipartition
            assert all((labels[i] == labels[j]) == (mask[i] == mask[j])
                       for i in range(4) for j in range(4))

    def test_unknown_backend_rejected(self):
        balls = balls_from_rows(np.random.default_rng(0).random((4, 2)))
        # also where the balls would pass through (K = 4)
        for backend in ("dbscan", "none"):
            for K in (2, 4):
                with pytest.raises(ConfigurationError, match="unknown backend"):
                    cluster_or_passthrough(balls, K=K, backend=backend)

    def test_given_labelling_is_checked_and_wrapped(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a backend ran")

        monkeypatch.setattr(backends, "agglomerative_ward", refuse)
        monkeypatch.setattr(backends, "kmeanspp", refuse)
        balls = balls_from_rows(np.random.default_rng(5).random((6, 2)))
        labels = np.array([2, 0, 1, 0, 2, 2])
        clustering = cluster_or_passthrough(balls, K=3, backend="kmeanspp", ball_labels=labels)
        assert clustering.ball_labels is labels
        # one integer in [0, K) per ball, or the labelling is refused
        for bad in (labels[:5], labels.reshape(2, 3), labels + 1, labels - 1,
                    labels.astype(np.float64)):
            with pytest.raises(ConfigurationError, match="ball_labels"):
                cluster_or_passthrough(balls, K=3, backend="kmeanspp", ball_labels=bad)

    def test_ball_centers_stack_the_centers(self):
        values = np.random.default_rng(6).random((5, 3))
        centers = backends.ball_centers(balls_from_rows(values))
        assert centers.shape == (5, 3)
        assert np.array_equal(centers, values)

    def test_no_balls_rejected(self):
        with pytest.raises(ConfigurationError):
            cluster_or_passthrough([], K=2, backend="ac")

    def test_zero_clusters_rejected(self):
        balls = balls_from_rows(np.array([[0.1], [0.5], [0.9]]))
        with pytest.raises(ConfigurationError, match=r"^K must be at least 1$"):
            cluster_or_passthrough(balls, K=0, backend="ac")


class TestWard:
    def test_more_clusters_than_centers_rejected(self):
        with pytest.raises(ConfigurationError, match=r"^cannot form 3 clusters from 2 centers$"):
            agglomerative_ward(np.array([[0.0], [1.0]]), 3)

    def test_closest_pair_merges_first(self):
        centers = np.array([[0.0], [0.1], [1.0]])
        labels = agglomerative_ward(centers, 2)
        assert labels[0] == labels[1] != labels[2]
        assert labels.tolist() == [0, 0, 1]

    def test_k_equals_count_all_singletons(self):
        centers = np.random.default_rng(3).random((5, 2))
        assert agglomerative_ward(centers, 5).tolist() == [0, 1, 2, 3, 4]

    def test_duplicate_centers_merge_first(self):
        centers = np.array([[0.5, 0.5], [0.2, 0.9], [0.5, 0.5]])
        labels = agglomerative_ward(centers, 2)
        assert labels[0] == labels[2] != labels[1]

    def test_each_merge_is_minimum_increase(self):
        line = np.arange(12.0)[:, None]
        grid = np.array([(i, j) for i in range(4) for j in range(4)]) / 4.0
        inputs = [
            np.random.default_rng(14).random((18, 3)),
            line,                                              # tie-heavy inputs
            np.vstack([line, line[[3, 8]]]),
            grid[np.random.default_rng(16).permutation(16)],
            # ulp-spaced centres: a rounded merged mean can price a lower row below
            # its cached minimum, and only Ward's lower-row repricing sees it (at
            # K = 2 here, {0, 1, 2, 4, 5} | {3}; without the step, {0, 3, 5} | {1, 2, 4})
            0.75 + 2.0 ** -53 * np.array([3, 2, 2, 4, 2, 3])[:, None],
            # seeds on which the step changes the merge sequence
            *(ulp_spaced(seed) for seed in (59, 147, 186)),
        ]
        for centers in inputs:
            k = len(centers)
            # replay: independent all-pairs oracle tracking cluster sets
            clusters = [{i} for i in range(k)]
            means = [centers[i].copy() for i in range(k)]
            sizes = [1.0] * k
            merges = []
            while len(clusters) > 1:
                best = None
                for i in range(len(clusters)):
                    for j in range(i + 1, len(clusters)):
                        inc = sizes[i] * sizes[j] / (sizes[i] + sizes[j]) \
                            * sq_dist(means[i], means[j])
                        key = (inc, min(min(clusters[i]), min(clusters[j])),
                               max(min(clusters[i]), min(clusters[j])))
                        if best is None or key < best[0]:
                            best = (key, i, j)
                _, i, j = best
                merges.append(frozenset(clusters[i] | clusters[j]))
                means[i] = (sizes[i] * means[i] + sizes[j] * means[j]) / (sizes[i] + sizes[j])
                sizes[i] += sizes[j]
                clusters[i] = clusters[i] | clusters[j]
                del clusters[j], means[j], sizes[j]
            for K in range(1, k + 1):
                labels = agglomerative_ward(centers, K)
                groups = {frozenset(np.flatnonzero(labels == c).tolist())
                          for c in np.unique(labels)}
                oracle_clusters = [{i} for i in range(k)]
                for merged in merges[: k - K]:
                    oracle_clusters = [c for c in oracle_clusters if not c <= merged]
                    oracle_clusters.append(set(merged))
                assert groups == {frozenset(c) for c in oracle_clusters}, (k, K)

    def test_matches_all_pairs_replay_at_scale(self):
        rng = np.random.default_rng(17)
        tripled = rng.random((83, 3))
        grid = np.array([(i, j) for i in range(16) for j in range(16)]) / 4.0
        inputs = [
            rng.random((250, 3)),
            rng.random((640, 2)),
            np.vstack([tripled, tripled, tripled, tripled[:1]])[rng.permutation(250)],
            grid[rng.permutation(256)],                      # a shuffled quarter grid
            # lattices of thirds in 8 and 13 features: near-tied costs whose order
            # turns on the sum's rounding, which numpy's row sum would unroll
            rng.integers(0, 3, size=(160, 8)) / 3.0,
            rng.integers(0, 3, size=(120, 13)) / 3.0,
        ]
        for centers in inputs:
            k = len(centers)
            merges = ward_replay(centers)
            for K in (1, 2, 7, 40, k - 1):
                labels = agglomerative_ward(centers, K)
                groups = {frozenset(np.flatnonzero(labels == c).tolist())
                          for c in np.unique(labels)}
                assert groups == clusters_after(merges, k, K), (k, K)

    def test_translation_invariance(self):
        rng = np.random.default_rng(15)
        centers = rng.random((12, 2))
        a = agglomerative_ward(centers, 4)
        b = agglomerative_ward(centers + 13.7, 4)
        assert np.array_equal(a, b)


class TestKMeansPP:
    def test_more_clusters_than_centers_rejected(self):
        with pytest.raises(ConfigurationError, match=r"^cannot form 3 clusters from 2 centers$"):
            kmeanspp(np.array([[0.0], [1.0]]), 3, [0])

    def test_k_equals_count_zero_sse(self):
        centers = np.random.default_rng(4).random((6, 2))
        labels = kmeanspp(centers, 6, [0])[0]
        assert sorted(labels.tolist()) == list(range(6))

    def test_same_seed_same_labels(self):
        centers = np.random.default_rng(5).random((25, 3))
        a = kmeanspp(centers, 4, [9])[0]
        b = kmeanspp(centers, 4, [9])[0]
        assert np.array_equal(a, b)

    def test_repair_never_empties_a_donor_cluster(self):
        # stealing the farthest point for one empty cluster must not empty another
        labels = kmeanspp(np.array([[1.0], [3.0], [3.0], [3.0]]), 3, [0])[0]
        assert set(labels.tolist()) == {0, 1, 2}

    def test_tight_pairs_co_labeled_for_many_seeds(self):
        centers = np.array([[0.0, 0.0], [0.02, 0.0], [1.0, 1.0], [1.0, 0.98]])
        for seed in range(10):
            labels = kmeanspp(centers, 2, [seed])[0]
            assert labels[0] == labels[1] != labels[2]
            assert labels[2] == labels[3]

    def test_beats_random_init_most_of_the_time(self):
        rng = np.random.default_rng(16)

        def random_init_lloyd(points, K, seed, restarts=10, max_iter=300):
            best = np.inf
            gen = np.random.default_rng(seed)
            n = len(points)
            for _ in range(restarts):
                centroids = points[gen.choice(n, size=K, replace=False)].copy()
                labels = None
                for _ in range(max_iter):
                    d2 = ((points[:, None, :] - centroids[None]) ** 2).sum(axis=2)
                    new = np.argmin(d2, axis=1)
                    if labels is not None and np.array_equal(labels, new):
                        break
                    labels = new
                    for c in range(K):
                        member = points[labels == c]
                        if len(member):
                            centroids[c] = member.mean(axis=0)
                best = min(best, float(((points - centroids[labels]) ** 2).sum()))
            return best

        wins = 0
        for trial in range(100):
            K = int(rng.integers(4, 9))
            blob_centers = rng.random((K, 2)) * 4
            points = np.vstack([rng.normal(c, 0.08, size=(12, 2)) for c in blob_centers])
            seeded = kmeanspp(points, K, [trial])[0]
            centroids = np.stack([points[seeded == c].mean(axis=0) for c in range(K)])
            sse_pp = float(((points - centroids[seeded]) ** 2).sum())
            sse_rand = random_init_lloyd(points, K, seed=trial)
            if sse_pp <= sse_rand + 1e-9:
                wins += 1
        assert wins >= 90

    def test_translation_invariance(self):
        rng = np.random.default_rng(20)
        centers = rng.random((15, 2))
        a = kmeanspp(centers, 3, [2])[0]
        b = kmeanspp(centers + np.array([5.0, -3.0]), 3, [2])[0]
        assert np.array_equal(a, b)

    def test_all_labels_used(self):
        rng = np.random.default_rng(22)
        centers = rng.random((30, 2))
        labels = kmeanspp(centers, 7, [0])[0]
        assert set(labels.tolist()) == set(range(7))

    @pytest.mark.parametrize("d", [1, 2, 4, 7, 8, 13, 64])
    def test_matches_per_centroid_replay(self, d):
        for name, centers, K, seed in replay_cases(d):
            labels = kmeanspp(centers, K, [seed])[0]
            assert np.array_equal(labels, kmeanspp_replay(centers, K, seed=seed)), (name, K)

    def test_seeding_distances_sum_features_in_index_order(self):
        # A's squared offset from O = 0 is 1 plus 31 terms of 1.375² · 2^-54, each under
        # half its ulp: added in feature order they vanish, while numpy's row sum gathers
        # them in eight partial sums first and lands 56 · 2^-54 higher. Seed 4 is the
        # first whose restart 0 seeds at O (index 2), and B's offset t is searched so that
        # its second D² draw falls between the two sums' CDFs at A. With K = n every
        # restart ends at SSE 0, so the labels are restart 0's draw order.
        d = 32
        points = np.zeros((3, d))
        points[0] = 1.375 * 2.0 ** -27
        points[0, 0] = 1.0
        a, a_row = sq_dist(points[0], points[2]), np.square(points[0]).sum()
        assert a == 1.0 != a_row
        first, u, _ = np.random.default_rng(4).random((10, 3))[0]
        assert int(first * 3) == 2

        def second_draw(d2_a: float, t: float) -> int:   # the cumulative D² entries ≤ u
            cdf = np.cumsum([d2_a, t * t, 0.0])
            return int((cdf / cdf[-1] <= u).sum())

        t0 = math.sqrt((1.0 - u) / u)
        points[1, 1] = next(t for t in t0 + np.spacing(t0) * np.arange(-64, 65)
                            if second_draw(a, t) != second_draw(a_row, t))
        assert second_draw(a, points[1, 1]) == 1   # B second, so A last
        assert kmeanspp(points, 3, [4])[0].tolist() == [2, 1, 0]

    def test_first_centre_draw_stays_below_n(self):
        # u = 1 − 2^-53 is the largest Generator.random value: u·n rounds below n
        u = np.nextafter(1.0, 0.0)
        powers = 2 ** np.arange(17, 31)
        n = np.concatenate([np.arange(1, 2 ** 16 + 1), powers - 1, powers, powers + 1])
        assert ((u * n).astype(np.intp) <= n - 1).all()

    def test_each_restart_checks_its_own_label_history(self):
        centers = cycling_centers()
        assert np.array_equal(kmeanspp(centers, 6, [0])[0], kmeanspp_replay(centers, 6, seed=0))

    @pytest.mark.parametrize("d", [1, 2, 4, 7, 8, 13, 64])
    def test_seeds_match_one_at_a_time_across_group_boundaries(self, monkeypatch, d):
        # seeds run alone at R·K·n − 1 and R·K·n cells, two to a group at
        # 2·R·K·n + 1, so the last group is short, and all five at once at 2^30.
        # Every group holds whole seeds. The seeds start at each case's own, which
        # meets the case's branch. The 260-row inputs, there for the rank dtype,
        # would take most of a minute.
        R = backends.KMEANS_RESTARTS
        rows = []
        restarts = backends._restarts

        def whole_seeds(cols, K, u):
            rows.append(len(u))
            return restarts(cols, K, u)

        monkeypatch.setattr(backends, "_restarts", whole_seeds)
        cases = [case for case in replay_cases(d) if case[0] != "many"]
        if d == 2:
            cases.append(("cycling", cycling_centers(), 6, 0))
        for name, centers, K, seed in cases:
            seeds = range(seed, seed + 5)
            want = [kmeanspp_replay(centers, K, seed=s) for s in seeds]
            cells = R * K * len(centers)
            for block, groups in ((cells - 1, [R] * 5), (cells, [R] * 5),
                                  (2 * cells + 1, [2 * R, 2 * R, R]), (2 ** 30, [5 * R])):
                monkeypatch.setattr(backends, "BLOCK_CELLS", block)
                rows.clear()
                got = kmeanspp(centers, K, seeds)
                assert rows == groups, (name, K, block)
                assert got.shape == (5, len(centers)) and got.dtype == np.int64
                for s, row, expected in zip(seeds, got, want):
                    assert np.array_equal(row, expected), (name, K, s, block)

    def test_a_seed_whose_every_sse_overflows_keeps_restart_zero(self):
        # ten SSEs of inf tie, so the seed takes its first restart's labels; at seed 11
        # no other restart ends with those labels
        centers = np.random.default_rng(8).random((12, 2)) * 1e200
        u = np.random.default_rng(11).random((backends.KMEANS_RESTARTS, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            labels, sse = backends._restarts(np.ascontiguousarray(centers.T), 3, u)
            got = kmeanspp(centers, 3, [11])[0]
        assert np.isinf(sse).all()
        assert [np.array_equal(got, row) for row in labels] == [True] + [False] * 9

    def test_numpy_integer_seeds_draw_as_python_ints(self):
        centers = np.random.default_rng(7).random((20, 2))
        big = 2 ** 64 - 1
        want = kmeanspp(centers, 3, [0, 1, big, -1])
        assert np.array_equal(kmeanspp(centers, 3, np.arange(2)), want[:2])
        seeds = [np.int64(0), np.uint64(1), np.uint64(big), np.int64(-1)]
        assert np.array_equal(kmeanspp(centers, 3, seeds), want)
        balls = balls_from_rows(centers)
        got = cluster_or_passthrough(balls, K=3, backend="kmeanspp", seed=np.int64(1))
        assert np.array_equal(got.ball_labels, want[1])
        with pytest.raises(TypeError):
            kmeanspp(centers, 3, [1.5])

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_replay_on_drawn_inputs(self, data):
        n = data.draw(st.integers(1, 14))
        d = data.draw(st.sampled_from([1, 2, 3, 8, 9]))
        # few levels make duplicate rows, ties and empty clusters common
        levels = data.draw(st.sampled_from([2, 3, 5, 1000]))
        cells = data.draw(st.lists(st.integers(0, levels - 1), min_size=n * d, max_size=n * d))
        centers = np.asarray(cells, dtype=np.float64).reshape(n, d) / levels
        K = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 2 ** 64 - 1))
        assert np.array_equal(kmeanspp(centers, K, [seed])[0], kmeanspp_replay(centers, K, seed))

    @pytest.mark.parametrize("d, n", [(64, 36), (4, 600)])
    def test_cycling_lloyd_stops_before_the_cap(self, monkeypatch, d, n):
        # 3 distinct rows at K = 8: the repair moves points to and fro between
        # coinciding centroids, so the labels cycle and never reach a fixed point
        rng = np.random.default_rng(d)
        centers = rng.random((3, d))[rng.integers(0, 3, n)]
        labels = []
        for cap in (299, 300):
            monkeypatch.setattr(backends, "KMEANS_MAX_ITER", cap)
            labels.append(kmeanspp(centers, 8, [0])[0])
        assert np.array_equal(*labels)
