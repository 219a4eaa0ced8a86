import math
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from gbmdl.metrics import acc, ari, contingency, nmi

from oracles import acc_bruteforce, ari_pairs, nmi_definition


class TestContingency:
    def test_counts_and_marginals(self):
        counts = contingency([0, 0, 1, 1], [0, 1, 0, 1])
        assert counts.tolist() == [[1, 1], [1, 1]]
        assert counts.sum(axis=1).tolist() == [2, 2]
        assert counts.sum(axis=0).tolist() == [2, 2]
        assert counts.sum() == 4

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="label lengths differ"):
            contingency([0, 1], [0, 1, 2])

    def test_arbitrary_label_values(self):
        counts = contingency(["a", "a", "b"], [9, 7, 9])
        assert counts.tolist() == [[1, 1], [0, 1]] and counts.sum() == 3

    def test_counts_match_pair_loop(self):
        rng = np.random.default_rng(4)
        top = np.iinfo(np.int64)
        pairs = {
            "random": (rng.integers(-3, 5, size=500), rng.integers(10, 13, size=500) * 7),
            "negative": (rng.integers(-9, -2, size=40), rng.integers(-1, 1, size=40)),
            "single-value": (np.full(30, -4), rng.integers(0, 3, size=30)),
            "uint64-above-2**63": (rng.integers(2 ** 63, 2 ** 63 + 6, size=40, dtype=np.uint64),
                                   np.array([2 ** 64 - 1, 2 ** 63] * 20, dtype=np.uint64)),
            # the span overflows int64, so it must be taken in Python ints
            "int64-min-and-max": (np.array([top.min, top.max, 0, top.max, -1, top.min]),
                                  np.array([0, 1, 1, 0, 0, 1])),
            # every int8 value once: the offsets overflow int8
            "int8-full-range": (np.arange(-128, 128).astype(np.int8),
                                np.arange(256).astype(np.uint8) % 5),
            "span-equals-length": (np.array([0, 4, 4, 1]), np.array([7, 7, 3, 3])),
            "span-above-length": (rng.integers(0, 10 ** 9, size=40), rng.integers(0, 90, size=40)),
            "integral-floats": (rng.integers(0, 4, size=50).astype(np.float64),
                                rng.integers(-2, 2, size=50)),
            "bool": (rng.random(50) < 0.3, rng.integers(0, 3, size=50)),
            "strings": (rng.choice(["b", "a", "c"], size=50), rng.integers(0, 3, size=50)),
        }
        for case, (a, b) in pairs.items():
            counts = contingency(a, b)
            rows, cols = np.unique(a).tolist(), np.unique(b).tolist()
            expected = np.zeros((len(rows), len(cols)), dtype=np.int64)
            for x, y in zip(a.tolist(), b.tolist()):
                expected[rows.index(x), cols.index(y)] += 1
            assert counts.dtype == np.int64 and np.array_equal(counts, expected), case


class TestAri:
    def test_identical_is_exactly_one(self):
        assert ari([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == 1.0

    def test_permutation_invariant(self):
        assert ari([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_worked_negative_case(self):
        assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5, abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        t = rng.integers(0, 4, size=60)
        p = rng.integers(0, 3, size=60)
        relabel = {0: 7, 1: 2, 2: 11, 3: 0}
        assert ari(t, p) == pytest.approx(ari([relabel[x] for x in t], p), abs=1e-14)

    def test_random_labelings_center_on_zero(self):
        rng = np.random.default_rng(2)
        scores = []
        for _ in range(50):
            t = rng.integers(0, 5, size=1000)
            p = rng.integers(0, 5, size=1000)
            scores.append(ari(t, p))
        assert abs(np.mean(scores)) < 0.02

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            ari([0], [0])


class TestAcc:
    def test_identical(self):
        assert acc([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_matching_absorbs_permutation(self):
        assert acc([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_worked_three_quarters(self):
        assert acc([0, 0, 0, 1], [0, 1, 0, 1]) == 0.75

    def test_matches_bruteforce_permutations(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            kt = int(rng.integers(1, 7))
            kp = int(rng.integers(1, 7))
            t = rng.integers(0, kt, size=n)
            p = rng.integers(0, kp, size=n)
            assert acc(t, p) == acc_bruteforce(t, p)

    def test_rectangular_tables(self):
        # more predicted clusters than true ones and vice versa
        assert acc([0, 0, 0, 0], [0, 1, 2, 3]) == 0.25
        assert acc([0, 1, 2, 3], [0, 0, 0, 0]) == 0.25

    def test_matches_scipy_assignment_beyond_permutations(self):
        # the reference total comes from scipy, used only here; each table is
        # spelled out as labels, so acc recounts it through `contingency`, and
        # rows < cols and rows > cols both occur
        rng = np.random.default_rng(8)
        for _ in range(2000):
            rows, cols = (int(x) for x in rng.integers(1, 41, size=2))
            table = rng.integers(0, int(rng.choice([2, 4, 30])), size=(rows, cols))
            if rng.random() < 0.3:
                table[:, rng.integers(cols)] = 0
            if rng.random() < 0.3:
                table[:, rng.integers(cols)] = table[:, rng.integers(cols)]
            if rng.random() < 0.05:   # a few counts in the tens of thousands
                table[rng.integers(rows, size=3), rng.integers(cols, size=3)] = \
                    rng.integers(1, 100_001, size=3)
            table[rng.integers(rows), rng.integers(cols)] += 1   # at least one sample
            cells = np.repeat(np.arange(rows * cols), table.ravel())
            matched = linear_sum_assignment(table, maximize=True)
            expected = int(table[matched].sum()) / int(table.sum())
            assert acc(cells // cols, cells % cols) == expected

    def test_many_predicted_ids_scan_the_shorter_side(self):
        # what a large --k passthrough scores: 4 classes, 3,000 singleton clusters
        true = np.arange(3000) % 4
        pred = np.random.default_rng(9).permutation(3000) * 5 + 11
        start = time.perf_counter()
        assert acc(true, pred) == 4 / 3000
        assert acc(pred, true) == 4 / 3000
        assert time.perf_counter() - start < 2.0


class TestNmi:
    def test_identical_is_exactly_one(self):
        # a bijection of clusters makes I(U;V) = H(U) = H(V) term for term, so
        # the score is 1 by structure, whatever order the ids sort in
        assert nmi([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
        assert nmi([0, 1, 2, 0, 1, 2], [5, 3, 1, 5, 3, 1]) == 1.0
        assert nmi(np.arange(14) % 3, 2 - np.arange(14) % 3) == 1.0

    def test_both_single_cluster(self):
        assert nmi([0, 0, 0], [1, 1, 1]) == 1.0

    def test_one_single_cluster(self):
        assert nmi([0, 0, 0, 0], [0, 1, 0, 1]) == 0.0
        assert nmi([0, 1, 0, 1], [2, 2, 2, 2]) == 0.0
        # the general formula gives exactly 0.0: with one row (or column) each
        # cell's p equals its column's (row's) marginal, and ln 1 = 0
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 301))
            k = int(rng.integers(2, min(n, 7) + 1))
            other = rng.integers(0, k, size=n)
            other[rng.choice(n, size=k, replace=False)] = np.arange(k)
            constant = np.full(n, rng.integers(-5, 5))
            assert nmi(constant, other) == 0.0
            assert nmi(other, constant) == 0.0

    def test_independent_labelings(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_worked_asymmetric_case(self):
        # I and the entropies recomputed from the 2x2 table [[2,0],[1,1]]
        h_u = -(0.5 * math.log(0.5)) * 2
        h_v = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        mutual = (2 / 4) * math.log((2 / 4) / (0.5 * 0.75)) \
            + (1 / 4) * math.log((1 / 4) / (0.5 * 0.75)) \
            + (1 / 4) * math.log((1 / 4) / (0.5 * 0.25))
        expected = mutual / (0.5 * (h_u + h_v))
        assert nmi([0, 0, 1, 1], [0, 0, 0, 1]) == pytest.approx(expected, rel=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        t = rng.integers(0, 4, size=80)
        p = rng.integers(0, 5, size=80)
        shuffled = (p * 7 + 3) % 11
        assert nmi(t, p) == pytest.approx(nmi(t, shuffled), abs=1e-14)

    def test_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            t = rng.integers(0, 6, size=50)
            p = rng.integers(0, 6, size=50)
            assert 0.0 <= nmi(t, p) <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nmi([0, 1], [0, 1, 1])


def test_all_metrics_invariant_under_both_relabelings():
    rng = np.random.default_rng(6)
    t = rng.integers(0, 4, size=100)
    p = rng.integers(0, 4, size=100)
    tr = (t * 3 + 1) % 5
    pr = (p + 2) % 4
    for metric in (ari, acc, nmi):
        assert metric(t, p) == pytest.approx(metric(tr, pr), abs=1e-14)


def test_ari_and_nmi_match_definitional_oracles():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 121))
        t = rng.integers(0, int(rng.integers(1, 9)), size=n)
        p = rng.integers(0, int(rng.integers(1, 9)), size=n)
        assert ari(t, p) == pytest.approx(ari_pairs(t, p), abs=1e-14)
        assert nmi(t, p) == pytest.approx(nmi_definition(t, p), abs=1e-14)


@pytest.mark.parametrize("metric", [ari, acc, nmi])
def test_empty_labelings_rejected_by_name(metric):
    with pytest.raises(ValueError, match="labelings are empty"):
        metric(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
