"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gbmdl.backends import cluster_or_passthrough, labels_to_samples
from gbmdl.cli import RunConfig, run_pipeline
from gbmdl.core import Dataset, GranularBall, ModelChoice, stats_add_point, stats_from_points
from gbmdl.generation import (
    adaptive_n_min,
    generate,
    generate_stable_balls,
    reassign_residuals,
)
from gbmdl.metrics import acc, ari, nmi
from gbmdl.models import (
    evaluate_ball,
    first_principal_direction,
    l1_length,
    l2_best_split,
    l3_best_peel,
    partition_cost,
)
from gbmdl.preprocess import minmax_normalize

from oracles import (
    acc_bruteforce,
    best_peel_bruteforce,
    best_split_bruteforce,
    is_ascending_partition,
    l1_numeric,
)


@contextmanager
def criterion(number: str, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_closed_form_oracle():
    with criterion("1", "closed-form length matches numeric penalized NLL (200 subsets)"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(200):
            m = int(rng.integers(2, 301))
            d = int(rng.integers(1, 31))
            pts = rng.normal(size=(m, d)) * rng.uniform(0.01, 20.0) \
                + rng.normal(size=d) * 10.0
            fast = l1_length(stats_from_points(pts), d)
            assert fast == pytest.approx(l1_numeric(pts), rel=1e-9)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_split_and_peel_bruteforce_oracles():
    with criterion("2", "split/peel scans match exhaustive recomputation (100 balls)"):
        rng = np.random.default_rng(202)
        start = time.perf_counter()
        for _ in range(100):
            n = int(rng.integers(5, 201))
            d = int(rng.integers(1, 11))
            if rng.random() < 0.5:
                pts = rng.normal(size=(n, d))
            else:
                half = n // 2
                pts = np.vstack([rng.normal(-2, 0.5, size=(half, d)),
                                 rng.normal(2, 0.5, size=(n - half, d))])
            ball = GranularBall.from_members(pts, np.arange(n))
            n_min = int(rng.integers(2, 9))

            l2_star, split = l2_best_split(ball, pts, n_min)
            if n < 2 * n_min:
                assert l2_star == math.inf and split is None
            else:
                direction = first_principal_direction(pts)
                ref_len, ref = best_split_bruteforce(pts, ball.members, direction, n_min)
                assert l2_star == pytest.approx(ref_len, rel=1e-9)
                assert is_ascending_partition(split, ball.members)
                assert all(np.array_equal(a, b) for a, b in zip(split, ref))

            l3_star, peel = l3_best_peel(ball, pts, n_min)
            ref_len, ref = best_peel_bruteforce(pts, ball.members, n_min)
            if n <= n_min:
                assert l3_star == math.inf and peel is None
            else:
                assert l3_star == pytest.approx(ref_len, rel=1e-9)
                assert is_ascending_partition(peel, ball.members)
                assert all(np.array_equal(a, b) for a, b in zip(peel, ref))
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_3_stirling_entropy_approximation():
    with criterion("3", "entropy cost tracks ln C(n, m1) within 0.1*n, tightening with n"):
        worst_ratios = []
        for n in (100, 1000, 10000):
            lgamma_all = np.array([math.lgamma(k + 1) for k in range(n + 1)])
            m1 = np.arange(1, n)
            log_binom = lgamma_all[n] - lgamma_all[m1] - lgamma_all[n - m1]
            entropy = np.array([partition_cost(int(m), int(n - m)) for m in m1])
            ratio = np.abs(log_binom - entropy) / n
            assert ratio.max() <= 0.1
            worst_ratios.append(ratio.max())
        assert worst_ratios[0] > worst_ratios[1] > worst_ratios[2]


def test_criterion_4_termination_and_stability():
    with criterion("4", "generation terminates, stable balls stay M1, pool partitions"):
        rng = np.random.default_rng(404)
        for trial in range(50):
            n = int(rng.integers(20, 2001))
            d = int(rng.integers(1, 21))
            kind = trial % 3
            if kind == 0:
                values = rng.random((n, d))
            elif kind == 1:
                k = int(rng.integers(2, 6))
                centers = rng.random((k, d))
                values = np.clip(np.vstack([
                    rng.normal(centers[i % k], 0.05, size=(1, d))
                    for i in range(n)]), 0, 1)
            else:
                values = np.round(rng.random((n, d)), 1)   # heavy duplicates
            ds = Dataset(values=values)
            stable, pool, trace = generate_stable_balls(ds)

            indices = np.concatenate([b.members for b in stable]
                                     + [np.asarray(pool, dtype=np.int64)])
            assert np.array_equal(np.sort(indices), np.arange(n))

            n_min = adaptive_n_min(n, d)
            for ball in stable:
                if ball.size > n_min:
                    verdict, _ = evaluate_ball(ball, ds.values, n_min)
                    assert verdict.choice is ModelChoice.SINGLE_BALL


def test_criterion_5_metric_oracles():
    with criterion("5", "acc equals brute force; worked ARI cases are exact"):
        rng = np.random.default_rng(505)
        for _ in range(500):
            n = int(rng.integers(2, 30))
            t = rng.integers(0, int(rng.integers(1, 7)), size=n)
            p = rng.integers(0, int(rng.integers(1, 7)), size=n)
            assert acc(t, p) == acc_bruteforce(t, p)
        assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5, abs=1e-12)
        assert ari([0, 0, 1, 1, 2, 2], [0, 0, 1, 1, 2, 2]) == 1.0
        assert nmi([0, 0, 1, 1, 2, 2], [0, 0, 1, 1, 2, 2]) == 1.0


def _benchmark(path: str) -> tuple[float, float]:
    start = time.perf_counter()
    report = run_pipeline(RunConfig(input=path, backend="ac", runs=1))
    return report["summary"]["ari_mean"], time.perf_counter() - start


def test_criterion_6_iris_reproduction(iris_path):
    with criterion("6a", "Iris with the agglomerative backend reaches ARI >= 0.55 in < 5 s"):
        score, elapsed = _benchmark(iris_path)
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        assert score >= 0.55, f"Iris ARI {score:.4f} < 0.55"


def test_criterion_6_wine_reproduction(wine_path):
    # Known shortfall, deliberately left red: the pipeline reaches ~0.70 here
    # because the adaptive minimum ball size (10 for this shape) leaves most
    # initial balls below the 2*n_min split-feasibility bound, freezing
    # generation at initialization granularity. The threshold is asserted
    # as required rather than weakened. See README "Tests".
    with criterion("6b", "Wine with the agglomerative backend reaches ARI >= 0.80 in < 5 s"):
        score, elapsed = _benchmark(wine_path)
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        assert score >= 0.80, f"Wine ARI {score:.4f} < 0.80"


def test_criterion_7_cli_byte_identical_reports(iris_path, tmp_path):
    with criterion("7", "two identical CLI invocations produce byte-identical reports"):
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "gbmdl",
                 "--input", iris_path, "--backend", "ac", "--runs", "3",
                 "--seed", "1", "--omit-timings", "--output", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        data = json.loads(outputs[0])
        assert list(data) == ["config", "dataset", "generation", "runs", "summary"]


def test_criterion_8_separated_blobs_structure():
    with criterion("8", "well-separated blobs give label-pure balls and ARI 1.0"):
        rng = np.random.default_rng(808)
        spread = 0.03
        a = rng.normal((0.25, 0.25), spread, size=(100, 2))
        b = rng.normal((0.75, 0.75), spread, size=(100, 2))
        # inter-center distance 0.707 >= 10 * within-blob standard deviation
        assert math.hypot(0.5, 0.5) >= 10 * spread
        ds = Dataset(values=np.clip(np.vstack([a, b]), 0, 1),
                     labels=np.array([0] * 100 + [1] * 100))
        result = generate(ds)
        for ball in result.stable_balls:
            assert np.unique(ds.labels[ball.members]).size == 1
        clustering = cluster_or_passthrough(list(result.stable_balls), 2, "ac")
        predicted = labels_to_samples(result.ownership, clustering.ball_labels)
        assert ari(ds.labels, predicted) == 1.0


def test_criterion_9_background_cost_identity():
    with criterion("9", "normalized background cost is exactly 0 and argmin decides"):
        rng = np.random.default_rng(909)
        raw = np.vstack([rng.normal(0.3, 0.04, size=(60, 3)),
                         rng.normal(0.7, 0.04, size=(60, 3)),
                         rng.uniform(0, 1, size=(15, 3))])
        ds = minmax_normalize(Dataset(values=raw))
        stable, pool, _ = generate_stable_balls(ds)
        background_cost = 0.0   # unit hypercube after normalization

        updated, attachments, background = reassign_residuals(pool, stable, ds.values)
        assert set(attachments) | set(background) == set(pool)
        d = ds.d
        for idx in pool:
            deltas = np.array([
                l1_length(stats_add_point(ball.stats, ds.values[idx]), d)
                - l1_length(ball.stats, d) for ball in stable])
            j = int(np.argmin(deltas))
            if deltas[j] <= background_cost:
                assert attachments[idx] == j
            else:
                assert idx in background
