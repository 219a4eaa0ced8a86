"""Memory guards for CSV ingestion, normalization, farthest-point initialization, the
regeneration loop, residual reattachment, final ownership, the peel scan, k-means++ and
the contingency table.

Peaks are tracemalloc counts of the bytes the call allocates (numpy reports
its buffers to tracemalloc), so they repeat exactly from run to run.
"""

import tracemalloc

import numpy as np
import pytest

from gbmdl.backends import KMEANS_RESTARTS, kmeanspp
from gbmdl.cli import load_csv
from gbmdl.core import Dataset, GranularBall, minmax_normalize
from gbmdl.generation import (
    assign_samples,
    generate_stable_balls,
    initialize_balls,
    reassign_residuals,
)
from gbmdl.metrics import contingency
from gbmdl.models import RADIUS_FLOOR, ball_radius, l3_best_peel

MB = 2 ** 20


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assign_samples_memory_is_bounded():
    # a dense 200k x 64 distance matrix alone would take 98 MB
    rng = np.random.default_rng(0)
    ds = Dataset(values=rng.random((200_000, 2)))
    balls = [GranularBall.from_members(ds.values, np.array([i])) for i in range(64)]
    owner, peak = traced_peak(assign_samples, ds, balls)
    assert owner.shape == (200_000,)
    assert peak < 16 * MB


def test_minmax_normalize_memory_is_bounded():
    # the scaled copy (12.8 MB here) is divided in place; the finiteness check of
    # the new Dataset adds 1.6 MB of booleans. Dividing into a second n x d array
    # would peak at two copies of the values.
    rng = np.random.default_rng(7)
    ds = Dataset(values=rng.random((200_000, 8)) * 5.0 - 1.0)
    scaled, peak = traced_peak(minmax_normalize, ds)
    assert scaled.values.min() == 0.0 and scaled.values.max() == 1.0
    assert peak < 1.5 * ds.values.nbytes


def test_initialize_balls_memory_is_bounded():
    # the first bisection holds the feature-major copy of the values and one
    # difference array (12.8 MB each here), and five n-vectors of 1.6 MB: 2.6
    # copies of the values. It needs no gather, because its subset is every sample;
    # a gather or one more n x d temporary would break the bound.
    rng = np.random.default_rng(6)
    ds = Dataset(values=rng.random((200_000, 8)))
    balls, peak = traced_peak(initialize_balls, ds, 447)
    assert len(balls) == 447 and sum(b.size for b in balls) == 200_000
    assert peak < 3 * ds.values.nbytes


def test_reassign_memory_is_bounded():
    # a dense 20k residuals x 256 balls x 8 float64 array alone would take 312 MB
    rng = np.random.default_rng(4)
    values = rng.random((20_000 + 256 * 40, 8))
    balls = [GranularBall.from_members(values, np.arange(20_000 + 40 * j, 20_040 + 40 * j))
             for j in range(256)]
    (updated, attachments, background), peak = traced_peak(
        reassign_residuals, list(range(20_000)), balls, values)
    assert len(updated) == 256 and len(attachments) + len(background) == 20_000
    assert peak < 16 * MB


def test_regeneration_memory_is_bounded():
    # each FIFO generation is priced in blocks of at most BLOCK_CELLS padded cells
    # (512 KB per array); the peak is 4.4 MB, a few such arrays plus the 0.6 MB
    # sample matrix and the trace's split and peel partitions. The first generation
    # padded whole (141 balls, the largest of 319 points) would take 1.4 MB per array.
    rng = np.random.default_rng(5)
    means = rng.uniform(0.2, 0.8, size=(8, 4))
    blobs = means[rng.integers(0, 8, size=14_000)] + rng.normal(scale=0.04, size=(14_000, 4))
    ds = minmax_normalize(Dataset(values=np.vstack([blobs, rng.random((6_000, 4))])))
    (stable, pool, trace), peak = traced_peak(generate_stable_balls, ds)
    assert sum(b.size for b in stable) + len(pool) == 20_000
    assert peak < 6 * MB


def test_load_csv_memory_is_linear(tmp_path):
    # the parsed values take 1.2 MB. numpy's reader holds its 1.4 MB structured
    # array (eight float64 fields and one label object per row) while it copies
    # out the values; the row parser, which only the irregular tables reach, fills
    # one float64 buffer. Per-row Python lists would take over 10 MB.
    rng = np.random.default_rng(1)
    path = tmp_path / "wide.csv"
    table = np.column_stack([rng.random((20_000, 8)), rng.integers(0, 5, 20_000)])
    for header in ["", ",".join([*(f"x{c}" for c in range(8)), "label"])]:
        np.savetxt(path, table, delimiter=",", fmt=["%.6f"] * 8 + ["%d"], header=header,
                   comments="")
        ds, peak = traced_peak(load_csv, str(path))
        assert (ds.n, ds.d) == (20_000, 8)
        assert peak < 4 * MB


@pytest.mark.parametrize("layout", ["normal", "two-duplicates", "even-1d"])
def test_peel_scan_memory_is_bounded(layout):
    # the scan keeps O(n_B·d) scratch: each 8000 x 8 float64 array takes 0.5 MB
    rng = np.random.default_rng(2)
    if layout == "normal":
        values = rng.normal(size=(8_000, 4))
    elif layout == "two-duplicates":
        # both points and every core mean lie on one line, where the radius
        # bound is tight; in this row order one q is measured exactly, while
        # sorted rows have all 7,995 measured
        values = rng.permutation(np.repeat(np.eye(2, 8), 4_000, axis=0))
    else:
        # evenly spaced points on a line: 57 residual sizes are measured exactly
        values = np.linspace(0.0, 1.0, 8_000)[:, None]
    ball = GranularBall.from_members(values, np.arange(8_000))
    assert ball_radius(values, ball.center) > RADIUS_FLOOR
    (length, peel), peak = traced_peak(l3_best_peel, ball.members, values, 5)
    assert np.isfinite(length) and peel[0].size + peel[1].size == 8_000
    assert peak < 8 * MB


def test_kmeanspp_memory_is_bounded():
    # K·n = 100,000 cells exceed BLOCK_CELLS, so the one seed is a group of its own: its
    # ten restarts run together, with two 10 x 20 x 5000 float64 buffers of 8 MB and a
    # cycle history of one byte per label. Forming all ten restarts' 8-feature
    # differences at once would take 64 MB.
    rng = np.random.default_rng(3)
    centers = rng.random((5_000, 8))
    labels, peak = traced_peak(kmeanspp, centers, 20, [0])
    assert set(labels[0].tolist()) == set(range(20))
    assert peak < 32 * MB


def test_kmeanspp_memory_of_one_seed_above_the_block():
    # R·K·n = 80,000 cells exceed BLOCK_CELLS, so the seed runs alone in a group whose
    # (restarts, K, n) buffers take R·K·n float64 each (625 KB); its 4-feature
    # (d, restarts, n) arrays take 0.4 times that. The whole (d, restarts, K, n)
    # difference would take four times the buffer on its own.
    rng = np.random.default_rng(5)
    centers = rng.random((800, 4))
    labels, peak = traced_peak(kmeanspp, centers, 10, [0])
    assert set(labels[0].tolist()) == set(range(10))
    assert peak < 5 * (KMEANS_RESTARTS * 10 * 800) * 8


def test_kmeanspp_memory_does_not_grow_with_restarts():
    # 5,000 seeds are 50,000 restarts, run 121 seeds at a time (BLOCK_CELLS // 540
    # cells). A group's uniforms and buffers live only while it runs, so what grows
    # per seed is its labelling: 144 bytes, 0.7 MB for all 5,000. Keeping all 42
    # groups' two Lloyd buffers instead would take 42 MB.
    rng = np.random.default_rng(4)
    centers = rng.random((18, 4))
    labels, peak = traced_peak(kmeanspp, centers, 3, range(5_000))
    assert labels.shape == (5_000, 18)
    assert peak < 16 * MB


def test_contingency_memory_is_linear():
    # integer labels are ranked through a table over their value span only when
    # the span is below their count; a table over [0, 2**40] would take 8 TB
    labels = np.tile(np.array([0, 2 ** 40]), 50_000)
    counts, peak = traced_peak(contingency, labels, labels[::-1])
    assert counts.tolist() == [[0, 50_000], [50_000, 0]]
    assert peak < 8 * MB
