"""Memory guards for the two O(n) stages: CSV ingestion and final ownership.

Peaks are tracemalloc counts of the bytes the call allocates (numpy reports
its buffers to tracemalloc), so they repeat exactly from run to run.
"""

import tracemalloc

import numpy as np

from gbmdl.cli import load_csv
from gbmdl.core import Dataset, GranularBall
from gbmdl.generation import assign_samples

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


def test_load_csv_memory_is_linear(tmp_path):
    # the parsed values take 1.2 MB; per-row Python lists would take over 10 MB
    rng = np.random.default_rng(1)
    path = tmp_path / "wide.csv"
    table = np.column_stack([rng.random((20_000, 8)), rng.integers(0, 5, 20_000)])
    np.savetxt(path, table, delimiter=",", fmt=["%.6f"] * 8 + ["%d"])
    ds, peak = traced_peak(load_csv, str(path))
    assert (ds.n, ds.d) == (20_000, 8)
    assert peak < 4 * MB
