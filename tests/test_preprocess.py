import numpy as np
import pytest

from gbmdl.core import Dataset, minmax_normalize
from gbmdl.errors import DataQualityError


def test_endpoints_map_to_unit_interval():
    ds = minmax_normalize(Dataset(values=np.array([[0.0], [5.0], [10.0]])))
    assert ds.values.ravel().tolist() == [0.0, 0.5, 1.0]


def test_constant_column_maps_to_zero():
    ds = minmax_normalize(Dataset(values=np.array([[7.0, 1.0], [7.0, 3.0], [7.0, 2.0]])))
    assert ds.values.tolist() == [[0.0, 0.0], [0.0, 1.0], [0.0, 0.5]]
    assert ds.d == 2


def test_direct_column_evaluation():
    ds = minmax_normalize(Dataset(values=np.array([[1.0], [2.0], [4.0]])))
    assert ds.values.ravel() == pytest.approx([0.0, 1.0 / 3.0, 1.0])


def test_labels_carried_through():
    ds = minmax_normalize(Dataset(values=np.array([[1.0], [3.0]]), labels=[1, 0]))
    assert ds.labels.tolist() == [1, 0]


def test_rejects_non_finite_input():
    with pytest.raises(DataQualityError):
        minmax_normalize(Dataset(values=np.array([[1.0], [np.nan]])))


def test_idempotent_on_normalized_data():
    rng = np.random.default_rng(3)
    ds = minmax_normalize(Dataset(values=rng.random((40, 5)) * 9 - 4))
    again = minmax_normalize(ds)
    assert np.all(np.abs(again.values - ds.values) < 1e-12)


def test_order_preserving_per_feature():
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(50, 3)) * 7
    ds = minmax_normalize(Dataset(values=raw))
    for j in range(3):
        assert np.array_equal(np.argsort(raw[:, j], kind="stable"),
                              np.argsort(ds.values[:, j], kind="stable"))

