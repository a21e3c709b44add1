"""Tests of the empirical CDF."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.stats.cdf import EmpiricalCDF


def test_evaluate_at_sample_points():
    cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
    assert cdf(0.5) == 0.0
    assert cdf(1.0) == 0.25
    assert cdf(2.5) == 0.5
    assert cdf(4.0) == 1.0
    assert cdf(10.0) == 1.0


def test_quantiles_are_inverse_of_evaluate():
    cdf = EmpiricalCDF([10, 20, 30, 40, 50])
    assert cdf.quantile(0.2) == 10
    assert cdf.quantile(0.5) == 30
    assert cdf.quantile(1.0) == 50
    assert cdf.quantile(0.0) == 10
    assert cdf.median() == 30


def test_min_max_mean():
    cdf = EmpiricalCDF([3.0, 1.0, 2.0])
    assert cdf.min == 1.0
    assert cdf.max == 3.0
    assert cdf.mean() == pytest.approx(2.0)
    assert cdf.n == 3


def test_series_is_a_nondecreasing_step_function():
    cdf = EmpiricalCDF([5, 1, 4, 2, 3])
    xs, ps = cdf.series()
    assert list(xs) == sorted(xs)
    assert list(ps) == sorted(ps)
    assert ps[-1] == pytest.approx(1.0)


def test_series_subsampling_limits_points():
    cdf = EmpiricalCDF(range(1000))
    xs, ps = cdf.series(points=10)
    assert len(xs) == len(ps) == 10


def test_table_lists_requested_quantiles():
    cdf = EmpiricalCDF(range(1, 11))
    table = cdf.table([0.1, 0.5, 0.9])
    assert table == [(0.1, 1.0), (0.5, 5.0), (0.9, 9.0)]


def test_ks_distance_of_identical_samples_is_zero():
    a = EmpiricalCDF([1, 2, 3, 4])
    b = EmpiricalCDF([1, 2, 3, 4])
    assert a.ks_distance(b) == 0.0


def test_ks_distance_of_disjoint_samples_is_one():
    a = EmpiricalCDF([1, 2, 3])
    b = EmpiricalCDF([10, 20, 30])
    assert a.ks_distance(b) == pytest.approx(1.0)


def test_ks_distance_is_symmetric():
    a = EmpiricalCDF([1, 2, 3, 7, 9])
    b = EmpiricalCDF([2, 3, 4, 5])
    assert a.ks_distance(b) == pytest.approx(b.ks_distance(a))


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        EmpiricalCDF([])


def test_nan_samples_are_rejected_with_their_count():
    # Sorting used to place NaN arbitrarily and yield a wrong CDF silently.
    with pytest.raises(ValueError, match="2 NaN sample"):
        EmpiricalCDF([1.0, float("nan"), 3.0, float("nan")])
    with pytest.raises(ValueError, match="1 NaN sample"):
        EmpiricalCDF(np.array([np.nan]))


def test_any_iterable_sorts_stably_with_signed_zeros_in_input_order():
    cdf = EmpiricalCDF(x for x in (0.0, -0.0, 1, np.float32(-1.5), -0.0))
    assert cdf.samples.tolist() == [-1.5, 0.0, -0.0, -0.0, 1.0]
    assert np.signbit(cdf.samples).tolist() == [True, False, True, True, False]


def test_invalid_quantile_rejected():
    cdf = EmpiricalCDF([1, 2, 3])
    with pytest.raises(ValueError):
        cdf.quantile(1.5)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=80))
def test_cdf_is_monotone_and_bounded(samples):
    cdf = EmpiricalCDF(samples)
    grid = sorted(samples)
    values = [cdf(x) for x in grid]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:], strict=False))
    assert cdf(max(samples)) == pytest.approx(1.0)


@given(
    st.lists(st.floats(min_value=0, max_value=1e3, allow_nan=False), min_size=1, max_size=50),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_quantile_threshold_property(samples, p):
    cdf = EmpiricalCDF(samples)
    x = cdf.quantile(p)
    assert cdf(x) >= p - 1e-12
