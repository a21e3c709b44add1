"""Tests of means, confidence intervals and summaries."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.stats.descriptive import (
    _t_quantile,
    batch_means,
    confidence_interval,
    summarize,
)


def test_confidence_interval_of_constant_sample_has_zero_width():
    ci = confidence_interval([2.0, 2.0, 2.0, 2.0])
    assert ci.mean == 2.0
    assert ci.half_width == 0.0
    assert ci.contains(2.0)


def test_confidence_interval_known_values():
    # For the sample 1..5 with 90% confidence, mean 3, sd 1.5811,
    # t(0.95, df=4) = 2.1318 -> half width ~ 1.507.
    ci = confidence_interval([1, 2, 3, 4, 5], confidence=0.90)
    assert ci.mean == pytest.approx(3.0)
    assert ci.half_width == pytest.approx(1.5074, rel=1e-3)
    assert ci.lower == pytest.approx(3.0 - 1.5074, rel=1e-3)
    assert ci.upper == pytest.approx(3.0 + 1.5074, rel=1e-3)


def test_single_observation_gives_infinite_half_width():
    ci = confidence_interval([4.2])
    assert ci.mean == 4.2
    assert math.isinf(ci.half_width)


def test_higher_confidence_widens_the_interval():
    sample = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    narrow = confidence_interval(sample, confidence=0.80)
    wide = confidence_interval(sample, confidence=0.99)
    assert wide.half_width > narrow.half_width


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        confidence_interval([])


def test_invalid_confidence_rejected():
    with pytest.raises(ValueError):
        confidence_interval([1, 2], confidence=1.5)


def test_interval_overlap_detection():
    a = confidence_interval([1.0, 1.1, 0.9, 1.05])
    b = confidence_interval([1.05, 1.0, 1.1, 0.95])
    c = confidence_interval([100.0, 101.0, 99.0])
    assert a.overlaps(b)
    assert not a.overlaps(c)


def test_summarize_reports_order_statistics():
    summary = summarize(list(range(1, 101)))
    assert summary.n == 100
    assert summary.mean == pytest.approx(50.5)
    assert summary.minimum == 1
    assert summary.maximum == 100
    assert summary.median == pytest.approx(50.5)
    assert summary.p90 == pytest.approx(90.1, rel=1e-2)
    assert "mean" in summary.as_dict()


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_batch_means_partitions_the_sample():
    means = batch_means([1, 2, 3, 4, 5, 6], batches=3)
    assert means == [1.5, 3.5, 5.5]


def test_batch_means_rejects_more_batches_than_samples():
    with pytest.raises(ValueError):
        batch_means([1, 2], batches=3)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=50))
def test_confidence_interval_always_contains_the_sample_mean(sample):
    ci = confidence_interval(sample)
    assert ci.lower <= ci.mean <= ci.upper
    assert ci.mean == pytest.approx(float(np.mean(sample)), abs=1e-6)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=1, max_size=60)
)
def test_summary_respects_basic_order_invariants(sample):
    summary = summarize(sample)
    # Comparisons allow a tiny slack for floating-point summation error
    # (e.g. the mean of [0.7, 0.7, 0.7] is 0.6999...98 in IEEE arithmetic).
    slack = 1e-9 * max(1.0, summary.maximum)
    assert summary.minimum <= summary.median <= summary.maximum
    assert summary.minimum - slack <= summary.mean <= summary.maximum + slack
    assert summary.p90 <= summary.maximum + slack


# ----------------------------------------------------------------------
# The t quantile reproduces scipy.stats.t.ppf bit for bit
# ----------------------------------------------------------------------
def _scipy_t_quantile(df, confidence):
    # The call confidence_interval made before it used scipy.special.
    return float(stats.t.ppf(0.5 + confidence / 2.0, df=df))


@pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
def test_t_quantile_matches_scipy_stats_on_every_df_below_2000(confidence):
    for df in range(1, 2000):
        assert _t_quantile(df, confidence) == _scipy_t_quantile(df, confidence), df


@given(
    df=st.integers(min_value=1, max_value=10**7),
    confidence=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
@settings(max_examples=300, deadline=None)
def test_t_quantile_matches_scipy_stats_at_any_confidence(df, confidence):
    assert _t_quantile(df, confidence) == _scipy_t_quantile(df, confidence)


@given(
    sample=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=50
    ),
    confidence=st.sampled_from([0.90, 0.95, 0.99]),
)
def test_confidence_interval_half_width_is_bit_identical_to_the_scipy_stats_formula(
    sample, confidence
):
    data = np.asarray(sample, dtype=float)
    std_err = float(np.std(data, ddof=1)) / math.sqrt(data.size)
    expected = _scipy_t_quantile(data.size - 1, confidence) * std_err
    assert confidence_interval(sample, confidence).half_width == expected
