"""Tests of the bi-modal uniform fitting used for end-to-end delays (§5.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.distributions import BimodalUniform
from repro.stats.fitting import fit_bimodal_uniform


def _samples_from(dist: BimodalUniform, n: int = 5000) -> list[float]:
    rng = np.random.default_rng(5)
    return [dist.sample(rng) for _ in range(n)]


def test_fit_recovers_the_papers_distribution_approximately():
    truth = BimodalUniform()  # the paper's unicast fit
    fitted = fit_bimodal_uniform(_samples_from(truth))
    assert fitted.low1 == pytest.approx(0.1, abs=0.02)
    assert fitted.high2 == pytest.approx(0.35, abs=0.03)
    assert fitted.p1 == pytest.approx(0.8)
    assert fitted.mean() == pytest.approx(truth.mean(), rel=0.1)


def test_fit_respects_the_requested_body_probability():
    truth = BimodalUniform()
    fitted = fit_bimodal_uniform(_samples_from(truth), body_probability=0.6)
    assert fitted.p1 == pytest.approx(0.6)


def test_fitted_modes_do_not_overlap():
    rng = np.random.default_rng(11)
    samples = list(rng.uniform(0.1, 0.4, size=2000))
    fitted = fit_bimodal_uniform(samples)
    assert fitted.low1 <= fitted.high1 <= fitted.low2 <= fitted.high2


def test_fit_requires_enough_samples():
    with pytest.raises(ValueError):
        fit_bimodal_uniform([0.1] * 5)


def test_fit_rejects_invalid_body_probability():
    with pytest.raises(ValueError):
        fit_bimodal_uniform([0.1] * 20, body_probability=1.2)


def test_fit_handles_nearly_constant_data():
    samples = [0.2 + 1e-6 * i for i in range(100)]
    fitted = fit_bimodal_uniform(samples)
    assert fitted.low1 == pytest.approx(0.2, abs=1e-3)
    assert fitted.high2 == pytest.approx(0.2, abs=1e-3)


def _three_call_fit(samples, body_probability=0.8, lower_quantile=0.01, upper_quantile=0.99):
    """The fit as first written (a ``sorted()`` list, one quantile call each)."""
    data = np.asarray(sorted(float(x) for x in samples), dtype=float)
    low_clip = float(np.quantile(data, lower_quantile))
    high_clip = float(np.quantile(data, upper_quantile))
    split = float(np.quantile(data, body_probability))
    body = data[(data >= low_clip) & (data <= split)]
    tail = data[(data > split) & (data <= high_clip)]
    if body.size == 0 or tail.size == 0:
        split = float(np.median(data))
        body = data[data <= split]
        tail = data[data > split]
    low1, high1 = float(body.min()), float(body.max())
    low2, high2 = float(tail.min()), float(tail.max())
    if high1 <= low1:
        high1 = low1 + 1e-9
    if high2 <= low2:
        high2 = low2 + 1e-9
    if low2 < high1:
        low2 = high1
        if high2 <= low2:
            high2 = low2 + 1e-9
    return low1, high1, low2, high2


def _outcome(fit, *args, **kwargs):
    """The fitted bounds as exact bit patterns, or the error raised."""
    try:
        bounds = fit(*args, **kwargs)
    except Exception as error:  # compared, not swallowed
        return type(error), str(error)
    if isinstance(bounds, BimodalUniform):
        bounds = (bounds.low1, bounds.high1, bounds.low2, bounds.high2)
    return tuple(float(value).hex() for value in bounds)


#: Delays drawn from a few repeated values (ties, signed zeros) and from a
#: continuous range, so both the regular and the degenerate split occur.
_DELAYS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.13, 0.145, 0.35, 1.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
@given(
    samples=st.lists(_DELAYS, min_size=10, max_size=2000),
    body_probability=st.sampled_from([0.5, 0.6, 0.8, 0.95]),
)
def test_fit_is_bit_identical_to_the_three_call_formula(samples, body_probability):
    expected = _outcome(_three_call_fit, samples, body_probability=body_probability)
    fitted = _outcome(fit_bimodal_uniform, samples, body_probability=body_probability)
    assert fitted == expected
