"""Fitting parametric distributions to measured samples.

§5.1 of the paper approximates the measured end-to-end delay distributions
"by using uniform distributions in a bi-modal fashion": a uniform body
holding most of the probability mass and a uniform tail holding the rest
(``U[0.1, 0.13]`` with probability 0.8 and ``U[0.145, 0.35]`` with
probability 0.2 for unicast messages).  :func:`fit_bimodal_uniform`
reproduces that fit from raw samples.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.stats.distributions import BimodalUniform


def fit_bimodal_uniform(
    samples: Sequence[float],
    body_probability: float = 0.8,
    lower_quantile: float = 0.01,
    upper_quantile: float = 0.99,
) -> BimodalUniform:
    """Fit a bi-modal uniform distribution to ``samples``.

    The samples are split at the ``body_probability`` quantile: the lower
    part is fitted with a uniform between its (clipped) extremes, the upper
    part likewise.  Clipping at the ``lower_quantile`` / ``upper_quantile``
    sample quantiles discards the few extreme outliers, as a fit done by eye
    on a CDF plot (which is what the paper did) effectively does.

    Parameters
    ----------
    samples:
        The measured delays.
    body_probability:
        Probability mass assigned to the first (fast) mode; the paper uses
        0.8.
    lower_quantile, upper_quantile:
        Outlier-clipping quantiles.

    Returns
    -------
    BimodalUniform
        The fitted distribution.
    """
    # A stable sort orders ties (0.0 and -0.0 included) as ``sorted()``
    # would, so the fit is bit-identical to one over a sorted list.
    data = np.sort(np.asarray(samples, dtype=float), kind="stable")
    if data.size < 10:
        raise ValueError(
            f"need at least 10 samples to fit a bi-modal uniform, got {data.size}"
        )
    if not 0.0 < body_probability < 1.0:
        raise ValueError("body_probability must be in (0, 1)")
    low_clip, high_clip, split = map(
        float, np.quantile(data, [lower_quantile, upper_quantile, body_probability])
    )
    body = data[(data >= low_clip) & (data <= split)]
    tail = data[(data > split) & (data <= high_clip)]
    if body.size == 0 or tail.size == 0:
        # Degenerate split (e.g. heavily discrete data): fall back to a
        # symmetric split around the median.
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
    return BimodalUniform(
        low1=low1, high1=high1, low2=low2, high2=high2, p1=body_probability
    )
