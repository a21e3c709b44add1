"""Descriptive statistics and confidence intervals.

The paper reports mean latencies with 90% Student-t confidence intervals
computed from run means (§5.2: "The 90% confidence intervals for the
measured means have a half-width smaller than 0.02 ms";  §5.4: "We computed
the mean values and their 90% confidence intervals from the mean values
measured in each of the runs").  This module provides exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around a sample mean."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def lower(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """``True`` if ``value`` lies inside the interval (inclusive)."""
        return self.lower <= value <= self.upper

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """``True`` if the two intervals intersect."""
        return self.lower <= other.upper and other.lower <= self.upper

    def __str__(self) -> str:
        return (
            f"{self.mean:.4g} ± {self.half_width:.3g} "
            f"({self.confidence:.0%} CI, n={self.n})"
        )


@dataclass(frozen=True)
class SampleSummary:
    """Five-number-style summary of a sample, plus mean and CI."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    p90: float
    p99: float
    ci: ConfidenceInterval

    def as_dict(self) -> dict[str, float]:
        """Flatten the summary into a plain dictionary (for reports)."""
        return {
            "n": float(self.n),
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "median": self.median,
            "p90": self.p90,
            "p99": self.p99,
            "ci_half_width": self.ci.half_width,
        }


def _t_quantile(df: int, confidence: float) -> float:
    """Two-sided Student-t quantile: ``scipy.stats.t.ppf(0.5 + confidence / 2, df)``.

    ``scipy.special.stdtrit`` is the function ``t.ppf`` calls, so the value
    is the same bit for bit; it is imported here, on first use, so that
    importing this module does not load scipy.
    """
    from scipy import special

    return float(special.stdtrit(df, 0.5 + confidence / 2.0))


def confidence_interval(
    samples: Sequence[float], confidence: float = 0.90
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``samples``.

    Parameters
    ----------
    samples:
        The observations.  At least one is required; with a single
        observation the half-width is reported as ``inf``.
    confidence:
        Coverage probability, e.g. ``0.90`` for the paper's 90% intervals.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError("cannot compute a confidence interval of an empty sample")
    mean = float(np.mean(data))
    if data.size == 1:
        return ConfidenceInterval(mean=mean, half_width=math.inf,
                                  confidence=confidence, n=1)
    std_err = float(np.std(data, ddof=1)) / math.sqrt(data.size)
    t_value = _t_quantile(data.size - 1, confidence)
    return ConfidenceInterval(
        mean=mean,
        half_width=t_value * std_err,
        confidence=confidence,
        n=int(data.size),
    )


def summarize(samples: Sequence[float], confidence: float = 0.90) -> SampleSummary:
    """Compute a :class:`SampleSummary` of ``samples``."""
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarize an empty sample")
    ci = confidence_interval(data, confidence)
    return SampleSummary(
        n=int(data.size),
        mean=float(np.mean(data)),
        std=float(np.std(data, ddof=1)) if data.size > 1 else 0.0,
        minimum=float(np.min(data)),
        maximum=float(np.max(data)),
        median=float(np.median(data)),
        p90=float(np.percentile(data, 90)),
        p99=float(np.percentile(data, 99)),
        ci=ci,
    )


def batch_means(samples: Sequence[float], batches: int) -> list[float]:
    """Split ``samples`` into ``batches`` contiguous batches and return their means.

    The paper's class-3 experiments average 20 runs of 1000 consensus
    executions each; batch means let a single long simulation be analysed
    the same way.
    """
    if batches < 1:
        raise ValueError(f"batches must be >= 1, got {batches}")
    data = np.asarray(list(samples), dtype=float)
    if data.size < batches:
        raise ValueError(
            f"cannot form {batches} batches from {data.size} samples"
        )
    splits = np.array_split(data, batches)
    return [float(np.mean(chunk)) for chunk in splits]
