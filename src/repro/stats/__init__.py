"""Statistics toolkit.

Provides the statistical machinery the paper's evaluation relies on:

* empirical cumulative distribution functions (Figures 6, 7),
* means with Student-t confidence intervals (§5.2, Table 1, Figures 8, 9),
* the parametric distributions used to drive the simulations, including the
  bi-modal uniform fit of the measured end-to-end delay (§5.1).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.stats.cdf import EmpiricalCDF
    from repro.stats.descriptive import (
        ConfidenceInterval,
        SampleSummary,
        confidence_interval,
        summarize,
    )
    from repro.stats.distributions import (
        BimodalUniform,
        Constant,
        Distribution,
        Exponential,
        LogNormal,
        Mixture,
        Normal,
        Shifted,
        Uniform,
        Weibull,
        distribution_from_spec,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.stats.cdf": ("EmpiricalCDF",),
    "repro.stats.descriptive": (
        "ConfidenceInterval",
        "SampleSummary",
        "confidence_interval",
        "summarize",
    ),
    "repro.stats.distributions": (
        "BimodalUniform",
        "Constant",
        "Distribution",
        "Exponential",
        "LogNormal",
        "Mixture",
        "Normal",
        "Shifted",
        "Uniform",
        "Weibull",
        "distribution_from_spec",
    ),
})

__all__ = [
    "BimodalUniform",
    "ConfidenceInterval",
    "Constant",
    "Distribution",
    "EmpiricalCDF",
    "Exponential",
    "LogNormal",
    "Mixture",
    "Normal",
    "SampleSummary",
    "Shifted",
    "Uniform",
    "Weibull",
    "confidence_interval",
    "distribution_from_spec",
    "summarize",
]
