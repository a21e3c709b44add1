"""Empirical cumulative distribution functions.

Figures 6 and 7 of the paper plot cumulative distributions of end-to-end
delays and consensus latencies.  :class:`EmpiricalCDF` stores a sample,
evaluates the step CDF, extracts quantiles and produces the (x, p) series
needed to re-plot those figures.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class EmpiricalCDF:
    """The empirical CDF of a one-dimensional sample.

    Parameters
    ----------
    samples:
        Observations, any iterable of numbers.  They are copied and sorted
        on construction; equal values (``0.0`` and ``-0.0`` included) keep
        their input order.  A NaN observation has no place in a CDF and is
        rejected with :class:`ValueError`.
    """

    def __init__(self, samples: Iterable[float]) -> None:
        data = np.sort(np.fromiter(samples, float), kind="stable")
        if data.size == 0:
            raise ValueError("EmpiricalCDF requires at least one sample")
        if np.isnan(data[-1]):  # np.sort puts every NaN last
            count = int(np.count_nonzero(np.isnan(data)))
            raise ValueError(
                f"EmpiricalCDF got {count} NaN sample(s) out of {data.size}"
            )
        self._data = data

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of samples."""
        return int(self._data.size)

    @property
    def samples(self) -> np.ndarray:
        """The sorted samples (read-only view)."""
        view = self._data.view()
        view.flags.writeable = False
        return view

    @property
    def min(self) -> float:
        """Smallest observation."""
        return float(self._data[0])

    @property
    def max(self) -> float:
        """Largest observation."""
        return float(self._data[-1])

    def mean(self) -> float:
        """Sample mean."""
        return float(np.mean(self._data))

    # ------------------------------------------------------------------
    def evaluate(self, x: float) -> float:
        """P(X <= x) under the empirical distribution."""
        return float(np.searchsorted(self._data, x, side="right")) / self.n

    def __call__(self, x: float) -> float:
        return self.evaluate(x)

    def quantile(self, p: float) -> float:
        """The smallest x such that ``evaluate(x) >= p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile probability must be in [0, 1], got {p}")
        if p == 0.0:
            return self.min
        index = int(np.ceil(p * self.n)) - 1
        index = min(max(index, 0), self.n - 1)
        return float(self._data[index])

    def median(self) -> float:
        """The 0.5 quantile."""
        return self.quantile(0.5)

    # ------------------------------------------------------------------
    def series(self, points: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The (x, p) step series of the CDF, optionally subsampled.

        Returns arrays suitable for plotting or for tabulating the curves in
        the paper's Figures 6, 7 and 9.
        """
        xs = self._data
        ps = np.arange(1, self.n + 1, dtype=float) / self.n
        if points is not None and points < self.n:
            idx = np.linspace(0, self.n - 1, points).round().astype(int)
            xs = xs[idx]
            ps = ps[idx]
        return xs.copy(), ps.copy()

    def table(self, probabilities: Sequence[float]) -> list[tuple[float, float]]:
        """Quantiles at the given probabilities, as ``(p, x)`` rows."""
        return [(float(p), self.quantile(float(p))) for p in probabilities]

    # ------------------------------------------------------------------
    def ks_distance(self, other: "EmpiricalCDF") -> float:
        """Two-sample Kolmogorov-Smirnov statistic against another CDF.

        Used by the calibration step (Figure 7b) to quantify how well a
        simulated latency distribution matches the measured one.
        """
        grid = np.union1d(self._data, other._data)
        mine = np.searchsorted(self._data, grid, side="right") / self.n
        theirs = np.searchsorted(other._data, grid, side="right") / other.n
        return float(np.max(np.abs(mine - theirs)))

    def __repr__(self) -> str:
        return (
            f"EmpiricalCDF(n={self.n}, min={self.min:.4g}, "
            f"median={self.median():.4g}, max={self.max:.4g})"
        )
