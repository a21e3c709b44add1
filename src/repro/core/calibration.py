"""Calibration of the SAN model's network parameters (§5.1-§5.2).

The paper sets the network parameters of its SAN model in two steps:

1. the *end-to-end* delay distributions of unicast and broadcast messages
   are measured on the cluster and fitted with bi-modal uniform
   distributions (Figure 6, §5.1);
2. the split of the end-to-end delay between ``t_send`` (= ``t_receive``)
   and ``t_net`` is calibrated by simulating the no-failure scenario for a
   range of ``t_send`` values and picking the one whose latency distribution
   best matches the measured one (Figure 7b, §5.2) -- the paper settles on
   ``t_send = 0.025`` ms.

This module implements both steps against *our* measured data (the cluster
simulator's trace), using the Kolmogorov-Smirnov distance between latency
CDFs as the goodness-of-fit criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.sanmodels.parameters import SANParameters
from repro.stats.cdf import EmpiricalCDF
from repro.stats.fitting import fit_bimodal_uniform

__all__ = [
    "CalibrationCandidate",
    "CalibrationResult",
    "calibrate_t_send",
    "fit_bimodal_uniform",
    "score_t_send_candidates",
]


@dataclass(frozen=True)
class CalibrationCandidate:
    """One candidate ``t_send`` value and its goodness of fit."""

    t_send_ms: float
    ks_distance: float
    mean_latency_ms: float


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the ``t_send`` calibration sweep (Figure 7b)."""

    best_t_send_ms: float
    candidates: tuple[CalibrationCandidate, ...]
    measured_mean_ms: float

    def candidate_for(self, t_send_ms: float) -> Optional[CalibrationCandidate]:
        """The candidate entry for a specific ``t_send`` value, if present."""
        for candidate in self.candidates:
            if abs(candidate.t_send_ms - t_send_ms) < 1e-12:
                return candidate
        return None


def score_t_send_candidates(
    measured_latencies: Sequence[float],
    simulated_latencies_by_t_send: Sequence[tuple[float, Sequence[float]]],
) -> CalibrationResult:
    """Score simulated candidate latencies against the measured CDF.

    The common second half of the calibration: given the measured latencies
    and, per candidate ``t_send``, the simulated latencies (however they
    were produced -- serially here, or by the sweep runner in
    :func:`repro.experiments.figure7.run_figure7b`), compute each
    candidate's Kolmogorov-Smirnov distance and pick the best.
    """
    if not measured_latencies:
        raise ValueError("measured_latencies must not be empty")
    measured_cdf = EmpiricalCDF(measured_latencies)
    candidates = []
    for t_send, latencies in simulated_latencies_by_t_send:
        if latencies:
            distance = measured_cdf.ks_distance(EmpiricalCDF(latencies))
            mean = sum(latencies) / len(latencies)
        else:
            distance = float("inf")
            mean = float("nan")
        candidates.append(
            CalibrationCandidate(
                t_send_ms=float(t_send), ks_distance=distance, mean_latency_ms=mean
            )
        )
    best = min(candidates, key=lambda candidate: candidate.ks_distance)
    return CalibrationResult(
        best_t_send_ms=best.t_send_ms,
        candidates=tuple(candidates),
        measured_mean_ms=measured_cdf.mean(),
    )


def calibrate_t_send(
    measured_latencies: Sequence[float],
    base_parameters: SANParameters,
    n_processes: int = 5,
    candidate_t_send_ms: Sequence[float] = (0.005, 0.01, 0.015, 0.02, 0.025, 0.035),
    replications: int = 200,
    seed: int = 0,
) -> CalibrationResult:
    """Calibrate ``t_send`` by matching simulated and measured latency CDFs.

    For each candidate value the no-failure scenario is simulated with the
    same end-to-end delay (``t_net`` adjusted so that ``2 t_send + t_net``
    keeps the measured fit, exactly as in the paper) and the candidate with
    the smallest Kolmogorov-Smirnov distance to the measured latency CDF
    wins.

    Parameters
    ----------
    measured_latencies:
        Latencies measured on the cluster for the same ``n_processes``.
    base_parameters:
        Parameters holding the end-to-end delay fits.
    n_processes:
        Number of processes of the calibration scenario (the paper uses 5).
    candidate_t_send_ms:
        The ``t_send`` values to sweep (the paper's Fig. 7b values by
        default).
    replications:
        Replications per candidate.
    seed:
        Master seed.
    """
    from repro.sanmodels.consensus_model import ConsensusSANExperiment

    simulated = []
    for t_send in candidate_t_send_ms:
        experiment = ConsensusSANExperiment(
            n_processes=n_processes,
            parameters=base_parameters.with_t_send(t_send),
            seed=seed,
        )
        simulated.append((float(t_send), experiment.run(replications=replications).latencies_ms))
    return score_t_send_candidates(measured_latencies, simulated)


def simulated_latency_cdfs_by_t_send(
    base_parameters: SANParameters,
    n_processes: int = 5,
    candidate_t_send_ms: Sequence[float] = (0.005, 0.01, 0.015, 0.02, 0.025, 0.035),
    replications: int = 200,
    seed: int = 0,
) -> Dict[float, EmpiricalCDF]:
    """Simulated latency CDFs for each candidate ``t_send`` (Figure 7b series)."""
    from repro.sanmodels.consensus_model import ConsensusSANExperiment

    cdfs: Dict[float, EmpiricalCDF] = {}
    for t_send in candidate_t_send_ms:
        experiment = ConsensusSANExperiment(
            n_processes=n_processes,
            parameters=base_parameters.with_t_send(t_send),
            seed=seed,
        )
        result = experiment.run(replications=replications)
        if result.latencies_ms:
            cdfs[float(t_send)] = EmpiricalCDF(result.latencies_ms)
    return cdfs

