"""SAN simulations of the paper's scenarios.

This is the simulation half of the combined methodology: given a
:class:`~repro.core.scenarios.Scenario` and the calibrated
:class:`~repro.sanmodels.parameters.SANParameters`, run the SAN model with
the simulative solver and report the same latency statistics the
measurement half reports, so that the two can be compared directly
(§5.2-§5.4 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.scenarios import RunClass, Scenario
from repro.failure_detectors.qos import QoSEstimate
from repro.sanmodels.consensus_model import ConsensusSANExperiment, SANLatencyResult
from repro.sanmodels.fd_model import FDModelSettings, TransitionKind
from repro.sanmodels.parameters import SANParameters
from repro.stats.cdf import EmpiricalCDF
from repro.stats.descriptive import SampleSummary, summarize


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one SAN simulation experiment.

    Attributes
    ----------
    n_processes:
        Number of processes.
    scenario:
        The failure/suspicion scenario (shared with the measurement side).
    parameters:
        Calibrated network parameters of the SAN model.
    fd_qos:
        Measured failure-detector QoS feeding the abstract FD model
        (required for class-3 scenarios).
    fd_kind:
        Sojourn-time distribution of the FD model: ``"deterministic"`` or
        ``"exponential"`` (both are evaluated in Fig. 9b).
    replications:
        Number of independent replications (each simulates one consensus
        execution, ending at the first decision).
    seed:
        Master seed of the replication streams.
    max_time_ms:
        Per-replication safety horizon.
    """

    n_processes: int
    scenario: Scenario
    parameters: SANParameters = field(default_factory=SANParameters)
    fd_qos: Optional[QoSEstimate] = None
    fd_kind: TransitionKind = "exponential"
    replications: int = 200
    seed: int = 0
    max_time_ms: float = 10_000.0

    def __post_init__(self) -> None:
        if self.n_processes < 1:
            raise ValueError("n_processes must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.scenario.run_class is RunClass.WRONG_SUSPICIONS and self.fd_qos is None:
            raise ValueError(
                "a WRONG_SUSPICIONS simulation needs measured FD QoS metrics"
            )


@dataclass
class SimulationResult:
    """Latency statistics of one SAN simulation experiment.

    :attr:`summary` is computed from :attr:`latencies_ms` each time it is
    read, not stored, so a run that never reads it loads no scipy (see
    :class:`~repro.sanmodels.consensus_model.SANLatencyResult`).
    """

    config: SimulationConfig
    latencies_ms: List[float]
    undecided: int
    san_result: SANLatencyResult

    @property
    def summary(self) -> Optional[SampleSummary]:
        """Summary of the latencies with a 90% interval (``None`` if none decided)."""
        return summarize(self.latencies_ms) if self.latencies_ms else None

    @property
    def mean_latency_ms(self) -> float:
        """Mean simulated latency."""
        return self.san_result.mean_ms

    def cdf(self) -> EmpiricalCDF:
        """Empirical CDF of the simulated latencies."""
        return EmpiricalCDF(self.latencies_ms)


class SimulationRunner:
    """Runs one SAN simulation experiment."""

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def _fd_settings(self) -> Optional[FDModelSettings]:
        config = self.config
        if config.scenario.run_class is not RunClass.WRONG_SUSPICIONS:
            return None
        qos = config.fd_qos
        assert qos is not None  # guaranteed by SimulationConfig validation
        # A detector that never erred during the measurement has an infinite
        # recurrence time; model it as accurate (no FD activities at all).
        if not qos.pairs or qos.mistake_recurrence_time == float("inf"):
            return None
        mistake_duration = max(qos.mistake_duration, 1e-6)
        recurrence = max(qos.mistake_recurrence_time, mistake_duration * 1.001)
        return FDModelSettings(
            mistake_recurrence_time=recurrence,
            mistake_duration=mistake_duration,
            kind=config.fd_kind,
        )

    def experiment(self) -> ConsensusSANExperiment:
        """The underlying :class:`ConsensusSANExperiment`."""
        config = self.config
        return ConsensusSANExperiment(
            n_processes=config.n_processes,
            parameters=config.parameters,
            crashed=config.scenario.crashed,
            fd_settings=self._fd_settings(),
            seed=config.seed,
            max_time_ms=config.max_time_ms,
        )

    def run(self, jobs: Optional[int] = 1) -> SimulationResult:
        """Run the replications and collect the latency statistics.

        ``jobs > 1`` runs the SAN replications on a worker pool through the
        sweep engine; results are bit-identical to a serial run.
        """
        san_result = self.experiment().run(
            replications=self.config.replications, jobs=jobs
        )
        return SimulationResult(
            config=self.config,
            latencies_ms=san_result.latencies_ms,
            undecided=san_result.undecided,
            san_result=san_result,
        )
