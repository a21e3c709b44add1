"""Figure 7 and the §5.2 mean latencies: runs with no failures, no suspicions.

Three related generators:

* :func:`run_figure7a` -- the measured latency CDFs for n = 3, 5, 7, 9, 11
  (5000 executions each in the paper);
* :func:`run_figure7b` -- the calibration plot: simulated latency CDFs for a
  sweep of ``t_send`` values (with the end-to-end delay held fixed) against
  the measured CDF for n = 5, from which the calibrated ``t_send`` is
  chosen;
* :func:`run_latency_means` -- the mean latencies (measurement for every n,
  SAN simulation for n = 3 and 5) quoted in the §5.2 text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.calibration import CalibrationResult, score_t_send_candidates
from repro.core.scenarios import Scenario
from repro.experiments.figure6 import run_figure6_in
from repro.experiments.registry import ExperimentContext, ExperimentSpec, register
from repro.experiments.runner import ReplicationPlan, SweepPoint
from repro.experiments.settings import ExperimentSettings
from repro.sanmodels.parameters import SANParameters
from repro.stats.cdf import EmpiricalCDF
from repro.stats.descriptive import ConfidenceInterval, confidence_interval


# ----------------------------------------------------------------------
# Figure 7(a): measured latency CDFs
# ----------------------------------------------------------------------
@dataclass
class Figure7aResult:
    """Measured latency distributions per process count."""

    latencies_by_n: Dict[int, List[float]]

    def cdf(self, n_processes: int) -> EmpiricalCDF:
        """The latency CDF for one process count."""
        return EmpiricalCDF(self.latencies_by_n[n_processes])

    def mean(self, n_processes: int) -> float:
        """Mean latency for one process count."""
        values = self.latencies_by_n[n_processes]
        return sum(values) / len(values)

    def means(self) -> Dict[int, float]:
        """Mean latency for every measured process count."""
        return {n: self.mean(n) for n in sorted(self.latencies_by_n)}


def measure_latencies(
    settings: ExperimentSettings,
    n_processes: int,
    scenario: Scenario,
    executions: int,
    point_seed: int,
    separation_ms: float = 10.0,
    sequential: bool = False,
    max_instance_time_ms: Optional[float] = None,
) -> List[float]:
    """Measure consensus latencies for one experiment point (shared helper)."""
    from repro.core.measurement import MeasurementConfig, MeasurementRunner

    config = MeasurementConfig(
        cluster=settings.cluster_for(n_processes, point_seed),
        scenario=scenario,
        executions=executions,
        separation_ms=separation_ms,
        sequential=sequential,
        max_instance_time_ms=max_instance_time_ms,
    )
    return MeasurementRunner(config).run().latencies_ms


def _figure7a_point(
    settings: ExperimentSettings, n_processes: int, point_seed: int
) -> List[float]:
    """One Figure 7(a) point: crash-free latencies for one cluster size."""
    return measure_latencies(
        settings,
        n_processes=n_processes,
        scenario=Scenario.no_failures(),
        executions=settings.executions,
        point_seed=point_seed,
    )


def figure7a_plan(settings: ExperimentSettings) -> ReplicationPlan:
    """The Figure 7(a) sweep: one point per measured cluster size."""
    points = tuple(
        SweepPoint.make(
            _figure7a_point,
            kwargs={"settings": settings, "n_processes": n},
            indices=(7, 1, index),
            label=f"figure7a n={n}",
        )
        for index, n in enumerate(settings.measured_process_counts)
    )
    return ReplicationPlan(settings=settings, points=points, name="figure7a")


def aggregate_figure7a(
    settings: ExperimentSettings,
    pairs: Iterable[Tuple[SweepPoint, Any]],
) -> Figure7aResult:
    """Assemble the Figure 7(a) result from streamed point results."""
    latencies: Dict[int, List[float]] = {}
    for point, result in pairs:
        latencies[dict(point.kwargs)["n_processes"]] = result
    return Figure7aResult(latencies_by_n=latencies)


def run_figure7a(
    settings: ExperimentSettings | None = None,
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
) -> Figure7aResult:
    """Measure the latency CDFs of Figure 7(a)."""
    context = ExperimentContext.create(settings, jobs=jobs, cache_dir=cache_dir)
    return run_figure7a_in(context)


def run_figure7a_in(context: ExperimentContext) -> Figure7aResult:
    """Context-based entry point (shared with the §5.2 means experiment)."""
    plan = figure7a_plan(context.settings)
    return aggregate_figure7a(context.settings, context.iter(plan))


def format_figure7a(result: Figure7aResult) -> str:
    """Render Figure 7(a) as a per-n summary table."""
    lines = ["Figure 7(a): latency, no failures, no suspicions",
             "n    mean [ms]   median [ms]   p90 [ms]"]
    for n in sorted(result.latencies_by_n):
        cdf = result.cdf(n)
        lines.append(
            f"{n:<4d} {cdf.mean():9.3f}   {cdf.median():11.3f}   {cdf.quantile(0.9):8.3f}"
        )
    return "\n".join(lines)


def figure7a_record(result: Figure7aResult) -> Dict[str, Any]:
    """The JSON artifact data of Figure 7(a)."""
    series = []
    for n in sorted(result.latencies_by_n):
        cdf = result.cdf(n)
        series.append(
            {
                "n_processes": n,
                "mean_ms": cdf.mean(),
                "median_ms": cdf.median(),
                "p90_ms": cdf.quantile(0.9),
                "executions": cdf.n,
            }
        )
    return {"latency_by_n": series}


def figure7a_rows(result: Figure7aResult):
    """The CSV series of Figure 7(a)."""
    header = ["n_processes", "mean_ms", "median_ms", "p90_ms", "executions"]
    rows = []
    for n in sorted(result.latencies_by_n):
        cdf = result.cdf(n)
        rows.append([n, cdf.mean(), cdf.median(), cdf.quantile(0.9), cdf.n])
    return header, rows


# ----------------------------------------------------------------------
# Figure 7(b): calibration of t_send
# ----------------------------------------------------------------------
@dataclass
class Figure7bResult:
    """Calibration data: measured CDF vs. simulated CDFs per t_send."""

    n_processes: int
    measured_latencies: List[float]
    simulated_latencies_by_t_send: Dict[float, List[float]]
    calibration: CalibrationResult
    parameters: SANParameters

    def measured_cdf(self) -> EmpiricalCDF:
        """The measured latency CDF."""
        return EmpiricalCDF(self.measured_latencies)

    def simulated_cdf(self, t_send_ms: float) -> EmpiricalCDF:
        """The simulated latency CDF for one candidate ``t_send``."""
        return EmpiricalCDF(self.simulated_latencies_by_t_send[t_send_ms])

    @property
    def best_t_send_ms(self) -> float:
        """The calibrated ``t_send`` (the paper settles on 0.025 ms)."""
        return self.calibration.best_t_send_ms


def _figure7b_sim_point(
    settings: ExperimentSettings,
    n_processes: int,
    parameters: SANParameters,
    t_send_ms: float,
    point_seed: int,
) -> List[float]:
    """One Figure 7(b) point: simulated latencies for one ``t_send``."""
    from repro.sanmodels.consensus_model import ConsensusSANExperiment

    experiment = ConsensusSANExperiment(
        n_processes=n_processes,
        parameters=parameters.with_t_send(t_send_ms),
        seed=point_seed,
    )
    return experiment.run(replications=settings.replications).latencies_ms


def figure7b_plan(
    settings: ExperimentSettings,
    n_processes: int,
    parameters: SANParameters,
) -> ReplicationPlan:
    """The Figure 7(b) sweep: one simulation point per ``t_send`` candidate."""
    points = tuple(
        SweepPoint.make(
            _figure7b_sim_point,
            kwargs={
                "settings": settings,
                "n_processes": n_processes,
                "parameters": parameters,
                "t_send_ms": float(t_send),
            },
            indices=(7, 4, index),
            label=f"figure7b t_send={t_send}",
        )
        for index, t_send in enumerate(settings.t_send_candidates_ms)
    )
    return ReplicationPlan(settings=settings, points=points, name="figure7b")


def run_figure7b(
    settings: ExperimentSettings | None = None,
    n_processes: int = 5,
    measured_latencies: Optional[List[float]] = None,
    parameters: Optional[SANParameters] = None,
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
) -> Figure7bResult:
    """Reproduce the Figure 7(b) calibration sweep.

    ``measured_latencies`` and ``parameters`` may be supplied to reuse data
    from a previous :func:`run_figure7a` / :func:`run_figure6` run; when
    omitted, both are measured afresh.  The candidate simulations run once
    through the sweep runner; the calibration (KS distance per candidate)
    is computed from those simulated latencies directly.
    """
    context = ExperimentContext.create(settings, jobs=jobs, cache_dir=cache_dir)
    return run_figure7b_in(
        context,
        n_processes=n_processes,
        measured_latencies=measured_latencies,
        parameters=parameters,
    )


def run_figure7b_in(
    context: ExperimentContext,
    n_processes: int = 5,
    measured_latencies: Optional[List[float]] = None,
    parameters: Optional[SANParameters] = None,
) -> Figure7bResult:
    """Context-based entry point of the Figure 7(b) calibration."""
    settings = context.settings
    if measured_latencies is None:
        # A one-point plan puts the measurement in the cache and the
        # manifest.  Its seed is passed explicitly, so the point carries no
        # seed indices.
        measure = SweepPoint.make(
            measure_latencies,
            kwargs={
                "settings": settings,
                "n_processes": n_processes,
                "scenario": Scenario.no_failures(),
                "executions": settings.executions,
                "point_seed": settings.point_seed(7, 2, n_processes),
            },
            indices=(),
            label=f"figure7b measure n={n_processes}",
            seed_arg=None,
        )
        ((_point, measured_latencies),) = context.iter(
            ReplicationPlan(settings=settings, points=(measure,), name="figure7b")
        )
    if parameters is None:
        parameters = run_figure6_in(context).san_parameters()
    plan = figure7b_plan(settings, n_processes, parameters)
    simulated: Dict[float, List[float]] = {}
    for point, latencies in context.iter(plan):
        simulated[dict(point.kwargs)["t_send_ms"]] = latencies
    calibration = score_t_send_candidates(
        measured_latencies, list(simulated.items())
    )
    return Figure7bResult(
        n_processes=n_processes,
        measured_latencies=measured_latencies,
        simulated_latencies_by_t_send=simulated,
        calibration=calibration,
        parameters=parameters,
    )


def format_figure7b(result: Figure7bResult) -> str:
    """Render the Figure 7(b) calibration table."""
    lines = [
        "Figure 7(b): calibration of t_send "
        f"(measured mean {result.measured_cdf().mean():.3f} ms, n={result.n_processes})",
        "t_send [ms]   simulated mean [ms]   KS distance",
    ]
    for candidate in result.calibration.candidates:
        lines.append(
            f"{candidate.t_send_ms:11.3f}   {candidate.mean_latency_ms:19.3f}   "
            f"{candidate.ks_distance:10.3f}"
        )
    lines.append(f"calibrated t_send = {result.best_t_send_ms} ms")
    return "\n".join(lines)


def figure7b_record(result: Figure7bResult) -> Dict[str, Any]:
    """The JSON artifact data of Figure 7(b)."""
    return {
        "n_processes": result.n_processes,
        "measured_mean_ms": result.measured_cdf().mean(),
        "measured_executions": len(result.measured_latencies),
        "candidates": [
            {
                "t_send_ms": candidate.t_send_ms,
                "simulated_mean_ms": candidate.mean_latency_ms,
                "ks_distance": candidate.ks_distance,
            }
            for candidate in result.calibration.candidates
        ],
        "best_t_send_ms": result.best_t_send_ms,
    }


def figure7b_rows(result: Figure7bResult):
    """The CSV series of Figure 7(b)."""
    header = ["t_send_ms", "simulated_mean_ms", "ks_distance"]
    rows = [
        [candidate.t_send_ms, candidate.mean_latency_ms, candidate.ks_distance]
        for candidate in result.calibration.candidates
    ]
    return header, rows


# ----------------------------------------------------------------------
# §5.2 mean latencies
# ----------------------------------------------------------------------
@dataclass
class LatencyMeansResult:
    """Mean latencies with confidence intervals (measurement and simulation)."""

    measured: Dict[int, ConfidenceInterval] = field(default_factory=dict)
    simulated: Dict[int, ConfidenceInterval] = field(default_factory=dict)

    def rows(self) -> List[tuple[int, float, Optional[float]]]:
        """``(n, measured_mean, simulated_mean_or_None)`` rows, sorted by n."""
        rows = []
        for n in sorted(self.measured):
            simulated = self.simulated.get(n)
            rows.append(
                (n, self.measured[n].mean, simulated.mean if simulated else None)
            )
        return rows


def _latency_means_sim_point(
    settings: ExperimentSettings,
    n_processes: int,
    parameters: SANParameters,
    point_seed: int,
) -> List[float]:
    """One §5.2 simulation point: SAN latencies for one cluster size."""
    from repro.core.simulation import SimulationConfig, SimulationRunner

    simulation = SimulationRunner(
        SimulationConfig(
            n_processes=n_processes,
            scenario=Scenario.no_failures(),
            parameters=parameters,
            replications=settings.replications,
            seed=point_seed,
        )
    ).run()
    return simulation.latencies_ms


def latency_means_plan(
    settings: ExperimentSettings, parameters: SANParameters
) -> ReplicationPlan:
    """The §5.2 simulation sweep: one point per simulated cluster size."""
    points = tuple(
        SweepPoint.make(
            _latency_means_sim_point,
            kwargs={"settings": settings, "n_processes": n, "parameters": parameters},
            indices=(7, 5, index),
            label=f"latency-means n={n}",
        )
        for index, n in enumerate(settings.simulated_process_counts)
    )
    return ReplicationPlan(settings=settings, points=points, name="latency-means")


def run_latency_means(
    settings: ExperimentSettings | None = None,
    figure7a: Optional[Figure7aResult] = None,
    parameters: Optional[SANParameters] = None,
    calibrated_t_send_ms: Optional[float] = None,
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
) -> LatencyMeansResult:
    """Compute the §5.2 mean-latency comparison (measurement vs. SAN)."""
    context = ExperimentContext.create(settings, jobs=jobs, cache_dir=cache_dir)
    return run_latency_means_in(
        context,
        figure7a=figure7a,
        parameters=parameters,
        calibrated_t_send_ms=calibrated_t_send_ms,
    )


def run_latency_means_in(
    context: ExperimentContext,
    figure7a: Optional[Figure7aResult] = None,
    parameters: Optional[SANParameters] = None,
    calibrated_t_send_ms: Optional[float] = None,
) -> LatencyMeansResult:
    """Context-based entry point of the §5.2 means comparison."""
    settings = context.settings
    figure7a = figure7a or run_figure7a_in(context)
    if parameters is None:
        parameters = run_figure6_in(context).san_parameters()
    if calibrated_t_send_ms is not None:
        parameters = parameters.with_t_send(calibrated_t_send_ms)
    result = LatencyMeansResult()
    for n, latencies in figure7a.latencies_by_n.items():
        result.measured[n] = confidence_interval(latencies)
    plan = latency_means_plan(settings, parameters)
    for point, latencies in context.iter(plan):
        n = dict(point.kwargs)["n_processes"]
        result.simulated[n] = confidence_interval(latencies)
    return result


def format_latency_means(result: LatencyMeansResult) -> str:
    """Render the §5.2 means as a small table."""
    lines = ["n   measured [ms]   simulated [ms]"]
    for n, measured, simulated in result.rows():
        simulated_text = f"{simulated:14.3f}" if simulated is not None else " " * 14
        lines.append(f"{n:<3d} {measured:14.3f} {simulated_text}")
    return "\n".join(lines)


def latency_means_record(result: LatencyMeansResult) -> Dict[str, Any]:
    """The JSON artifact data of the §5.2 means (with confidence intervals)."""

    def interval_dict(interval: Optional[ConfidenceInterval]) -> Optional[Dict[str, Any]]:
        if interval is None:
            return None
        return {
            "mean_ms": interval.mean,
            "half_width_ms": interval.half_width,
            "confidence": interval.confidence,
            "n": interval.n,
        }

    return {
        "rows": [
            {
                "n_processes": n,
                "measured": interval_dict(result.measured.get(n)),
                "simulated": interval_dict(result.simulated.get(n)),
            }
            for n in sorted(result.measured)
        ]
    }


def latency_means_rows(result: LatencyMeansResult):
    """The CSV series of the §5.2 means."""
    header = ["n_processes", "measured_mean_ms", "simulated_mean_ms"]
    return header, [list(row) for row in result.rows()]


# ----------------------------------------------------------------------
# Registered specs
# ----------------------------------------------------------------------
FIGURE7A_SPEC = register(
    ExperimentSpec(
        name="figure7a",
        description="Fig. 7(a): measured latency CDFs, no failures, no suspicions",
        build_plan=figure7a_plan,
        aggregate=aggregate_figure7a,
        render_text=format_figure7a,
        to_record=figure7a_record,
        to_rows=figure7a_rows,
    )
)

FIGURE7B_SPEC = register(
    ExperimentSpec(
        name="figure7b",
        description="Fig. 7(b): calibration of t_send against the measured CDF",
        run=run_figure7b_in,
        render_text=format_figure7b,
        to_record=figure7b_record,
        to_rows=figure7b_rows,
    )
)

MEANS_SPEC = register(
    ExperimentSpec(
        name="means",
        description="§5.2: mean latencies, measurement vs. SAN simulation",
        run=run_latency_means_in,
        render_text=format_latency_means,
        to_record=latency_means_record,
        to_rows=latency_means_rows,
    )
)
