"""Figure 8: failure-detector quality of service vs. the timeout T (§5.4).

For a sweep of the failure-detection timeout ``T`` (with the heartbeat
period fixed at ``Th = 0.7 T``) and for several process counts, the paper
measures the Chen-Toueg-Aguilera QoS metrics of the heartbeat failure
detector in runs without crashes: the mistake recurrence time ``T_MR``
(Fig. 8a, increasing with T, rising very fast beyond T = 30 ms) and the
mistake duration ``T_M`` (Fig. 8b, bounded by about 12 ms).

The measured QoS values are also the *input* of the Figure 9(b) SAN
simulations, so this generator returns them in a reusable form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.scenarios import Scenario
from repro.experiments.registry import ExperimentContext, ExperimentSpec, register
from repro.experiments.runner import ReplicationPlan, SweepPoint
from repro.experiments.settings import ExperimentSettings, scaled_timeouts
from repro.failure_detectors.qos import QoSEstimate


@dataclass
class Figure8Point:
    """QoS of the failure detector at one (n, T) point."""

    n_processes: int
    timeout_ms: float
    mistake_recurrence_time_ms: float
    mistake_duration_ms: float
    qos: QoSEstimate = field(repr=False, default=None)
    latencies_ms: List[float] = field(repr=False, default_factory=list)
    undecided: int = 0


@dataclass
class Figure8Result:
    """The Figure 8 sweep: QoS per (n, T)."""

    points: Dict[Tuple[int, float], Figure8Point] = field(default_factory=dict)

    def point(self, n_processes: int, timeout_ms: float) -> Figure8Point:
        """The point for one (n, T) combination."""
        return self.points[(n_processes, timeout_ms)]

    def timeouts(self, n_processes: int) -> List[float]:
        """The timeouts measured for one process count, sorted."""
        return sorted(t for (n, t) in self.points if n == n_processes)

    def recurrence_series(self, n_processes: int) -> List[Tuple[float, float]]:
        """The (T, T_MR) series of Figure 8(a) for one process count."""
        return [
            (t, self.points[(n_processes, t)].mistake_recurrence_time_ms)
            for t in self.timeouts(n_processes)
        ]

    def duration_series(self, n_processes: int) -> List[Tuple[float, float]]:
        """The (T, T_M) series of Figure 8(b) for one process count."""
        return [
            (t, self.points[(n_processes, t)].mistake_duration_ms)
            for t in self.timeouts(n_processes)
        ]


def measure_class3_point(
    settings: ExperimentSettings,
    n_processes: int,
    timeout_ms: float,
    point_seed: int,
    executions: Optional[int] = None,
) -> Figure8Point:
    """Run one class-3 measurement point (shared with Figure 9).

    Latencies above roughly the separation would make fixed-schedule
    executions interfere, so class-3 points run in sequential mode with a
    per-execution cap, as the paper's footnote 2 prescribes for bad failure
    detection.
    """
    from repro.core.measurement import MeasurementConfig, MeasurementRunner

    config = MeasurementConfig(
        cluster=settings.cluster_for(n_processes, point_seed),
        scenario=Scenario.wrong_suspicions(timeout_ms=timeout_ms),
        executions=executions or settings.class3_executions,
        separation_ms=settings.class3_separation_ms(timeout_ms),
        sequential=True,
        max_instance_time_ms=max(500.0, 20.0 * timeout_ms),
    )
    result = MeasurementRunner(config).run()
    qos = result.qos
    return Figure8Point(
        n_processes=n_processes,
        timeout_ms=timeout_ms,
        mistake_recurrence_time_ms=(
            qos.mistake_recurrence_time if qos is not None else math.inf
        ),
        mistake_duration_ms=qos.mistake_duration if qos is not None else 0.0,
        qos=qos,
        latencies_ms=result.latencies_ms,
        undecided=result.undecided,
    )


def _figure8_point(
    settings: ExperimentSettings,
    n_processes: int,
    timeout_ms: float,
    point_seed: int,
) -> Figure8Point:
    """One Figure 8 point (module-level so the process pool can pickle it)."""
    return measure_class3_point(
        settings,
        n_processes=n_processes,
        timeout_ms=timeout_ms,
        point_seed=point_seed,
    )


def figure8_plan(settings: ExperimentSettings) -> ReplicationPlan:
    """The Figure 8 sweep: one point per (process count, timeout)."""
    points = []
    for n_index, n in enumerate(settings.class3_process_counts):
        for t_index, timeout in enumerate(scaled_timeouts(settings.timeouts_ms, n)):
            points.append(
                SweepPoint.make(
                    _figure8_point,
                    kwargs={
                        "settings": settings,
                        "n_processes": n,
                        "timeout_ms": timeout,
                    },
                    indices=(8, n_index, t_index),
                    label=f"figure8 n={n} T={timeout}",
                )
            )
    return ReplicationPlan(settings=settings, points=tuple(points), name="figure8")


def aggregate_figure8(
    settings: ExperimentSettings,
    pairs: Iterable[Tuple[SweepPoint, Any]],
) -> Figure8Result:
    """Assemble the Figure 8 result from streamed point results."""
    result = Figure8Result()
    for _point, point in pairs:
        result.points[(point.n_processes, point.timeout_ms)] = point
    return result


def run_figure8(
    settings: ExperimentSettings | None = None,
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
) -> Figure8Result:
    """Run the Figure 8 QoS sweep."""
    context = ExperimentContext.create(settings, jobs=jobs, cache_dir=cache_dir)
    plan = figure8_plan(context.settings)
    return aggregate_figure8(context.settings, context.iter(plan))


def format_figure8(result: Figure8Result) -> str:
    """Render Figure 8 as two textual tables (T_MR and T_M vs. T)."""
    lines = []
    for title, series_of in (
        ("Figure 8(a): mistake recurrence time T_MR [ms]", Figure8Result.recurrence_series),
        ("Figure 8(b): mistake duration T_M [ms]", Figure8Result.duration_series),
    ):
        lines.append(title)
        ns = sorted({n for (n, _t) in result.points})
        timeouts = sorted({t for (_n, t) in result.points})
        lines.append("T [ms]   " + "  ".join(f"n={n:<8d}" for n in ns))
        for t in timeouts:
            cells = []
            for n in ns:
                point = result.points.get((n, t))
                if point is None:
                    cells.append(" " * 10)
                    continue
                series = series_of(result, n)
                value = dict(series)[t]
                cells.append(f"{value:10.2f}" if math.isfinite(value) else "       inf")
            lines.append(f"{t:6.1f}   " + "  ".join(cells))
        lines.append("")
    return "\n".join(lines)


def figure8_record(result: Figure8Result) -> Dict[str, Any]:
    """The JSON artifact data of Figure 8 (non-finite T_MR becomes null)."""
    points = []
    for (n, t) in sorted(result.points):
        point = result.points[(n, t)]
        points.append(
            {
                "n_processes": n,
                "timeout_ms": t,
                "mistake_recurrence_time_ms": point.mistake_recurrence_time_ms,
                "mistake_duration_ms": point.mistake_duration_ms,
                "undecided": point.undecided,
                "executions": len(point.latencies_ms),
            }
        )
    return {"points": points}


def figure8_rows(result: Figure8Result):
    """The CSV series of Figure 8 (both panels as columns)."""
    header = ["n_processes", "timeout_ms", "mistake_recurrence_time_ms", "mistake_duration_ms"]
    rows = [
        [
            n,
            t,
            result.points[(n, t)].mistake_recurrence_time_ms,
            result.points[(n, t)].mistake_duration_ms,
        ]
        for (n, t) in sorted(result.points)
    ]
    return header, rows


SPEC = register(
    ExperimentSpec(
        name="figure8",
        description="Fig. 8: failure-detector QoS (T_MR, T_M) vs. the timeout T",
        build_plan=figure8_plan,
        aggregate=aggregate_figure8,
        render_text=format_figure8,
        to_record=figure8_record,
        to_rows=figure8_rows,
    )
)
