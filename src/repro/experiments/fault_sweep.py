"""Fault-load scenario sweep: consensus under injected faults.

The paper validates its SAN models under crash fault-loads only (§2.4);
this sweep opens the scenario space: for a grid of **loss rate x fault
load x process count**, it measures consensus latency on the testbed
simulator with the corresponding :class:`~repro.faults.spec.FaultLoad`
injected, reports per-fault drop/duplication counters from the transport
pipeline, and -- for the pure-loss points of the simulated process counts
-- solves the SAN model with the matching ``loss_rate`` so that the
model-vs-measurement comparison stays apples-to-apples.

Like every other generator, the grid is a
:class:`~repro.experiments.runner.ReplicationPlan`, so the sweep accepts
``jobs=`` (process parallelism, bit-identical results) and ``cache_dir=``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.scenarios import Scenario
from repro.experiments.registry import ExperimentContext, ExperimentSpec, register
from repro.experiments.runner import ReplicationPlan, SweepPoint
from repro.experiments.settings import ExperimentSettings
from repro.faults.spec import (
    CpuLoadBurst,
    CrashRecovery,
    DelaySpike,
    FaultLoad,
    MessageDuplication,
    MessageLoss,
    NetworkPartition,
)
from repro.sanmodels.parameters import SANParameters

#: The fault-load axis of the sweep, in report order.
FAULT_LOAD_KINDS: Tuple[str, ...] = (
    "none",
    "duplication",
    "reorder",
    "partition",
    "crash-recovery",
    "cpu-burst",
)

#: The loss-rate axis of the sweep (per unicast copy, at the wire stage).
DEFAULT_LOSS_RATES: Tuple[float, ...] = (0.0, 0.01, 0.05)


def build_fault_load(
    kind: str, loss_rate: float, n_processes: int, horizon_ms: float
) -> FaultLoad:
    """The concrete fault load of one sweep point.

    Time-windowed faults (partition, crash-recovery, CPU burst) are active
    during the middle third of the experiment horizon, so every run has a
    fault-free lead-in and a recovery tail.
    """
    window = (horizon_ms / 3.0, 2.0 * horizon_ms / 3.0)
    faults: List = []
    if loss_rate > 0.0:
        faults.append(MessageLoss(rate=loss_rate))
    if kind == "none":
        pass
    elif kind == "duplication":
        faults.append(MessageDuplication(rate=0.05))
    elif kind == "reorder":
        faults.append(DelaySpike(rate=0.05, extra_low_ms=0.5, extra_high_ms=5.0))
    elif kind == "partition":
        # Isolate the first coordinator; the partition heals at window end.
        rest = tuple(range(1, n_processes))
        faults.append(
            NetworkPartition(groups=((0,), rest), start_ms=window[0], end_ms=window[1])
        )
    elif kind == "crash-recovery":
        faults.append(
            CrashRecovery(
                process_id=n_processes - 1,
                crash_at_ms=window[0],
                recover_at_ms=window[1],
            )
        )
    elif kind == "cpu-burst":
        faults.append(
            CpuLoadBurst(start_ms=window[0], end_ms=window[1], slowdown=3.0)
        )
    else:
        raise ValueError(f"unknown fault-load kind {kind!r}")
    return FaultLoad(faults=tuple(faults), name=kind)


@dataclass
class FaultSweepPoint:
    """One (n, fault load, loss rate) point of the sweep."""

    n_processes: int
    load_kind: str
    loss_rate: float
    executions: int
    mean_latency_ms: float
    undecided: int
    messages_sent: int
    messages_delivered: int
    messages_dropped: int
    drops_by_cause: Dict[str, int] = field(default_factory=dict)
    messages_duplicated: int = 0
    fault_counters: Dict[str, int] = field(default_factory=dict)
    san_latency_ms: Optional[float] = None


@dataclass
class FaultSweepResult:
    """The full fault sweep, indexed by (n, load kind, loss rate)."""

    points: Dict[Tuple[int, str, float], FaultSweepPoint] = field(default_factory=dict)

    def point(
        self, n_processes: int, load_kind: str, loss_rate: float
    ) -> FaultSweepPoint:
        """The point of one grid combination."""
        return self.points[(n_processes, load_kind, loss_rate)]

    def process_counts(self) -> List[int]:
        """The process counts present, sorted."""
        return sorted({n for (n, _kind, _rate) in self.points})

    def loss_rates(self) -> List[float]:
        """The loss rates present, sorted."""
        return sorted({rate for (_n, _kind, rate) in self.points})

    def total_drops_by_cause(self) -> Dict[str, int]:
        """Drop counters summed over every point, by ``stage:cause``."""
        totals: Dict[str, int] = {}
        for point in self.points.values():
            for cause, count in point.drops_by_cause.items():
                totals[cause] = totals.get(cause, 0) + count
        return totals


def _fault_sweep_point(
    settings: ExperimentSettings,
    n_processes: int,
    load_kind: str,
    loss_rate: float,
    simulate: bool,
    sim_seed: int,
    point_seed: int,
) -> FaultSweepPoint:
    """One sweep point (module-level so the process pool can pickle it)."""
    from repro.core.measurement import MeasurementConfig, MeasurementRunner

    executions = settings.class3_executions
    separation_ms = 10.0
    horizon_ms = 1.0 + executions * separation_ms
    load = build_fault_load(load_kind, loss_rate, n_processes, horizon_ms)
    config = MeasurementConfig(
        cluster=settings.cluster_for(n_processes, point_seed),
        scenario=Scenario.no_failures(),
        executions=executions,
        separation_ms=separation_ms,
        extra_time_ms=max(1_000.0, horizon_ms),
        fault_load=load,
    )
    result = MeasurementRunner(config).run()
    point = FaultSweepPoint(
        n_processes=n_processes,
        load_kind=load_kind,
        loss_rate=loss_rate,
        executions=executions,
        mean_latency_ms=result.mean_latency_ms,
        undecided=result.undecided,
        messages_sent=result.messages_sent,
        messages_delivered=result.messages_delivered,
        messages_dropped=result.messages_dropped,
        drops_by_cause=result.drops_by_cause,
        messages_duplicated=result.messages_duplicated,
        fault_counters=(
            result.fault_stats.as_dict() if result.fault_stats is not None else {}
        ),
    )
    if simulate:
        from repro.core.simulation import SimulationConfig, SimulationRunner

        simulation = SimulationRunner(
            SimulationConfig(
                n_processes=n_processes,
                scenario=Scenario.no_failures(),
                parameters=SANParameters().with_faults(loss_rate=loss_rate),
                replications=settings.replications,
                seed=sim_seed,
            )
        ).run()
        point.san_latency_ms = simulation.mean_latency_ms
    return point


def fault_sweep_plan(
    settings: ExperimentSettings,
    loss_rates: Tuple[float, ...] = DEFAULT_LOSS_RATES,
    load_kinds: Tuple[str, ...] = FAULT_LOAD_KINDS,
) -> ReplicationPlan:
    """The sweep: one point per (process count, fault load, loss rate).

    The SAN model is solved alongside the measurement for the pure-loss
    points (``load == "none"``) of the simulated process counts -- the
    only fault axis with a faithful SAN analogue
    (:meth:`~repro.sanmodels.parameters.SANParameters.with_faults`).
    """
    points = []
    for n_index, n in enumerate(settings.simulated_process_counts):
        for load_index, kind in enumerate(load_kinds):
            for loss_index, loss_rate in enumerate(loss_rates):
                simulate = kind == "none"
                points.append(
                    SweepPoint.make(
                        _fault_sweep_point,
                        kwargs={
                            "settings": settings,
                            "n_processes": n,
                            "load_kind": kind,
                            "loss_rate": loss_rate,
                            "simulate": simulate,
                            "sim_seed": settings.point_seed(
                                12, n_index, load_index, loss_index, 99
                            ),
                        },
                        indices=(12, n_index, load_index, loss_index),
                        label=f"faultsweep n={n} load={kind} loss={loss_rate}",
                    )
                )
    return ReplicationPlan(settings=settings, points=tuple(points), name="faultsweep")


def aggregate_fault_sweep(
    settings: ExperimentSettings,
    pairs: Iterable[Tuple[SweepPoint, Any]],
) -> FaultSweepResult:
    """Assemble the fault-sweep result from streamed point results."""
    result = FaultSweepResult()
    for _point, point in pairs:
        result.points[(point.n_processes, point.load_kind, point.loss_rate)] = point
    return result


def run_fault_sweep(
    settings: ExperimentSettings | None = None,
    loss_rates: Tuple[float, ...] = DEFAULT_LOSS_RATES,
    load_kinds: Tuple[str, ...] = FAULT_LOAD_KINDS,
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
) -> FaultSweepResult:
    """Run the fault sweep."""
    context = ExperimentContext.create(settings, jobs=jobs, cache_dir=cache_dir)
    plan = fault_sweep_plan(context.settings, loss_rates=loss_rates, load_kinds=load_kinds)
    return aggregate_fault_sweep(context.settings, context.iter(plan))


def format_fault_sweep(result: FaultSweepResult) -> str:
    """Render the sweep: latency, drop and duplication counters per point."""
    lines = [
        "Fault sweep: consensus latency under injected fault loads",
        "n    load            loss   mean [ms]   undec.   dropped   dup.   SAN [ms]",
    ]
    for (n, kind, rate) in sorted(result.points):
        point = result.points[(n, kind, rate)]
        mean = (
            f"{point.mean_latency_ms:9.3f}"
            if math.isfinite(point.mean_latency_ms)
            else "      nan"
        )
        san = f"{point.san_latency_ms:8.3f}" if point.san_latency_ms is not None else "        "
        lines.append(
            f"{n:<4d} {kind:<15s} {rate:5.2f}  {mean}   {point.undecided:6d}   "
            f"{point.messages_dropped:7d}   {point.messages_duplicated:4d}   {san}"
        )
    lines.append("")
    lines.append("drops by stage:cause (all points):")
    totals = result.total_drops_by_cause()
    if not totals:
        lines.append("  (none)")
    for cause in sorted(totals):
        lines.append(f"  {cause:<28s} {totals[cause]}")
    return "\n".join(lines)


def fault_sweep_record(result: FaultSweepResult) -> Dict[str, Any]:
    """The JSON artifact data of the fault sweep."""
    points = []
    for key in sorted(result.points):
        point = result.points[key]
        points.append(
            {
                "n_processes": point.n_processes,
                "load_kind": point.load_kind,
                "loss_rate": point.loss_rate,
                "executions": point.executions,
                "mean_latency_ms": point.mean_latency_ms,
                "undecided": point.undecided,
                "messages_sent": point.messages_sent,
                "messages_delivered": point.messages_delivered,
                "messages_dropped": point.messages_dropped,
                "messages_duplicated": point.messages_duplicated,
                "drops_by_cause": dict(sorted(point.drops_by_cause.items())),
                "fault_counters": dict(sorted(point.fault_counters.items())),
                "san_latency_ms": point.san_latency_ms,
            }
        )
    return {
        "points": points,
        "total_drops_by_cause": dict(sorted(result.total_drops_by_cause().items())),
    }


def fault_sweep_rows(result: FaultSweepResult):
    """The CSV series of the fault sweep."""
    header = [
        "n_processes",
        "load_kind",
        "loss_rate",
        "mean_latency_ms",
        "undecided",
        "messages_dropped",
        "messages_duplicated",
        "san_latency_ms",
    ]
    rows = []
    for key in sorted(result.points):
        point = result.points[key]
        rows.append(
            [
                point.n_processes,
                point.load_kind,
                point.loss_rate,
                point.mean_latency_ms,
                point.undecided,
                point.messages_dropped,
                point.messages_duplicated,
                point.san_latency_ms,
            ]
        )
    return header, rows


SPEC = register(
    ExperimentSpec(
        name="faultsweep",
        description="Fault sweep: consensus latency under injected fault loads",
        build_plan=fault_sweep_plan,
        aggregate=aggregate_fault_sweep,
        render_text=format_fault_sweep,
        to_record=fault_sweep_record,
        to_rows=fault_sweep_rows,
    )
)
