"""The ``testbed`` workload: consensus executions on the simulated cluster.

Each round calls :class:`~repro.core.measurement.MeasurementRunner` directly
and serially on eighteen points: class 1 at n in {3, 5, 7, 11}, class 2
(first coordinator crashed) at n in {3, 5}, and class 3 (heartbeat failure
detector, sequential mode, the configuration of ``measure_class3_point``)
at n in {3, 5, 7} x T in {2, 5, 20, 100} ms.  One operation is one
consensus execution.  The testbed keeps nothing between runs, so the warm
leg repeats every point and must reproduce it exactly: it is the workload
on which a cache is bypassed.

In sequential mode the runner can stop before the last chained execution
starts, so operations are counted as the executions that started, and
``core.measurement.unstarted_share`` reports the shortfall.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench.common import Round, Tally, metric
from perfbench.spans import NO_TRACE
from repro.cluster.config import ClusterConfig
from repro.core.measurement import MeasurementConfig, MeasurementRunner
from repro.core.scenarios import Scenario
from repro.failure_detectors.qos import estimate_qos

NAME = "testbed"

CLASS12_EXECUTIONS = 30
CLASS3_EXECUTIONS = 10

#: Per-layer metrics of this workload, with their units.
PER_LAYER = {
    "core.measurement.build_s": "s",
    "core.measurement.run_s": "s",
    "core.measurement.unstarted_share": "share",
    "des.events_per_op": "count",
    "des.events_per_s": "1/s",
    "cluster.transport.sent_per_op": "count",
    "cluster.transport.delivered_per_op": "count",
    "cluster.transport.dropped_per_op": "count",
    "cluster.trace.records_per_op": "count",
    "failure_detectors.heartbeats_per_op": "count",
    "failure_detectors.qos_s": "s",
    "consensus.undecided_share": "share",
}


def _point_specs() -> List[Tuple[str, int, Scenario, Dict[str, Any]]]:
    specs: List[Tuple[str, int, Scenario, Dict[str, Any]]] = []
    for n in (3, 5, 7, 11):
        specs.append(
            (f"n{n}.class1", n, Scenario.no_failures(),
             {"executions": CLASS12_EXECUTIONS})
        )
    for n in (3, 5):
        specs.append(
            (f"n{n}.class2", n, Scenario.coordinator_crash(),
             {"executions": CLASS12_EXECUTIONS})
        )
    for n in (3, 5, 7):
        for timeout in (2.0, 5.0, 20.0, 100.0):
            specs.append(
                (
                    f"n{n}.class3.T{timeout:g}",
                    n,
                    Scenario.wrong_suspicions(timeout_ms=timeout),
                    {
                        "executions": CLASS3_EXECUTIONS,
                        "separation_ms": max(10.0, 2.0 * timeout),
                        "sequential": True,
                        "max_instance_time_ms": max(500.0, 20.0 * timeout),
                    },
                )
            )
    return specs


def point_seed(seed: int, index: int) -> int:
    """The cluster seed of point ``index`` under the workload seed."""
    return (seed * 1_000_003 + index * 8_191 + 7) % (2**62)


def points(seed: int) -> List[Tuple[str, MeasurementConfig]]:
    """The workload's ``(label, config)`` points for ``seed``."""
    base = ClusterConfig()
    return [
        (
            label,
            MeasurementConfig(
                cluster=base.replace(n_processes=n, seed=point_seed(seed, index)),
                scenario=scenario,
                **options,
            ),
        )
        for index, (label, n, scenario, options) in enumerate(_point_specs())
    ]


def measure(config: MeasurementConfig, tracer: Any) -> Dict[str, Any]:
    """Run one point and return the record its output digest covers."""
    with tracer.span("core.measurement.build"):
        runner = MeasurementRunner(config)
    with tracer.span("core.measurement.run"):
        result = runner.run()
    qos = result.qos
    record = {
        "executions": config.executions,
        "started": len(runner.recorder.instances),
        "latencies_ms": result.latencies_ms,
        "undecided": result.undecided,
        "qos": None if qos is None else [
            qos.mistake_recurrence_time, qos.mistake_duration, qos.detection_time
        ],
        "sent": result.messages_sent,
        "delivered": result.messages_delivered,
        "dropped": result.messages_dropped,
        "duplicated": result.messages_duplicated,
        "heartbeats": result.heartbeats_sent,
    }
    if tracer.enabled:
        tracer.count("executions", record["started"])
        tracer.count("unstarted", config.executions - record["started"])
        tracer.count("undecided", result.undecided)
        tracer.count("des.events", runner.cluster.sim.events_processed)
        tracer.count("cluster.trace.records", len(runner.cluster.trace))
        tracer.count("cluster.transport.sent", result.messages_sent)
        tracer.count("cluster.transport.delivered", result.messages_delivered)
        tracer.count("cluster.transport.dropped", result.messages_dropped)
        if config.scenario.uses_heartbeat_fd:
            tracer.count("class3.executions", record["started"])
            tracer.count("failure_detectors.heartbeats", result.heartbeats_sent)
            with tracer.span("failure_detectors.qos"):
                estimate_qos(
                    result.fd_history,
                    n_processes=config.cluster.n_processes,
                    experiment_duration=result.experiment_duration_ms,
                    crashed={p: 0.0 for p in config.scenario.crashed},
                )
    return record


class TestbedWorkload:
    """Serial measurement runs; the leg names are ``cold`` and ``warm``."""

    name = NAME
    COLD_LEG_IS_SETUP = False

    def __init__(self, seed: int, tally: Tally) -> None:
        self.seed = seed
        self.tally = tally
        self.points = points(seed)
        #: Records of the first round; later rounds must reproduce them.
        self.records: Optional[Dict[str, Any]] = None

    def setup(self, tracer: Any) -> None:
        """Warm-up (untraced): one short run of a class-1 and a class-3 point."""
        for _label, config in (self.points[0], self.points[6]):
            measure(
                MeasurementConfig(
                    cluster=config.cluster,
                    scenario=config.scenario,
                    executions=3,
                    separation_ms=config.separation_ms,
                    sequential=config.sequential,
                    max_instance_time_ms=config.max_instance_time_ms,
                ),
                NO_TRACE,
            )

    def _op(self, label: str, config: MeasurementConfig, tracer: Any,
            trace: str) -> Tuple[Optional[Dict[str, Any]], float]:
        started = time.perf_counter()
        with tracer.span("testbed.op", trace=trace):
            record = self.tally.run(
                config.executions, f"testbed {label}", lambda: measure(config, tracer)
            )
        seconds = time.perf_counter() - started
        if record is not None:
            # Sequential mode can stop before the last chained execution
            # starts, so the check is against the executions that started.
            decided = len(record["latencies_ms"])
            self.tally.check(
                decided + record["undecided"] == record["started"] <= config.executions,
                f"testbed {label}: {decided} decided + {record['undecided']} "
                f"undecided != {record['started']} started executions",
                ops=config.executions,
            )
        return record, seconds

    def run_round(self, tracer: Any) -> Round:
        round_ = Round()
        records: Dict[str, Any] = {}
        for label, config in self.points:
            round_.calibrate("cold")
            cold, seconds = self._op(label, config, tracer, f"{label}.cold")
            round_.add("cold", cold["started"] if cold else 0, seconds)
            round_.calibrate("warm")
            warm, seconds = self._op(label, config, tracer, f"{label}.warm")
            round_.add("warm", warm["started"] if warm else 0, seconds)
            if cold is not None and warm is not None:
                self.tally.check(
                    warm == cold, f"testbed {label}: repeated run differs",
                    ops=config.executions,
                )
            records[label] = cold
        if self.records is None:
            self.records = records
        else:
            self.tally.check(
                records == self.records, "testbed: round differs from the first"
            )
        return round_

    def final_checks(self) -> None:
        return None

    @staticmethod
    def per_layer(tracer: Any) -> Dict[str, Dict[str, Any]]:
        counts = tracer.counts
        ops = counts["executions"]
        run_s = tracer.total("core.measurement.run")
        values = {
            "core.measurement.build_s": tracer.total("core.measurement.build"),
            "core.measurement.run_s": run_s,
            "core.measurement.unstarted_share":
                counts["unstarted"] / (ops + counts["unstarted"]),
            "des.events_per_op": counts["des.events"] / ops,
            "des.events_per_s": counts["des.events"] / run_s,
            "cluster.transport.sent_per_op": counts["cluster.transport.sent"] / ops,
            "cluster.transport.delivered_per_op":
                counts["cluster.transport.delivered"] / ops,
            "cluster.transport.dropped_per_op":
                counts["cluster.transport.dropped"] / ops,
            "cluster.trace.records_per_op": counts["cluster.trace.records"] / ops,
            "failure_detectors.heartbeats_per_op":
                counts["failure_detectors.heartbeats"] / counts["class3.executions"],
            "failure_detectors.qos_s": tracer.total("failure_detectors.qos"),
            "consensus.undecided_share": counts["undecided"] / ops,
        }
        return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}
