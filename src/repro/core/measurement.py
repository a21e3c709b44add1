"""Measurements on the simulated cluster.

A :class:`MeasurementRunner` reproduces the paper's measurement methodology
(§4): many sequential consensus executions, separated by a fixed gap so that
they do not interfere, all processes proposing at the same nominal time
(their clocks being NTP-synchronised within tens of microseconds), and --
for class-3 runs -- the heartbeat failure detector running for the whole
experiment with its history recorded for QoS estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.cluster.message import BROADCAST, Message
from repro.cluster.neko import ProtocolLayer
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.core.latency import LatencyRecorder
from repro.core.scenarios import Scenario
from repro.failure_detectors.heartbeat import HeartbeatFailureDetector
from repro.failure_detectors.history import FailureDetectorHistory
from repro.failure_detectors.qos import QoSEstimate, estimate_qos
from repro.failure_detectors.static import StaticFailureDetector
from repro.faults.injector import FaultStats
from repro.faults.spec import FaultLoad
from repro.stats.cdf import EmpiricalCDF
from repro.stats.descriptive import SampleSummary, summarize
from repro.traces.events import EventLog, TraceCollector


@dataclass(frozen=True)
class MeasurementConfig:
    """Configuration of one measurement experiment.

    Attributes
    ----------
    cluster:
        The cluster configuration (process count, network and scheduler
        parameters, seed).
    scenario:
        The failure/suspicion scenario (class 1, 2 or 3).
    executions:
        Number of sequential consensus executions (the paper uses 5000 for
        class 1 and 20 x 1000 for class 3; smaller values keep the harness
        fast while preserving the shapes).
    separation_ms:
        Gap between the starts of consecutive executions (10 ms in §4,
        increased when latencies exceed the gap).
    start_offset_ms:
        Nominal start time of the first execution (must exceed the largest
        clock offset so that no propose is scheduled in the global past).
    extra_time_ms:
        How long to keep simulating after the last scheduled start, to let
        slow executions finish.
    sequential:
        If ``True``, execution ``k + 1`` starts ``separation_ms`` after the
        first decision of execution ``k`` instead of at a fixed multiple of
        the separation.  This is the measurement discipline the paper had to
        adopt "in the few experiments with extremely bad failure detection"
        (§4, footnote 2): it guarantees that consecutive executions never
        interfere, whatever the latency.
    max_instance_time_ms:
        In sequential mode, give up on an execution that has not decided
        after this long and start the next one (the execution is counted as
        undecided).  ``None`` waits indefinitely.
    fault_load:
        Optional composable fault load (:mod:`repro.faults`) injected into
        the cluster's transport, hub and hosts for the whole experiment.
    collect_traces:
        Collect a normalized per-replication event log
        (:class:`~repro.traces.events.EventLog`: every transport
        send/receive/drop, every crash/recovery, every failure-detector
        transition) on :attr:`MeasurementResult.event_log`.  Opt-in and
        purely observational -- no random stream is consumed, so results
        are bit-identical with tracing on or off.
    """

    cluster: ClusterConfig
    scenario: Scenario
    executions: int = 100
    separation_ms: float = 10.0
    start_offset_ms: float = 1.0
    extra_time_ms: float = 1_000.0
    sequential: bool = False
    max_instance_time_ms: Optional[float] = None
    fault_load: Optional[FaultLoad] = None
    collect_traces: bool = False

    def __post_init__(self) -> None:
        if self.executions < 1:
            raise ValueError("executions must be >= 1")
        if self.separation_ms <= 0:
            raise ValueError("separation_ms must be > 0")
        if self.start_offset_ms <= self.cluster.clock_sync_precision_ms:
            raise ValueError(
                "start_offset_ms must exceed the clock synchronisation precision"
            )
        if self.max_instance_time_ms is not None and self.max_instance_time_ms <= 0:
            raise ValueError("max_instance_time_ms must be > 0 when given")


@dataclass
class MeasurementResult:
    """Everything measured in one experiment.

    :attr:`summary` is computed from :attr:`latencies_ms` each time it is
    read, not stored: its Student-t interval loads ``scipy.special``, which
    a run that never reads it (every experiment's testbed points) then
    does not load, and a pickled result carries only the latencies.
    """

    config: MeasurementConfig
    latencies_ms: List[float]
    undecided: int
    recorder: LatencyRecorder
    fd_history: FailureDetectorHistory
    qos: Optional[QoSEstimate]
    experiment_duration_ms: float
    messages_delivered: int
    heartbeats_sent: int = 0
    messages_sent: int = 0
    messages_dropped: int = 0
    drops_by_cause: Dict[str, int] = field(default_factory=dict)
    messages_duplicated: int = 0
    fault_stats: Optional[FaultStats] = None
    event_log: Optional[EventLog] = None

    @property
    def summary(self) -> Optional[SampleSummary]:
        """Summary of the latencies with a 90% interval (``None`` if none decided)."""
        return summarize(self.latencies_ms) if self.latencies_ms else None

    @property
    def mean_latency_ms(self) -> float:
        """Mean latency over the decided executions."""
        if not self.latencies_ms:
            return math.nan
        return sum(self.latencies_ms) / len(self.latencies_ms)

    def cdf(self) -> EmpiricalCDF:
        """Empirical CDF of the measured latencies."""
        return EmpiricalCDF(self.latencies_ms)


class MeasurementRunner:
    """Runs one measurement experiment on the simulated cluster."""

    def __init__(self, config: MeasurementConfig) -> None:
        self.config = config
        self.fd_history = FailureDetectorHistory()
        self.recorder = LatencyRecorder()
        self.collector: Optional[TraceCollector] = (
            TraceCollector() if config.collect_traces else None
        )
        self.cluster = Cluster(
            config.cluster, fault_load=config.fault_load, collector=self.collector
        )
        self._consensus_layers: List[ChandraTouegConsensus] = []
        self._fd_layers: List[ProtocolLayer] = []
        self._build_processes()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_processes(self) -> None:
        config = self.config

        def stack_factory(sim, process_id: int) -> Sequence[ProtocolLayer]:
            consensus = ChandraTouegConsensus(
                sim,
                message_size_bytes=config.cluster.message_size_bytes,
                name=f"consensus.p{process_id}",
            )
            consensus.add_decision_callback(self.recorder.decision_callback)
            fd = self._make_failure_detector(sim, process_id)
            self._consensus_layers.append(consensus)
            self._fd_layers.append(fd)
            return [consensus, fd]

        self.cluster.create_processes(stack_factory)
        for crashed in self.config.scenario.crashed:
            self.cluster.crash_process(crashed)

    def _make_failure_detector(self, sim, process_id: int) -> ProtocolLayer:
        scenario = self.config.scenario
        if scenario.uses_heartbeat_fd:
            return HeartbeatFailureDetector(
                sim,
                timeout_ms=scenario.fd_timeout_ms,
                heartbeat_period_ms=scenario.heartbeat_period_ms,
                history=self.fd_history,
                heartbeat_size_bytes=self.config.cluster.heartbeat_size_bytes,
                name=f"hb-fd.p{process_id}",
            )
        return StaticFailureDetector(
            sim, crashed=scenario.crashed, name=f"static-fd.p{process_id}"
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> MeasurementResult:
        """Run the experiment and return its results."""
        config = self.config
        self.cluster.start_all()
        if config.sequential:
            self._register_sequential_hooks()
            self._start_execution(0, config.start_offset_ms)
            deadline = self._sequential_deadline()
            self._run_until_sequential_done(deadline)
        else:
            self._schedule_executions()
            nominal_end = (
                config.start_offset_ms + config.executions * config.separation_ms
            )
            self.cluster.run(until=nominal_end)
            self._run_until_all_decided(nominal_end, config.extra_time_ms)
        result = self._collect_results()
        self.cluster.close()
        return result

    # ------------------------------------------------------------------
    # Fixed-schedule mode (class 1 / class 2, the paper's 10 ms separation)
    # ------------------------------------------------------------------
    def _schedule_executions(self) -> None:
        config = self.config
        for execution in range(config.executions):
            nominal_start = config.start_offset_ms + execution * config.separation_ms
            self._start_execution(execution, nominal_start)

    def _start_execution(self, execution: int, nominal_start: float) -> None:
        self.recorder.register_start(execution, nominal_start)
        for process in self.cluster.processes:
            if process.crashed:
                continue
            consensus = process.layer(ChandraTouegConsensus)
            # Every process proposes when its *local* clock reads the
            # nominal start time, as in the NTP-triggered measurements.
            global_start = process.host.clock.global_time(nominal_start)
            self.cluster.sim.schedule_at(
                max(self.cluster.sim.now, global_start),
                consensus.propose,
                execution,
                f"v{process.process_id}",
            )

    def _run_until_all_decided(self, nominal_end: float, extra_time_ms: float) -> None:
        deadline = nominal_end + extra_time_ms
        step = max(10.0, self.config.separation_ms)
        now = nominal_end
        while now < deadline and self.recorder.undecided_instances():
            now = min(deadline, now + step)
            self.cluster.run(until=now)

    # ------------------------------------------------------------------
    # Sequential mode (class 3 with very bad failure detection)
    # ------------------------------------------------------------------
    def _register_sequential_hooks(self) -> None:
        self._next_execution = 1
        self._chained = set()
        for layer in self._consensus_layers:
            layer.add_decision_callback(self._on_sequential_decision)

    def _sequential_deadline(self) -> float:
        config = self.config
        per_instance = config.max_instance_time_ms or config.extra_time_ms
        return (
            config.start_offset_ms
            + config.executions * (config.separation_ms + per_instance)
            + config.extra_time_ms
        )

    def _on_sequential_decision(
        self, process_id: int, instance: int, value, local_time: float, global_time: float
    ) -> None:
        self._chain_next_execution(instance)

    def _chain_next_execution(self, finished_instance: int) -> None:
        if finished_instance in self._chained:
            return
        self._chained.add(finished_instance)
        if self._next_execution >= self.config.executions:
            return
        execution = self._next_execution
        self._next_execution += 1
        nominal_start = self.cluster.sim.now + self.config.separation_ms
        self.cluster.sim.schedule(
            self.config.separation_ms * 0.5, self._start_execution, execution, nominal_start
        )

    def _watchdog(self, execution: int) -> None:
        if not self.recorder.instances[execution].decided:
            self._chain_next_execution(execution)

    def _run_until_sequential_done(self, deadline: float) -> None:
        config = self.config
        step = max(10.0, config.separation_ms)
        watchdog_at: Dict[int, float] = {}
        while self.cluster.sim.now < deadline:
            started = self._next_execution
            instances = self.recorder.instances
            all_started = started >= config.executions
            undecided = self.recorder.undecided_instances()
            if all_started and not undecided:
                break
            # Arm watchdogs for instances that exceeded the per-instance cap.
            if config.max_instance_time_ms is not None:
                for entry in instances:
                    if entry.decided or entry.instance in self._chained:
                        continue
                    limit = watchdog_at.setdefault(
                        entry.instance, entry.start_nominal + config.max_instance_time_ms
                    )
                    if self.cluster.sim.now >= limit:
                        self._chain_next_execution(entry.instance)
            if all_started and undecided and config.max_instance_time_ms is not None:
                last_limit = max(
                    watchdog_at.get(i, self.cluster.sim.now) for i in undecided
                )
                if self.cluster.sim.now >= last_limit:
                    break
            self.cluster.run(until=self.cluster.sim.now + step)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _collect_results(self) -> MeasurementResult:
        config = self.config
        latencies = self.recorder.latencies(use_local_clock=True)
        undecided = len(self.recorder.undecided_instances())
        duration = self.cluster.sim.now
        qos: Optional[QoSEstimate] = None
        if config.scenario.uses_heartbeat_fd:
            # The paper's class-2 crashes happen before the run starts, so
            # every crash instant is t=0; passing an explicit mapping keeps
            # T_D measured from the real crash time if a scenario ever
            # crashes processes mid-run.
            qos = estimate_qos(
                self.fd_history,
                n_processes=config.cluster.n_processes,
                experiment_duration=duration,
                crashed={process: 0.0 for process in config.scenario.crashed},
            )
        heartbeats = sum(
            layer.heartbeats_sent
            for layer in self._fd_layers
            if isinstance(layer, HeartbeatFailureDetector)
        )
        event_log: Optional[EventLog] = None
        if self.collector is not None:
            if self.cluster.fault_injector is not None:
                self.collector.add_fault_events(self.cluster.fault_injector.events)
            self.collector.add_fd_transitions(self.fd_history.transitions)
            event_log = self.collector.log
        return MeasurementResult(
            config=config,
            latencies_ms=latencies,
            undecided=undecided,
            recorder=self.recorder,
            fd_history=self.fd_history,
            qos=qos,
            experiment_duration_ms=duration,
            messages_delivered=self.cluster.transport.messages_delivered,
            heartbeats_sent=heartbeats,
            messages_sent=self.cluster.transport.messages_sent,
            messages_dropped=self.cluster.transport.messages_dropped,
            drops_by_cause=dict(self.cluster.transport.drops_by_cause),
            messages_duplicated=self.cluster.transport.messages_duplicated,
            fault_stats=(
                self.cluster.fault_injector.stats
                if self.cluster.fault_injector is not None
                else None
            ),
            event_log=event_log,
        )


# ----------------------------------------------------------------------
# End-to-end delay micro-benchmark (Figure 6)
# ----------------------------------------------------------------------
class _PingLayer(ProtocolLayer):
    """Application layer of the end-to-end delay micro-benchmark.

    Process 0 periodically sends a unicast message to a chosen destination
    or a broadcast to everybody; the receivers simply absorb the messages.
    The end-to-end delays are read from the cluster's message trace.
    """

    def __init__(self, sim, name: str, size_bytes: int) -> None:
        super().__init__(sim, name)
        self.size_bytes = size_bytes

    def send_probe(self, destination: int, msg_type: str) -> None:
        """Send one probe message."""
        if self.process is None or self.process.crashed:
            return
        message = Message(
            sender=self.process_id,
            destination=destination,
            msg_type=msg_type,
            size_bytes=self.size_bytes,
        )
        self.send_down(message)

    def on_deliver(self, message: Message) -> None:  # probes are absorbed
        return


@dataclass
class EndToEndDelayResult:
    """End-to-end delays measured by the micro-benchmark."""

    unicast_delays: List[float] = field(default_factory=list)
    broadcast_delays: List[float] = field(default_factory=list)

    def unicast_cdf(self) -> EmpiricalCDF:
        """CDF of the unicast end-to-end delays."""
        return EmpiricalCDF(self.unicast_delays)

    def broadcast_cdf(self) -> EmpiricalCDF:
        """CDF of the broadcast end-to-end delays (averaged per broadcast)."""
        return EmpiricalCDF(self.broadcast_delays)


def measure_end_to_end_delays(
    cluster_config: ClusterConfig,
    probes: int = 1000,
    gap_ms: float = 1.0,
) -> EndToEndDelayResult:
    """Measure unicast and broadcast end-to-end delays (Figure 6 workload).

    Process 0 sends ``probes`` unicast messages (round-robin over the other
    processes) and ``probes`` broadcast messages, each pair separated by
    ``gap_ms`` so that the probes do not contend with each other.
    """
    cluster = Cluster(cluster_config)

    def stack_factory(sim, process_id: int) -> Sequence[ProtocolLayer]:
        return [
            _PingLayer(
                sim, f"ping.p{process_id}", cluster_config.message_size_bytes
            )
        ]

    cluster.create_processes(stack_factory)
    cluster.start_all()
    sender = cluster.process(0).layer(_PingLayer)
    n = cluster_config.n_processes
    time = 0.5
    for probe in range(probes):
        destination = 1 + probe % max(1, n - 1)
        cluster.sim.schedule_at(time, sender.send_probe, destination, "unicast-probe")
        time += gap_ms
        cluster.sim.schedule_at(time, sender.send_probe, BROADCAST, "broadcast-probe")
        time += gap_ms
    cluster.run(until=time + 10.0)

    result = EndToEndDelayResult()
    result.unicast_delays = cluster.trace.unicast_delays(msg_type="unicast-probe")
    result.broadcast_delays = cluster.trace.broadcast_delays_averaged(
        msg_type="broadcast-probe"
    )
    cluster.close()
    return result
