"""Tests of the trace intelligence layer (repro.traces)."""

from __future__ import annotations

import math

import pytest

from repro.core.measurement import MeasurementConfig, MeasurementResult, MeasurementRunner
from repro.core.scenarios import Scenario
from repro.experiments.settings import ExperimentSettings
from repro.faults import CrashRecovery, FaultLoad, MessageLoss
from repro.traces import (
    CRASH,
    DROP,
    RECEIVE,
    RECOVER,
    SEND,
    TIMER,
    EventLog,
    TraceEvent,
    build_hb_graph,
    cluster_features,
    diff_logs,
    feature_matrix,
    featurize_measurement,
)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
def _measure(collect_traces: bool, seed: int = 7) -> MeasurementResult:
    """A small faulted class-3 consensus run (crash + wire loss)."""
    settings = ExperimentSettings.smoke()
    config = MeasurementConfig(
        cluster=settings.cluster_for(3, seed),
        scenario=Scenario.wrong_suspicions(timeout_ms=5.0),
        executions=4,
        separation_ms=10.0,
        extra_time_ms=60.0,
        fault_load=FaultLoad.of(
            MessageLoss(rate=0.05),
            CrashRecovery(process_id=0, crash_at_ms=15.0, recover_at_ms=30.0),
            name="loss+crash",
        ),
        collect_traces=collect_traces,
    )
    return MeasurementRunner(config).run()


@pytest.fixture(scope="module")
def traced_run() -> MeasurementResult:
    return _measure(collect_traces=True)


def _synthetic_log() -> EventLog:
    """A hand-built log exercising every edge family of the HB graph."""
    log = EventLog()
    log.append(TraceEvent(SEND, 1.0, process=0, msg_id=1, msg_type="m",
                          sender=0, destination=1))
    log.append(TraceEvent(RECEIVE, 2.0, process=1, msg_id=1, msg_type="m",
                          sender=0, destination=1))
    log.append(TraceEvent(SEND, 3.0, process=1, msg_id=2, msg_type="m",
                          sender=1, destination=0))
    log.append(TraceEvent(DROP, 4.0, process=0, msg_id=2, msg_type="m",
                          sender=1, destination=0, detail="wire:loss"))
    log.append(TraceEvent(CRASH, 5.0, process=0, detail="crash p0"))
    log.append(TraceEvent(TIMER, 6.0, process=1, peer=0, detail="suspect"))
    log.append(TraceEvent(RECOVER, 7.0, process=0, detail="recover p0"))
    log.append(TraceEvent(TIMER, 8.0, process=1, peer=0, detail="trust"))
    return log


# ----------------------------------------------------------------------
# Event model
# ----------------------------------------------------------------------
def test_event_to_dict_omits_unset_identity_fields():
    event = TraceEvent(CRASH, 5.0, process=2, detail="crash p2")
    record = event.to_dict()
    assert record == {"kind": CRASH, "time_ms": 5.0, "process": 2, "detail": "crash p2"}


def test_event_log_sorts_stably_by_time_and_counts_kinds():
    log = EventLog()
    log.append(TraceEvent(TIMER, 2.0, process=0, peer=1, detail="suspect"))
    log.append(TraceEvent(SEND, 1.0, process=0, msg_id=1))
    log.append(TraceEvent(CRASH, 2.0, process=1))  # ties keep append order
    events = log.events()
    assert [event.kind for event in events] == [SEND, TIMER, CRASH]
    assert log.counts_by_kind()[TIMER] == 1
    assert log.of_kind(SEND)[0].msg_id == 1
    assert [event.kind for event in log.for_process(0)] == [SEND, TIMER]
    assert len(log) == 3
    assert log.to_records()[0]["kind"] == SEND


# ----------------------------------------------------------------------
# Satellite: trace-hook contract on a faulted consensus run
# ----------------------------------------------------------------------
def test_collected_log_matches_transport_counters_exactly(traced_run):
    log = traced_run.event_log
    assert log is not None
    counts = log.counts_by_kind()
    assert counts[SEND] == traced_run.messages_sent
    assert counts[RECEIVE] == traced_run.messages_delivered
    assert counts[DROP] == traced_run.messages_dropped
    assert counts[CRASH] == traced_run.fault_stats.crashes == 1
    assert counts[RECOVER] == traced_run.fault_stats.recoveries == 1
    assert counts[TIMER] == len(traced_run.fd_history)
    assert counts[DROP] > 0 and counts[TIMER] > 0  # the faults actually fired


def test_collected_drops_reproduce_the_per_cause_attribution(traced_run):
    log = traced_run.event_log
    by_cause = {}
    for event in log.of_kind(DROP):
        by_cause[event.detail] = by_cause.get(event.detail, 0) + 1
    assert by_cause == traced_run.drops_by_cause


def test_collected_events_appear_exactly_once(traced_run):
    log = traced_run.event_log
    send_ids = [event.msg_id for event in log.of_kind(SEND)]
    assert len(send_ids) == len(set(send_ids))
    # No duplication fault in the load: each copy is delivered or dropped
    # at most once, and never both.
    received = {event.msg_id for event in log.of_kind(RECEIVE)}
    dropped = {event.msg_id for event in log.of_kind(DROP)}
    assert len(received) == len(log.of_kind(RECEIVE))
    assert len(dropped) == len(log.of_kind(DROP))
    assert not received & dropped


def test_collected_timestamps_are_monotone_per_process(traced_run):
    log = traced_run.event_log
    for process in range(3):
        times = [event.time_ms for event in log.for_process(process)]
        assert times == sorted(times)
        assert all(time >= 0.0 for time in times)


def test_tracing_is_opt_in_and_bit_identical():
    traced = _measure(collect_traces=True, seed=11)
    plain = _measure(collect_traces=False, seed=11)
    assert plain.event_log is None
    assert traced.event_log is not None
    assert traced.latencies_ms == plain.latencies_ms
    assert traced.undecided == plain.undecided
    assert traced.messages_sent == plain.messages_sent
    assert traced.messages_dropped == plain.messages_dropped
    assert traced.drops_by_cause == plain.drops_by_cause
    assert len(traced.fd_history) == len(plain.fd_history)


# ----------------------------------------------------------------------
# Happens-before graph
# ----------------------------------------------------------------------
def test_hb_message_edges_connect_send_to_receive_and_drop():
    graph = build_hb_graph(_synthetic_log(), n_processes=2)
    assert graph.happens_before(0, 1)  # send m1 -> receive m1
    assert graph.happens_before(2, 3)  # send m2 -> drop m2
    assert graph.happens_before(0, 3)  # transitively via p1's program order


def test_hb_liveness_edges_reach_the_fault_behind_a_suspicion():
    graph = build_hb_graph(_synthetic_log(), n_processes=2)
    suspect = graph.find_first(kind=TIMER, detail="suspect")
    trust = graph.find_first(kind=TIMER, detail="trust")
    crash = graph.find_first(kind=CRASH)
    recover = graph.find_first(kind=RECOVER)
    assert graph.happens_before(crash, suspect)
    assert crash in graph.causal_past(suspect)
    # The trust verdict observes the *latest* liveness change: the recovery.
    assert recover in graph.predecessors[trust]


def test_hb_vector_clocks_agree_with_reachability():
    graph = build_hb_graph(_synthetic_log(), n_processes=2)
    n = len(graph.events)
    for first in range(n):
        for second in range(n):
            if first == second:
                continue
            reachable = first in graph.causal_past(second)
            assert graph.happens_before(first, second) == reachable
    # Concurrency is symmetric and excludes ordered pairs.
    assert graph.concurrent(2, 4) == graph.concurrent(4, 2)


def test_hb_causal_past_includes_the_anchor_and_is_sorted():
    graph = build_hb_graph(_synthetic_log(), n_processes=2)
    past = graph.causal_past(5)
    assert 5 in past
    assert past == sorted(past)
    with pytest.raises(IndexError):
        graph.causal_past(99)


def test_hb_infers_process_count_from_the_log():
    graph = build_hb_graph(_synthetic_log())
    assert graph.n_processes == 2
    assert all(len(clock) == 2 for clock in graph.vector_clocks)


def test_hb_find_helpers():
    graph = build_hb_graph(_synthetic_log(), n_processes=2)
    assert graph.find_first(kind=SEND) == 0
    assert graph.find_last(kind=SEND) == 2
    assert graph.find_first(kind=TIMER, process=1, detail="trust") == 7
    assert graph.find_first(kind="nope") is None
    assert graph.find_last(kind=SEND, process=9) is None


def test_hb_duplicated_copies_get_no_message_edge():
    log = EventLog()
    log.append(TraceEvent(RECEIVE, 1.0, process=1, msg_id=42, parent_id=7,
                          sender=0, destination=1))
    graph = build_hb_graph(log, n_processes=2)
    assert graph.predecessors[0] == []


# ----------------------------------------------------------------------
# Featurization and clustering
# ----------------------------------------------------------------------
def test_featurize_measurement_is_finite_and_covers_the_outcome(traced_run):
    features = featurize_measurement(traced_run)
    assert all(math.isfinite(value) for value in features.values())
    assert features["crashes"] == 1.0
    assert features["first_crash_ms"] == pytest.approx(15.0)
    assert features["fd_transitions"] == float(len(traced_run.fd_history))
    assert any(name.startswith("drops:") for name in features)


def test_feature_matrix_uses_sorted_key_union_with_zero_fill():
    matrix = feature_matrix([{"b": 1.0}, {"a": 2.0, "b": 3.0}])
    assert matrix.names == ("a", "b")
    assert matrix.rows == ((0.0, 1.0), (2.0, 3.0))
    assert matrix.n_rows == 2


def test_clustering_separates_two_obvious_modes():
    rows = (
        [{"x": 0.0 + i * 0.1, "y": 0.0} for i in range(3)]
        + [{"x": 10.0 + i * 0.1, "y": 10.0} for i in range(3)]
    )
    result = cluster_features(feature_matrix(rows))
    assert len(result.clusters) == 2
    assert result.noise == ()
    first, second = set(result.labels[:3]), set(result.labels[3:])
    assert len(first) == len(second) == 1
    assert first != second
    for info in result.clusters:
        assert info.exemplar in info.members


def test_clustering_reports_sparse_points_as_noise():
    rows = [{"x": 0.0}, {"x": 0.1}, {"x": 0.2}, {"x": 50.0}]
    result = cluster_features(feature_matrix(rows), eps=0.5)
    assert result.labels[3] == -1
    assert result.noise == (3,)
    assert result.cluster_of(0) == result.cluster_of(1) == result.cluster_of(2) >= 0


def test_clustering_is_deterministic():
    rows = [{"x": float(i % 3), "y": float(i % 2)} for i in range(12)]
    matrix = feature_matrix(rows)
    assert cluster_features(matrix).labels == cluster_features(matrix).labels


def test_clustering_empty_input():
    result = cluster_features(feature_matrix([]))
    assert result.labels == [] and result.clusters == [] and result.noise == ()


# ----------------------------------------------------------------------
# Trace diffing
# ----------------------------------------------------------------------
def test_diff_reports_only_differing_signatures_in_time_order():
    nominal = EventLog()
    nominal.append(TraceEvent(SEND, 1.0, process=0, msg_id=1, msg_type="m",
                              sender=0, destination=1))
    nominal.append(TraceEvent(RECEIVE, 2.0, process=1, msg_id=1, msg_type="m",
                              sender=0, destination=1))
    anomalous = EventLog()
    anomalous.append(TraceEvent(SEND, 1.0, process=0, msg_id=1, msg_type="m",
                                sender=0, destination=1))
    anomalous.append(TraceEvent(DROP, 1.5, process=1, msg_id=1, msg_type="m",
                                sender=0, destination=1, detail="wire:loss"))
    anomalous.append(TraceEvent(CRASH, 3.0, process=0, detail="crash p0"))
    diff = diff_logs(anomalous, nominal)
    descriptions = [step.description for step in diff.steps]
    assert descriptions == [
        "drop m p0->p1 [wire:loss]",
        "receive m p0->p1",
        "crash p0 [crash p0]",
    ]
    assert diff.steps[0].delta == 1
    assert diff.steps[1].delta == -1  # missing in the anomalous run
    assert "vs" in diff.render_text()


def test_diff_of_identical_logs_is_empty():
    log = _synthetic_log()
    diff = diff_logs(log, log)
    assert diff.steps == []
    assert "no event-class differences" in diff.render_text()


# ----------------------------------------------------------------------
# SAN solver tracing
# ----------------------------------------------------------------------
def _san_solver(collect_traces: bool):
    from repro.san.solver import SimulativeSolver
    from repro.sanmodels.consensus_model import (
        ConsensusSANExperiment,
        consensus_stop_predicate,
    )

    experiment = ConsensusSANExperiment(n_processes=3, seed=21)
    return SimulativeSolver(
        model_factory=experiment.model_factory,
        reward_factory=experiment.reward_factory,
        stop_predicate=consensus_stop_predicate,
        max_time=experiment.max_time_ms,
        seed=21,
        reuse_model=True,
        collect_traces=collect_traces,
    )


def test_san_solver_traces_are_opt_in_and_reward_identical():
    plain = _san_solver(False).run_replication(0)
    traced = _san_solver(True).run_replication(0)
    assert plain.trace is None
    assert traced.trace  # non-empty activity-completion record
    assert traced.rewards == plain.rewards
    assert traced.end_time == plain.end_time
    times = [completion.time for completion in traced.trace]
    assert times == sorted(times)
    assert times[-1] == pytest.approx(traced.end_time)


def test_san_solver_batched_traces_match_the_oracle():
    # Traced solves stay batched: every row's completion stream equals the
    # oracle's, and tracing leaves the rewards of an untraced run intact.
    from repro.san.executor import run_replication

    solver = _san_solver(True)
    traced = solver.solve(replications=4)
    untraced = _san_solver(False).solve(replications=4)
    for index, (row, plain) in enumerate(
        zip(traced.replications, untraced.replications, strict=True)
    ):
        oracle = run_replication(solver, index)
        assert row.trace is not None and row.trace
        assert row.trace == oracle.trace, index
        assert row.rewards == oracle.rewards == plain.rewards, index
        assert plain.trace is None


def test_san_solver_run_batch_preserves_traces():
    results = _san_solver(True).run_batch([0, 1])
    assert [result.replication for result in results] == [0, 1]
    assert all(result.trace for result in results)


def test_diff_truncates_to_the_largest_deltas_but_stays_chronological():
    anomalous = EventLog()
    for i in range(10):
        for _ in range(i + 1):
            anomalous.append(TraceEvent(SEND, float(i), process=0, msg_id=None,
                                        msg_type=f"t{i}", sender=0, destination=1))
    diff = diff_logs(anomalous, EventLog(), max_steps=3)
    assert len(diff.steps) == 3
    # The three largest surpluses (t7, t8, t9), reported in time order.
    assert [step.description for step in diff.steps] == [
        "send t7 p0->p1", "send t8 p0->p1", "send t9 p0->p1",
    ]
    assert "more differences" not in diff.render_text(limit=3)
