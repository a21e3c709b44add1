"""Tests of the measurement runner (the paper's experimental methodology)."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.measurement import (
    MeasurementConfig,
    MeasurementRunner,
    measure_end_to_end_delays,
)
from repro.core.scenarios import Scenario
from repro.faults.spec import CrashRecovery, FaultLoad, MessageLoss
from repro.stats.descriptive import summarize


def _config(n=3, seed=1, scenario=None, executions=20, **kwargs):
    return MeasurementConfig(
        cluster=ClusterConfig(n_processes=n, seed=seed),
        scenario=scenario or Scenario.no_failures(),
        executions=executions,
        **kwargs,
    )


def test_measurement_config_validation():
    with pytest.raises(ValueError):
        _config(executions=0)
    with pytest.raises(ValueError):
        _config(separation_ms=0.0)
    with pytest.raises(ValueError):
        _config(start_offset_ms=0.01)  # below the clock sync precision
    with pytest.raises(ValueError):
        _config(sequential=True, max_instance_time_ms=0.0)


def test_class1_measurement_produces_one_latency_per_execution():
    result = MeasurementRunner(_config(executions=25)).run()
    assert len(result.latencies_ms) == 25
    assert result.undecided == 0
    assert result.qos is None
    assert result.summary is not None
    assert 0.1 < result.mean_latency_ms < 5.0
    assert result.recorder.check_agreement()
    assert result.messages_delivered > 0
    assert result.cdf().n == 25


def test_summary_is_computed_from_the_latencies_when_read():
    result = MeasurementRunner(_config(executions=12)).run()
    assert result.summary == summarize(result.latencies_ms)
    assert "summary" not in vars(result)  # nothing cached, nothing pickled
    assert dataclasses.replace(result, latencies_ms=[]).summary is None


def test_class1_latencies_are_reproducible_for_a_fixed_seed():
    first = MeasurementRunner(_config(seed=9)).run().latencies_ms
    second = MeasurementRunner(_config(seed=9)).run().latencies_ms
    assert first == second


def test_different_seeds_give_different_latencies():
    first = MeasurementRunner(_config(seed=1)).run().latencies_ms
    second = MeasurementRunner(_config(seed=2)).run().latencies_ms
    assert first != second


def test_class2_coordinator_crash_measurement_decides_without_the_coordinator():
    result = MeasurementRunner(
        _config(scenario=Scenario.coordinator_crash(), executions=15)
    ).run()
    assert result.undecided == 0
    assert all(entry.first_decider != 0 for entry in result.recorder.decided_instances())


def test_class3_measurement_estimates_qos_and_counts_heartbeats():
    config = _config(
        n=3,
        scenario=Scenario.wrong_suspicions(timeout_ms=5.0),
        executions=15,
        sequential=True,
        max_instance_time_ms=300.0,
    )
    result = MeasurementRunner(config).run()
    assert result.qos is not None
    assert result.heartbeats_sent > 0
    assert len(result.latencies_ms) >= 10
    assert result.experiment_duration_ms > 0


def test_sequential_mode_never_overlaps_executions():
    config = _config(
        executions=10,
        sequential=True,
        separation_ms=5.0,
        max_instance_time_ms=100.0,
    )
    result = MeasurementRunner(config).run()
    starts = [entry.start_nominal for entry in result.recorder.instances]
    assert starts == sorted(starts)
    # Each execution starts only after the previous one decided.
    for previous, entry in zip(result.recorder.instances, result.recorder.instances[1:], strict=False):
        assert entry.start_nominal >= previous.first_decision_global


@pytest.mark.parametrize(
    "config",
    [
        _config(executions=10),
        _config(scenario=Scenario.coordinator_crash(), executions=10),
        _config(
            scenario=Scenario.wrong_suspicions(timeout_ms=5.0),
            executions=5,
            sequential=True,
            max_instance_time_ms=100.0,
        ),
        _config(
            executions=10,
            fault_load=FaultLoad.of(
                MessageLoss(rate=0.05),
                CrashRecovery(process_id=2, crash_at_ms=20.0, recover_at_ms=60.0),
            ),
        ),
    ],
    ids=["class1", "class2", "class3-sequential", "faults"],
)
def test_a_finished_run_is_freed_without_the_garbage_collector(config):
    # A finished run closes its cluster, so the simulation is released by
    # reference counting when the runner goes, not at some later full
    # collection; the results stay readable on the closed cluster.
    gc.collect()
    gc.disable()
    try:
        runner = MeasurementRunner(config)
        result = runner.run()
        assert runner.cluster.sim.events_processed > 0
        assert len(runner.cluster.trace) > 0
        simulation = [
            weakref.ref(obj)
            for obj in (
                runner.cluster.sim,
                runner.cluster.transport,
                *runner.cluster.processes,
                *runner._consensus_layers,
                *runner._fd_layers,
            )
        ]
        del runner
        assert [ref() for ref in simulation] == [None] * len(simulation)
    finally:
        gc.enable()
    assert len(result.latencies_ms) + result.undecided == len(result.recorder.instances)


def test_end_to_end_delay_microbenchmark_reports_both_kinds_of_delays(cluster_config):
    result = measure_end_to_end_delays(cluster_config, probes=50)
    assert len(result.unicast_delays) == 50
    assert len(result.broadcast_delays) == 50
    assert result.broadcast_cdf().mean() > result.unicast_cdf().mean()
    assert result.unicast_cdf().min > 0.0
