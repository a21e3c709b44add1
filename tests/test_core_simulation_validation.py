"""Tests of the SAN simulation runner, calibration and validation helpers."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.calibration import calibrate_t_send, simulated_latency_cdfs_by_t_send
from repro.core.scenarios import Scenario
from repro.core.simulation import SimulationConfig, SimulationRunner
from repro.core.validation import compare_results, crossover_point, ordering_holds
from repro.failure_detectors.history import FailureDetectorHistory
from repro.failure_detectors.qos import estimate_qos
from repro.sanmodels.parameters import SANParameters
from repro.stats.descriptive import summarize


def _fake_qos(recurrence=20.0, duration=2.0, n_processes=3, experiment=1000.0):
    history = FailureDetectorHistory()
    for monitor in range(n_processes):
        for monitored in range(n_processes):
            if monitor == monitored:
                continue
            t = recurrence
            while t + duration < experiment:
                history.record(monitor, monitored, t, True)
                history.record(monitor, monitored, t + duration, False)
                t += recurrence
    return estimate_qos(history, n_processes, experiment)


# ----------------------------------------------------------------------
# SimulationRunner
# ----------------------------------------------------------------------
def test_simulation_config_requires_qos_for_class3():
    with pytest.raises(ValueError):
        SimulationConfig(n_processes=3, scenario=Scenario.wrong_suspicions(5.0))


def test_simulation_runner_class1_produces_latencies():
    result = SimulationRunner(
        SimulationConfig(n_processes=3, scenario=Scenario.no_failures(), replications=30, seed=1)
    ).run()
    assert len(result.latencies_ms) == 30
    assert result.undecided == 0
    assert 0.05 < result.mean_latency_ms < 10.0
    assert result.summary is not None
    assert result.cdf().n == 30


def test_simulation_summary_is_computed_from_the_latencies_when_read():
    result = SimulationRunner(
        SimulationConfig(n_processes=3, scenario=Scenario.no_failures(), replications=12, seed=2)
    ).run()
    assert result.summary == summarize(result.latencies_ms)
    assert "summary" not in vars(result)
    assert dataclasses.replace(result, latencies_ms=[]).summary is None


def test_simulation_runner_class2_coordinator_crash_is_slower():
    base = SimulationRunner(
        SimulationConfig(n_processes=3, scenario=Scenario.no_failures(), replications=40, seed=2)
    ).run()
    crash = SimulationRunner(
        SimulationConfig(n_processes=3, scenario=Scenario.coordinator_crash(), replications=40, seed=2)
    ).run()
    assert crash.mean_latency_ms > base.mean_latency_ms


def test_simulation_runner_class3_uses_the_measured_qos():
    good_fd = SimulationRunner(
        SimulationConfig(
            n_processes=3,
            scenario=Scenario.wrong_suspicions(timeout_ms=50.0),
            fd_qos=_fake_qos(recurrence=10_000.0, duration=1.0),
            replications=30,
            seed=3,
        )
    ).run()
    bad_fd = SimulationRunner(
        SimulationConfig(
            n_processes=3,
            scenario=Scenario.wrong_suspicions(timeout_ms=1.0),
            fd_qos=_fake_qos(recurrence=4.0, duration=1.0),
            replications=30,
            seed=3,
        )
    ).run()
    assert bad_fd.mean_latency_ms > good_fd.mean_latency_ms


def test_simulation_runner_class3_with_perfect_qos_degenerates_to_class1():
    qos = estimate_qos(FailureDetectorHistory(), n_processes=3, experiment_duration=100.0)
    runner = SimulationRunner(
        SimulationConfig(
            n_processes=3,
            scenario=Scenario.wrong_suspicions(timeout_ms=100.0),
            fd_qos=qos,
            replications=20,
            seed=4,
        )
    )
    assert runner._fd_settings() is None
    assert len(runner.run().latencies_ms) == 20


def test_simulation_runner_fd_kinds_give_different_but_finite_latencies():
    qos = _fake_qos(recurrence=6.0, duration=1.5)
    results = {}
    for kind in ("deterministic", "exponential"):
        results[kind] = SimulationRunner(
            SimulationConfig(
                n_processes=3,
                scenario=Scenario.wrong_suspicions(timeout_ms=2.0),
                fd_qos=qos,
                fd_kind=kind,
                replications=30,
                seed=5,
            )
        ).run().mean_latency_ms
    assert all(value > 0 for value in results.values())


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def test_calibrate_t_send_picks_the_best_matching_candidate():
    params = SANParameters()
    # Produce "measurements" from the SAN itself with a known t_send; the
    # calibration sweep must pick a candidate at least as good as any other.
    from repro.sanmodels.consensus_model import ConsensusSANExperiment

    truth = ConsensusSANExperiment(
        n_processes=3, parameters=params.with_t_send(0.025), seed=10
    ).run(replications=60)
    result = calibrate_t_send(
        measured_latencies=truth.latencies_ms,
        base_parameters=params,
        n_processes=3,
        candidate_t_send_ms=(0.005, 0.025),
        replications=60,
        seed=11,
    )
    assert result.best_t_send_ms in (0.005, 0.025)
    best = result.candidate_for(result.best_t_send_ms)
    assert all(best.ks_distance <= candidate.ks_distance for candidate in result.candidates)
    assert result.measured_mean_ms == pytest.approx(truth.mean_ms, rel=1e-6)


def test_calibrate_t_send_requires_measurements():
    with pytest.raises(ValueError):
        calibrate_t_send([], SANParameters())


def test_simulated_latency_cdfs_by_t_send_returns_one_cdf_per_candidate():
    cdfs = simulated_latency_cdfs_by_t_send(
        SANParameters(), n_processes=3, candidate_t_send_ms=(0.01, 0.03), replications=20, seed=1
    )
    assert set(cdfs) == {0.01, 0.03}
    assert all(cdf.n == 20 for cdf in cdfs.values())


# ----------------------------------------------------------------------
# Validation helpers
# ----------------------------------------------------------------------
def test_compare_results_reports_relative_error_and_overlap():
    report = compare_results([1.0, 1.1, 0.9, 1.0], [1.05, 1.0, 1.1, 0.95], label="n=3")
    assert report.relative_error < 0.1
    assert report.agrees_within(0.1)
    assert report.intervals_overlap
    assert 0.0 <= report.ks_distance <= 1.0
    assert "n=3" in str(report)


def test_compare_results_detects_large_disagreement():
    report = compare_results([1.0, 1.1, 0.9], [2.0, 2.1, 1.9])
    assert report.relative_error > 0.5
    assert not report.agrees_within(0.3)
    assert not report.intervals_overlap


def test_compare_results_rejects_empty_samples():
    with pytest.raises(ValueError):
        compare_results([], [1.0])


def test_ordering_holds_helper():
    assert ordering_holds([1.0, 1.5, 2.0])
    assert not ordering_holds([1.0, 0.5])
    assert ordering_holds([3.0, 2.0, 2.0], decreasing=True)


def test_crossover_point_finds_the_first_threshold_crossing():
    xs = [1, 2, 5, 10, 20]
    ys = [50.0, 20.0, 5.0, 1.5, 1.4]
    assert crossover_point(xs, ys, threshold=2.0) == 10
    assert crossover_point(xs, ys, threshold=0.5) is None
