"""Tests of the Chen-Toueg-Aguilera QoS metric estimation (§3.4 / §4)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.failure_detectors.history import FailureDetectorHistory
from repro.failure_detectors.qos import (
    estimate_pair_qos,
    estimate_qos,
    estimate_qos_from_intervals,
)


def _periodic_history(
    monitor=0,
    monitored=1,
    period=10.0,
    duration=2.0,
    experiment=100.0,
) -> FailureDetectorHistory:
    """Suspicions starting every ``period`` ms, each lasting ``duration`` ms."""
    history = FailureDetectorHistory()
    t = period
    while t + duration <= experiment:
        history.record(monitor, monitored, t, suspected=True)
        history.record(monitor, monitored, t + duration, suspected=False)
        t += period
    return history


def test_history_records_only_actual_state_changes():
    history = FailureDetectorHistory()
    history.record(0, 1, 1.0, suspected=True)
    history.record(0, 1, 2.0, suspected=True)  # duplicate: ignored
    history.record(0, 1, 3.0, suspected=False)
    assert len(history) == 2
    assert history.transition_counts(0, 1) == (1, 1)


def test_suspicion_intervals_and_time_suspected():
    history = _periodic_history(period=10.0, duration=2.0, experiment=35.0)
    intervals = history.suspicion_intervals(0, 1, 35.0)
    assert intervals == [(10.0, 12.0), (20.0, 22.0), (30.0, 32.0)]
    assert history.time_suspected(0, 1, 35.0) == pytest.approx(6.0)


def test_open_suspicion_interval_is_truncated_at_the_end_time():
    history = FailureDetectorHistory()
    history.record(0, 1, 5.0, suspected=True)
    assert history.suspicion_intervals(0, 1, 8.0) == [(5.0, 8.0)]
    assert history.time_suspected(0, 1, 8.0) == pytest.approx(3.0)


def test_pair_qos_matches_the_papers_equations():
    # 9 mistakes of 2 ms each over a 100 ms experiment.
    history = _periodic_history(period=10.0, duration=2.0, experiment=100.0)
    qos = estimate_pair_qos(history, 0, 1, experiment_duration=100.0)
    # n_TS = n_ST = 9  =>  T_MR = 2 * 100 / 18 = 11.11 ms
    assert qos.mistake_recurrence_time == pytest.approx(2 * 100.0 / 18)
    # T_M = T_MR * T_S / T_exp = 11.11 * 18 / 100 = 2 ms
    assert qos.mistake_duration == pytest.approx(qos.mistake_recurrence_time * 18.0 / 100.0)
    assert qos.n_trust_to_suspect == 9
    assert qos.n_suspect_to_trust == 9


def test_pair_without_mistakes_has_infinite_recurrence_time():
    qos = estimate_pair_qos(FailureDetectorHistory(), 0, 1, experiment_duration=50.0)
    assert math.isinf(qos.mistake_recurrence_time)
    assert qos.mistake_duration == 0.0


def test_estimate_qos_averages_over_pairs_and_separates_crashed_processes():
    history = _periodic_history(0, 1, period=10.0, duration=2.0, experiment=100.0)
    for t, suspected in [(1.0, True), (2.0, False), (21.0, True), (22.0, False)]:
        history.record(1, 0, t, suspected)
    # Pair (0, 2): process 2 crashed at t=0 and was suspected at t=7.
    history.record(0, 2, 7.0, suspected=True)
    qos = estimate_qos(history, n_processes=3, experiment_duration=100.0, crashed={2})
    finite_pairs = [p for p in qos.pairs if math.isfinite(p.mistake_recurrence_time)]
    assert len(finite_pairs) == 2  # (0,1) and (1,0); pairs about process 2 excluded
    assert qos.detection_time == pytest.approx(7.0)
    assert 0.0 < qos.suspicion_fraction < 1.0


def test_detection_time_is_measured_from_the_actual_crash_instant():
    """Regression: T_D used to assume every crash happened at t=0, inflating
    the detection time of mid-run crashes by the crash instant itself."""
    history = FailureDetectorHistory()
    # Process 1 crashes at t=40 and is suspected permanently at t=47.
    history.record(0, 1, 47.0, suspected=True)
    qos = estimate_qos(history, n_processes=2, experiment_duration=100.0, crashed={1: 40.0})
    assert qos.detection_time == pytest.approx(7.0)


def test_detection_time_with_a_set_still_measures_from_time_zero():
    history = FailureDetectorHistory()
    history.record(0, 1, 7.0, suspected=True)
    qos = estimate_qos(history, n_processes=2, experiment_duration=100.0, crashed={1})
    assert qos.detection_time == pytest.approx(7.0)


def test_detection_is_instantaneous_when_already_suspected_at_the_crash():
    history = FailureDetectorHistory()
    # Wrongly suspected at t=30 and never trusted again; the crash at t=40
    # is therefore detected immediately, not at -10.
    history.record(0, 1, 30.0, suspected=True)
    qos = estimate_qos(history, n_processes=2, experiment_duration=100.0, crashed={1: 40.0})
    assert qos.detection_time == pytest.approx(0.0)


def test_suspicions_retracted_after_the_crash_do_not_count_as_detection():
    import math as _math

    history = FailureDetectorHistory()
    history.record(0, 1, 45.0, suspected=True)
    history.record(0, 1, 50.0, suspected=False)  # trusted again: not detected
    qos = estimate_qos(history, n_processes=2, experiment_duration=100.0, crashed={1: 40.0})
    assert _math.isnan(qos.detection_time)


def test_interval_estimator_honors_the_crashed_argument():
    """Regression: the cross-check estimator used to include pairs involving
    crashed processes, disagreeing with estimate_qos on crash scenarios."""
    history = _periodic_history(0, 1, period=10.0, duration=2.0, experiment=1000.0)
    # Process 2 crashed at t=100 and stays suspected forever afterwards: a
    # huge "suspicion interval" that is detection, not a mistake.
    history.record(0, 2, 105.0, suspected=True)
    with_crash = estimate_qos_from_intervals(
        history, n_processes=3, experiment_duration=1000.0, crashed={2: 100.0}
    )
    clean = estimate_qos_from_intervals(
        history, n_processes=2, experiment_duration=1000.0
    )
    assert with_crash == clean
    equations = estimate_qos(
        history, n_processes=3, experiment_duration=1000.0, crashed={2: 100.0}
    )
    assert with_crash["mistake_duration"] == pytest.approx(
        equations.mistake_duration, rel=0.05
    )
    assert with_crash["mistake_recurrence_time"] == pytest.approx(
        equations.mistake_recurrence_time, rel=0.05
    )


def test_estimate_qos_with_no_mistakes_reports_infinite_recurrence():
    qos = estimate_qos(FailureDetectorHistory(), n_processes=3, experiment_duration=10.0)
    assert math.isinf(qos.mistake_recurrence_time)
    assert qos.mistake_duration == 0.0
    assert qos.suspicion_fraction == 0.0
    assert math.isnan(qos.detection_time)


def test_interval_estimator_agrees_with_equation_estimator_on_long_experiments():
    history = _periodic_history(period=10.0, duration=2.0, experiment=1000.0)
    by_equations = estimate_pair_qos(history, 0, 1, experiment_duration=1000.0)
    by_intervals = estimate_qos_from_intervals(history, n_processes=2, experiment_duration=1000.0)
    assert by_intervals["mistake_recurrence_time"] == pytest.approx(
        by_equations.mistake_recurrence_time, rel=0.05
    )
    assert by_intervals["mistake_duration"] == pytest.approx(
        by_equations.mistake_duration, rel=0.05
    )


def test_estimate_qos_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        estimate_pair_qos(FailureDetectorHistory(), 0, 1, experiment_duration=0.0)


@given(
    period=st.floats(min_value=5.0, max_value=50.0),
    duration=st.floats(min_value=0.5, max_value=4.0),
)
def test_qos_estimator_recovers_period_and_duration_of_periodic_mistakes(period, duration):
    experiment = 2000.0
    history = _periodic_history(period=period, duration=duration, experiment=experiment)
    qos = estimate_pair_qos(history, 0, 1, experiment_duration=experiment)
    assert qos.mistake_recurrence_time == pytest.approx(period, rel=0.1)
    assert qos.mistake_duration == pytest.approx(duration, rel=0.1)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=99.0), st.booleans()),
        max_size=30,
    )
)
def test_time_suspected_is_bounded_by_the_experiment_duration(events):
    history = FailureDetectorHistory()
    for time, suspected in sorted(events):
        history.record(0, 1, time, suspected)
    suspected_time = history.time_suspected(0, 1, 100.0)
    assert 0.0 <= suspected_time <= 100.0


@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.booleans()),
        max_size=300,
    )
)
def test_per_pair_index_equals_filtering_every_transition(records):
    history = FailureDetectorHistory()
    for step, (monitor, monitored, suspected) in enumerate(records):
        history.record(monitor, monitored, float(step), suspected)
    pairs = sorted({(t.monitor, t.monitored) for t in history.transitions})
    assert history.pairs() == pairs
    for monitor in range(5):
        for monitored in range(5):
            expected = [
                t for t in history.transitions
                if t.monitor == monitor and t.monitored == monitored
            ]
            assert history.pair_transitions(monitor, monitored) == expected
    assert sum(len(history.pair_transitions(*pair)) for pair in pairs) == len(history)
