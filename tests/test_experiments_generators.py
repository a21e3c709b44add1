"""Smoke tests of the per-figure experiment generators.

These use tiny settings: the goal is to verify that every generator runs end
to end, returns well-formed data and renders a textual report -- the
shape-level assertions live in ``test_reproduction_shapes.py``.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.figure6 import format_figure6, run_figure6
from repro.experiments.figure7 import (
    format_latency_means,
    run_figure7a,
    run_figure7b,
    run_latency_means,
)
from repro.experiments.figure8 import format_figure8, run_figure8
from repro.experiments.figure9 import format_figure9, run_figure9
from repro.experiments.table1 import SCENARIOS, format_table1, run_table1
from repro.sanmodels.parameters import SANParameters


@pytest.fixture(scope="module")
def settings():
    from repro.experiments.settings import ExperimentSettings

    return ExperimentSettings(
        executions=12,
        class3_executions=8,
        replications=12,
        measured_process_counts=(3,),
        simulated_process_counts=(3,),
        class3_process_counts=(3,),
        timeouts_ms=(2.0, 30.0),
        t_send_candidates_ms=(0.01, 0.025),
        delay_probes=60,
        seed=2,
    )


def test_figure6_generator_and_report(settings):
    result = run_figure6(settings, broadcast_process_counts=(3,))
    assert len(result.unicast_delays) == settings.delay_probes
    assert set(result.broadcast_delays_by_n) == {3}
    assert result.unicast_cdf().min > 0
    assert result.broadcast_cdf(3).mean() > result.unicast_cdf().mean()
    params = result.san_parameters()
    assert params.unicast_fit.low1 > 0
    # Reusing the result's own unicast fit changes nothing.
    assert params == SANParameters.from_measured_delays(
        result.unicast_delays, result.broadcast_delays_by_n
    )
    assert result.san_parameters(t_send_ms=0.01) == SANParameters.from_measured_delays(
        result.unicast_delays, result.broadcast_delays_by_n, t_send_ms=0.01
    )
    report = format_figure6(result)
    assert "unicast" in report and "broadcast to 3" in report


def test_figure7a_generator(settings):
    result = run_figure7a(settings)
    assert set(result.latencies_by_n) == {3}
    assert len(result.latencies_by_n[3]) == settings.executions
    assert 0.1 < result.mean(3) < 10.0
    assert result.cdf(3).n == settings.executions


def test_figure7b_generator_reuses_measured_data(settings):
    measured = [0.6, 0.7, 0.8, 0.65, 0.75] * 4
    result = run_figure7b(settings, n_processes=3, measured_latencies=measured)
    assert result.best_t_send_ms in settings.t_send_candidates_ms
    assert set(result.simulated_latencies_by_t_send) == set(settings.t_send_candidates_ms)
    assert result.measured_cdf().n == len(measured)
    for t_send in settings.t_send_candidates_ms:
        assert len(result.simulated_latencies_by_t_send[t_send]) == settings.replications


def test_latency_means_generator_and_report(settings):
    result = run_latency_means(settings)
    assert 3 in result.measured and 3 in result.simulated
    rows = result.rows()
    assert rows[0][0] == 3
    assert rows[0][1] > 0 and rows[0][2] > 0
    report = format_latency_means(result)
    assert "measured" in report


def test_table1_generator_and_report(settings):
    result = run_table1(settings)
    labels = [label for label, _ in SCENARIOS]
    for label in labels:
        assert result.measured_mean(label, 3) > 0
        assert result.simulated_mean(label, 3) > 0
    assert len(result.row("no crash")) == 2  # one measured + one simulated column
    report = format_table1(result)
    assert "coordinator crash" in report


def test_figure8_generator_and_report(settings):
    result = run_figure8(settings)
    assert set(result.points) == {(3, 2.0), (3, 30.0)}
    recurrence = dict(result.recurrence_series(3))
    assert recurrence[2.0] > 0
    duration = dict(result.duration_series(3))
    assert duration[2.0] >= 0
    report = format_figure8(result)
    assert "mistake recurrence" in report


def test_figure9_generator_reuses_figure8_measurements(settings):
    figure8 = run_figure8(settings)
    result = run_figure9(settings, figure8=figure8)
    assert set(result.points) == set(figure8.points)
    for (_n, _timeout), point in result.points.items():
        assert point.measured_latency_ms > 0 or math.isnan(point.measured_latency_ms)
        assert set(point.simulated_latency_ms) <= {"deterministic", "exponential"}
    measured = dict(result.measured_series(3))
    assert set(measured) == {2.0, 30.0}
    report = format_figure9(result)
    assert "n = 3" in report
