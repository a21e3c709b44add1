"""Tests of the solver-comparison sweep (experiment + CLI plumbing)."""

from __future__ import annotations

import pytest

from repro.experiments.settings import ExperimentSettings
from repro.experiments.solver_compare import (
    COMPARE_MODELS,
    format_solver_compare,
    run_solver_compare,
    solver_compare_plan,
)


@pytest.fixture(scope="module")
def smoke_result():
    return run_solver_compare(ExperimentSettings.smoke())


def test_sweep_produces_one_point_per_model(smoke_result):
    assert set(smoke_result.points) == {spec.key for spec in COMPARE_MODELS}
    for spec in COMPARE_MODELS:
        point = smoke_result.point(spec.key)
        assert point.n_states > 0
        assert [c.reward for c in point.rewards] == list(spec.reward_names)
        assert point.replications == ExperimentSettings.smoke().replications


def test_solvers_agree_even_at_smoke_scale(smoke_result):
    # Wide smoke-scale intervals must certainly bracket the exact values;
    # the tight-interval agreement contract lives in
    # test_solver_cross_validation.py.
    assert smoke_result.all_within_ci
    for point in smoke_result.points.values():
        for comparison in point.rewards:
            assert comparison.sample_size > 0


def test_timings_are_recorded(smoke_result):
    for point in smoke_result.points.values():
        assert point.analytic_seconds > 0
        assert point.simulative_seconds > 0
        assert point.batched_seconds > 0
        assert point.speedup == pytest.approx(
            point.simulative_seconds / point.analytic_seconds
        )
        assert point.batched_speedup == pytest.approx(
            point.simulative_seconds / point.batched_seconds
        )


def test_batched_leg_is_bit_identical_to_scalar(smoke_result):
    # The one-row-batch and auto-sized-batch legs share replication
    # seeds: any difference is an executor-fidelity bug, not noise, so
    # this is exact equality.
    for point in smoke_result.points.values():
        for comparison in point.rewards:
            assert comparison.batched_mean == comparison.simulative_mean
            assert comparison.batched_within_ci == comparison.within_ci


def test_parallel_sweep_matches_serial_statistics(smoke_result):
    parallel = run_solver_compare(ExperimentSettings.smoke(), jobs=2)
    for key, point in smoke_result.points.items():
        other = parallel.point(key)
        for mine, theirs in zip(point.rewards, other.rewards, strict=True):
            # Wall-clock differs between runs; the statistics must not.
            assert mine.analytic == theirs.analytic
            assert mine.simulative_mean == theirs.simulative_mean
            assert mine.ci_half_width == theirs.ci_half_width


def test_cache_round_trip(tmp_path, smoke_result):
    cache_dir = str(tmp_path / "cache")
    first = run_solver_compare(ExperimentSettings.smoke(), cache_dir=cache_dir)
    second = run_solver_compare(ExperimentSettings.smoke(), cache_dir=cache_dir)
    for key in first.points:
        assert (
            first.point(key).rewards[0].simulative_mean
            == second.point(key).rewards[0].simulative_mean
        )


def test_plan_point_labels_and_indices():
    plan = solver_compare_plan(ExperimentSettings.smoke())
    assert len(plan.points) == len(COMPARE_MODELS)
    for point, spec in zip(plan.points, COMPARE_MODELS, strict=True):
        assert spec.key in point.label


def test_format_renders_every_model_and_verdict(smoke_result):
    text = format_solver_compare(smoke_result)
    for spec in COMPARE_MODELS:
        assert spec.key in text
        for reward_name in spec.reward_names:
            assert reward_name in text
    assert "solvers agree on all models" in text
    assert "x" in text  # the speedup column
