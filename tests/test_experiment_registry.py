"""Tests of the declarative experiment registry and the registry-driven CLI.

The CLI discovers its subcommands from :mod:`repro.experiments.registry`
(no hard-coded experiment table), and all option validation/resolution
goes through one shared code path (:class:`ExperimentOptions`).  These
tests run experiments at a *tiny* scale injected into
:data:`~repro.experiments.settings.SCALE_PRESETS`, proving that
registering a preset is all a new scale needs to become CLI-selectable.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro import cli
from repro.experiments import registry
from repro.experiments.figure6 import format_figure6, run_figure6
from repro.experiments.registry import ExperimentOptions, ExperimentSpec, run_experiment
from repro.experiments.runner import ReplicationPlan, ResultCache, SweepPoint
from repro.experiments.settings import SCALE_PRESETS, ExperimentSettings

#: Every experiment the eight generator modules must register.
EXPECTED_EXPERIMENTS = {
    "faultsweep",
    "figure6",
    "figure7a",
    "figure7b",
    "figure8",
    "figure9",
    "means",
    "solvercompare",
    "table1",
    "traceanalysis",
}


def tiny_settings() -> ExperimentSettings:
    """A minimal scale for fast CLI-path tests."""
    return ExperimentSettings(
        executions=8,
        class3_executions=6,
        replications=8,
        measured_process_counts=(3,),
        simulated_process_counts=(3,),
        class3_process_counts=(3,),
        timeouts_ms=(2.0,),
        t_send_candidates_ms=(0.01,),
        delay_probes=40,
        seed=5,
    )


@pytest.fixture
def tiny_scale(monkeypatch):
    """Register the tiny preset under the scale name ``tiny``."""
    monkeypatch.setitem(SCALE_PRESETS, "tiny", tiny_settings)
    return "tiny"


# ----------------------------------------------------------------------
# Registry mechanics
# ----------------------------------------------------------------------
def test_registry_discovers_every_experiment():
    assert set(registry.names()) == EXPECTED_EXPERIMENTS
    assert registry.names() == sorted(EXPECTED_EXPERIMENTS)


def test_cli_has_no_hardcoded_experiment_table():
    assert not hasattr(cli, "REPORTS")


def test_get_unknown_experiment_raises():
    with pytest.raises(KeyError, match="unknown experiment"):
        registry.get("figure99")


def test_registering_a_duplicate_name_raises():
    duplicate = ExperimentSpec(
        name="figure6",
        description="imposter",
        render_text=str,
        to_record=lambda result: {},
        run=lambda context: None,
    )
    with pytest.raises(ValueError, match="already registered"):
        registry.register(duplicate)


def test_spec_requires_run_or_plan_plus_aggregate():
    with pytest.raises(ValueError, match="must define either"):
        ExperimentSpec(
            name="incomplete",
            description="no execution strategy",
            render_text=str,
            to_record=lambda result: {},
        )


def test_build_points_reports_the_sweep_grid():
    settings = tiny_settings()
    points = registry.get("figure6").build_points(settings)
    assert [dict(p.kwargs)["n_processes"] for p in points] == [3, 5]
    # Composite experiments construct plans mid-run from intermediate
    # results, so they expose no up-front grid.
    assert registry.get("figure7b").build_points(settings) == []


# ----------------------------------------------------------------------
# Shared option validation / settings resolution
# ----------------------------------------------------------------------
def test_negative_jobs_is_rejected_with_a_consistent_message():
    with pytest.raises(ValueError, match="positive integer, or 0"):
        ExperimentOptions(jobs=-1).validate()


def test_zero_jobs_means_one_worker_per_cpu_and_is_accepted():
    ExperimentOptions(jobs=0).validate()


def test_cache_dir_conflicting_with_a_file_is_rejected(tmp_path):
    conflict = tmp_path / "not-a-dir"
    conflict.write_text("occupied")
    with pytest.raises(ValueError, match="is not a directory"):
        ExperimentOptions(cache_dir=str(conflict)).validate()


def test_resolve_settings_applies_scale_and_seed(tiny_scale):
    settings = ExperimentOptions(scale=tiny_scale, seed=99).resolve_settings()
    assert settings.executions == tiny_settings().executions
    assert settings.seed == 99


def test_scale_name_identifies_presets_ignoring_seed_overrides(tiny_scale):
    assert ExperimentSettings.smoke().scale_name() == "smoke"
    assert ExperimentOptions(scale=tiny_scale, seed=7).resolve_settings().scale_name() == "tiny"
    custom = ExperimentSettings(executions=123456)
    assert custom.scale_name() == "custom"


# ----------------------------------------------------------------------
# The registry-driven CLI
# ----------------------------------------------------------------------
def test_cli_list_names_every_registered_experiment(capsys):
    assert cli.main(["--list"]) == 0
    output = capsys.readouterr().out
    for name in EXPECTED_EXPERIMENTS:
        assert name in output


def test_cli_requires_an_experiment_or_list():
    with pytest.raises(SystemExit):
        cli.main([])


def test_cli_rejects_negative_jobs(capsys):
    with pytest.raises(SystemExit):
        cli.main(["figure6", "--jobs", "-2"])
    assert "positive integer" in capsys.readouterr().err


def test_cli_rejects_unknown_experiments():
    with pytest.raises(SystemExit):
        cli.main(["figure99"])


def test_cli_text_output_is_identical_to_the_library_path(tiny_scale, capsys):
    """The registry/CLI plumbing must not alter the rendered report."""
    assert cli.main(["figure6", "--scale", tiny_scale]) == 0
    output = capsys.readouterr().out
    body = output.split("====\n", 1)[1].rsplit("\n[figure6 regenerated", 1)[0]
    expected = format_figure6(run_figure6(tiny_settings()))
    assert body == expected


def test_run_experiment_records_point_timings(tiny_scale):
    run = run_experiment(
        registry.get("figure7a"), options=ExperimentOptions(scale=tiny_scale)
    )
    assert run.manifest.experiment == "figure7a"
    assert run.manifest.scale == "tiny"
    labels = [point.label for point in run.manifest.points]
    assert labels == ["figure7a n=3"]
    assert all(point.seconds > 0 for point in run.manifest.points)
    assert run.manifest.wall_clock_seconds >= max(p.seconds for p in run.manifest.points)


def test_run_experiment_enforces_a_spec_scale_restriction(tiny_scale):
    restricted = ExperimentSpec(
        name="restricted-demo",
        description="only runs at smoke scale",
        render_text=str,
        to_record=lambda result: {},
        run=lambda context: "ok",
        scales=("smoke",),
    )
    with pytest.raises(ValueError, match="does not support scale"):
        run_experiment(restricted, options=ExperimentOptions(scale=tiny_scale))
    assert run_experiment(restricted, options=ExperimentOptions(scale="smoke")).result == "ok"


def test_manifest_scale_reflects_explicit_settings_not_stale_options(tiny_scale):
    """An explicit settings object wins over options for provenance too."""
    run = run_experiment(
        registry.get("figure7a"),
        options=ExperimentOptions(scale="smoke", jobs=1),
        settings=tiny_settings(),
    )
    assert run.manifest.scale == "tiny"
    assert run.manifest.settings_hash == tiny_settings().settings_hash()


def test_composite_experiments_time_their_ad_hoc_stages(tiny_scale, tmp_path):
    options = ExperimentOptions(scale=tiny_scale, cache_dir=str(tmp_path))
    run = run_experiment(registry.get("figure7b"), options=options)
    labels = [point.label for point in run.manifest.points]
    # The measurement stage, the figure6 sub-sweep, and the t_send
    # candidate sweep must all appear in the manifest.
    assert "figure7b measure n=5" in labels
    assert any(label.startswith("figure6") for label in labels)
    assert any(label.startswith("figure7b t_send") for label in labels)
    # The measurement is a cache point without seed indices: computed on a
    # fresh cache, served from it on the second run.
    (measure,) = [p for p in run.manifest.points if p.label == "figure7b measure n=5"]
    assert measure.indices == ()
    assert measure.cached is False
    rerun = run_experiment(registry.get("figure7b"), options=options)
    (measure,) = [p for p in rerun.manifest.points if p.label == "figure7b measure n=5"]
    assert measure.cached is True
    assert measure.seconds == 0.0
    assert rerun.result.measured_latencies == run.result.measured_latencies


def test_manifest_settings_identity_follows_the_value_not_the_object():
    trivial = ExperimentSpec(
        name="trivial", description="d", render_text=str,
        to_record=lambda result: {}, run=lambda context: "ok",
    )
    integral = replace(tiny_settings(), timeouts_ms=(2,))
    runs = [
        run_experiment(trivial, settings=settings)
        for settings in (tiny_settings(), tiny_settings(), integral)
    ]
    hashes = [run.manifest.settings_hash for run in runs]
    assert hashes[:2] == [tiny_settings().settings_hash()] * 2
    # Equal to the float spelling, but it dumps (and hashes) differently.
    assert integral == tiny_settings()
    assert hashes[2] == integral.settings_hash() != hashes[0]
    assert runs[2].manifest.settings["timeouts_ms"] == [2]


# ----------------------------------------------------------------------
# Experiment entries: whole results served from the cache
# ----------------------------------------------------------------------
def _stripped(run) -> dict:
    """The run's payload without its wall-clock fields."""
    payload = run.payload()
    manifest = payload["manifest"]
    del manifest["started_at"], manifest["wall_clock_seconds"]
    for point in manifest["points"]:
        del point["seconds"]
    return payload


def _experiment_entry(cache_dir, name: str) -> str:
    return os.path.join(
        ResultCache(str(cache_dir)).directory,
        ResultCache.experiment_key(name, tiny_settings()) + ".pkl",
    )


def _counting_gets(monkeypatch) -> list:
    keys = []
    original = ResultCache.get

    def get(self, key):
        keys.append(key)
        return original(self, key)

    monkeypatch.setattr(ResultCache, "get", get)
    return keys


def test_a_warm_hit_loads_no_point_entry_and_matches_a_point_by_point_rerun(
    tiny_scale, tmp_path, monkeypatch
):
    options = ExperimentOptions(scale=tiny_scale, cache_dir=str(tmp_path))
    spec = registry.get("figure7b")  # composite: its sub-stages are touched too
    cold = run_experiment(spec, options=options)
    gets = _counting_gets(monkeypatch)
    warm = run_experiment(spec, options=options)
    assert gets == [ResultCache.experiment_key("figure7b", tiny_settings())]
    assert [(p.label, p.indices) for p in warm.manifest.points] == [
        (p.label, p.indices) for p in cold.manifest.points
    ]
    assert all(p.cached and p.seconds == 0.0 for p in warm.manifest.points)
    assert warm.payload()["data"] == cold.payload()["data"]
    assert warm.text() == cold.text()
    # Without the entry, the run is served point by point, with the same payload.
    os.unlink(_experiment_entry(tmp_path, "figure7b"))
    by_point = run_experiment(spec, options=options)
    assert len(gets) > 2
    assert _stripped(warm) == _stripped(by_point)


def test_a_deleted_point_entry_is_recomputed_alone(tiny_scale, tmp_path):
    options = ExperimentOptions(scale=tiny_scale, cache_dir=str(tmp_path))
    spec = registry.get("figure7b")
    cold = run_experiment(spec, options=options)
    cache = ResultCache(str(tmp_path))
    hit, (_result, touched) = cache.get(
        ResultCache.experiment_key("figure7b", tiny_settings())
    )
    assert hit and [(label, indices) for label, indices, _key in touched] == [
        (p.label, p.indices) for p in cold.manifest.points
    ]
    (deleted,) = [key for label, _i, key in touched if label == "figure7b measure n=5"]
    os.unlink(os.path.join(cache.directory, deleted + ".pkl"))
    rerun = run_experiment(spec, options=options)
    assert [(p.label, p.cached) for p in rerun.manifest.points] == [
        (p.label, p.label != "figure7b measure n=5") for p in cold.manifest.points
    ]
    assert rerun.payload()["data"] == cold.payload()["data"]


def test_a_corrupt_experiment_entry_counts_as_a_miss(tiny_scale, tmp_path):
    options = ExperimentOptions(scale=tiny_scale, cache_dir=str(tmp_path))
    spec = registry.get("figure7a")
    cold = run_experiment(spec, options=options)
    entry = _experiment_entry(tmp_path, "figure7a")
    with open(entry, "wb") as handle:
        handle.write(b"not a pickle")
    rerun = run_experiment(spec, options=options)
    assert all(p.cached for p in rerun.manifest.points)
    assert rerun.payload()["data"] == cold.payload()["data"]
    # The miss rewrote the entry.
    assert ResultCache(str(tmp_path)).get(os.path.basename(entry)[:-4])[0]


def _square(value: int, point_seed: int) -> int:
    return value * value


def _fail_after_one_point(context):
    plan = ReplicationPlan(
        settings=context.settings,
        points=(SweepPoint.make(_square, kwargs={"value": 3}, indices=(0,), label="sq"),),
    )
    assert [result for _point, result in context.iter(plan)] == [9]
    raise RuntimeError("aggregation failed")


def test_a_failed_run_writes_no_experiment_entry(tmp_path):
    failing = ExperimentSpec(
        name="fails-late", description="d", render_text=str,
        to_record=lambda result: {}, run=_fail_after_one_point,
    )
    options = ExperimentOptions(cache_dir=str(tmp_path))
    with pytest.raises(RuntimeError, match="aggregation failed"):
        run_experiment(failing, options=options, settings=tiny_settings())
    # The finished point was stored; the experiment was not.
    assert len(os.listdir(ResultCache(str(tmp_path)).directory)) == 1
    assert not os.path.exists(_experiment_entry(tmp_path, "fails-late"))
