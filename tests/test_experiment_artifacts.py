"""Tests of the structured artifact layer.

The expensive part -- every registered experiment running at smoke scale
through the real CLI with ``--output`` -- happens once in a module-scoped
fixture; the tests then validate the emitted JSON against the artifact
schema, round-trip the manifests, parse the CSV series, and check the
written text reports against the library rendering path byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import re
from contextlib import redirect_stdout

import pytest

from repro import cli
from repro.experiments import registry
from repro.experiments.artifacts import (
    ARTIFACT_SCHEMA,
    ArtifactValidationError,
    PointTiming,
    RunManifest,
    json_safe,
    render_csv,
    validate_artifact,
    validate_instance,
)
from repro.experiments.settings import ExperimentSettings


@pytest.fixture(scope="module")
def smoke_cli_artifacts(tmp_path_factory):
    """Run every registered experiment at smoke scale through the CLI.

    The run fills a result cache next to the artifacts (``../cache``), which
    the warm-pass tests re-run against.
    """
    root = tmp_path_factory.mktemp("smoke")
    output_dir = root / "artifacts"
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = cli.main(
            [
                "all", "--scale", "smoke", "--jobs", "0",
                "--cache-dir", str(root / "cache"), "--output", str(output_dir),
            ]
        )
    assert code == 0
    return output_dir


def _must_not_run(*_args, **_kwargs):
    raise AssertionError("a warm re-run must be served entirely from the cache")


@pytest.fixture(scope="module")
def smoke_cli_warm_run(smoke_cli_artifacts):
    """Re-run ``all`` against the filled cache with every solver disabled.

    Returns the warm run's artifact directory and its stdout.
    """
    from repro.core.measurement import MeasurementRunner
    from repro.san.analytic import AnalyticSolver
    from repro.san.solver import SimulativeSolver

    output_dir = smoke_cli_artifacts.parent / "warm"
    cache_dir = smoke_cli_artifacts.parent / "cache"
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(stdout):
        patch.setattr(MeasurementRunner, "run", _must_not_run)
        patch.setattr(SimulativeSolver, "solve", _must_not_run)
        patch.setattr(AnalyticSolver, "solve", _must_not_run)
        code = cli.main(
            [
                "all", "--scale", "smoke",
                "--cache-dir", str(cache_dir), "--output", str(output_dir),
            ]
        )
    assert code == 0
    return output_dir, stdout.getvalue()


# ----------------------------------------------------------------------
# The full pipeline at smoke scale
# ----------------------------------------------------------------------
def test_every_experiment_emits_a_schema_valid_json_artifact(smoke_cli_artifacts):
    for name in registry.names():
        path = smoke_cli_artifacts / name / "result.json"
        payload = json.loads(path.read_text())
        validate_artifact(payload)
        assert payload["experiment"] == name
        assert payload["data"], f"{name}: empty data object"


def test_every_manifest_round_trips_and_records_provenance(smoke_cli_artifacts):
    smoke_hash = ExperimentSettings.smoke().settings_hash()
    for name in registry.names():
        path = smoke_cli_artifacts / name / "manifest.json"
        manifest = RunManifest.from_json(path.read_text())
        assert RunManifest.from_json(manifest.to_json()) == manifest
        assert manifest.experiment == name
        assert manifest.scale == "smoke"
        assert manifest.seed == ExperimentSettings.smoke().seed
        assert manifest.jobs == 0
        assert manifest.settings_hash == smoke_hash
        assert manifest.points, f"{name}: no per-point timings"
        assert manifest.wall_clock_seconds > 0


def test_every_tabular_experiment_emits_parsable_csv(smoke_cli_artifacts):
    for spec in registry.iter_specs():
        path = smoke_cli_artifacts / spec.name / "result.csv"
        if spec.to_rows is None:
            assert not path.exists()
            continue
        rows = list(csv.reader(path.read_text().splitlines()))
        assert len(rows) >= 2, f"{spec.name}: header plus at least one data row"
        assert all(len(row) == len(rows[0]) for row in rows)


def test_written_reports_match_the_library_rendering_byte_for_byte(smoke_cli_artifacts):
    """The artifact pipeline must not perturb the paper-faithful text.

    Re-render the cheap deterministic experiments directly through their
    public ``run_*``/``format_*`` API and compare with what the CLI wrote.
    (``solvercompare`` is excluded: its report embeds wall-clock timings.)
    """
    from repro.experiments.figure6 import format_figure6, run_figure6
    from repro.experiments.figure7 import format_figure7a, run_figure7a
    from repro.experiments.figure8 import format_figure8, run_figure8

    smoke = ExperimentSettings.smoke()
    for name, run, render in (
        ("figure6", run_figure6, format_figure6),
        ("figure7a", run_figure7a, format_figure7a),
        ("figure8", run_figure8, format_figure8),
    ):
        written = (smoke_cli_artifacts / name / "report.txt").read_text()
        expected = render(run(smoke))
        # The writer guarantees exactly one trailing newline.
        assert written == (expected if expected.endswith("\n") else expected + "\n")


def test_warm_rerun_serves_every_point_from_the_cache_with_the_cold_data(
    smoke_cli_artifacts, smoke_cli_warm_run
):
    warm_dir, _stdout = smoke_cli_warm_run
    for name in registry.names():
        warm = json.loads((warm_dir / name / "result.json").read_text())
        cold = json.loads((smoke_cli_artifacts / name / "result.json").read_text())
        points = warm["manifest"]["points"]
        assert points, f"{name}: no points"
        assert all(point["cached"] for point in points), name
        assert all(point["seconds"] == 0.0 for point in points), name
        assert warm["data"] == cold["data"], name


def test_cli_counts_cache_hits_on_stdout_but_not_in_the_report(
    smoke_cli_artifacts, smoke_cli_warm_run
):
    warm_dir, stdout = smoke_cli_warm_run
    lines = [line for line in stdout.splitlines() if "regenerated in" in line]
    assert len(lines) == len(registry.names())
    for name, line in zip(registry.names(), lines, strict=True):
        points = RunManifest.from_json(
            (warm_dir / name / "manifest.json").read_text()
        ).points
        assert re.fullmatch(
            rf"\[{name} regenerated in [0-9.]+ s, {len(points)} of {len(points)} "
            r"points from cache\]",
            line,
        ), line
        report = (warm_dir / name / "report.txt").read_text()
        assert "from cache" not in report
        if name != "solvercompare":  # its report embeds wall-clock timings
            assert report == (smoke_cli_artifacts / name / "report.txt").read_text()


def test_a_warm_all_pass_hashes_settings_once_and_refits_nothing_twice(
    smoke_cli_artifacts, monkeypatch
):
    from repro.sanmodels import parameters

    calls = {"settings_hash": 0, "fit": 0}
    settings_hash = ExperimentSettings.settings_hash
    fit = parameters.fit_bimodal_uniform

    def counting_settings_hash(self):
        calls["settings_hash"] += 1
        return settings_hash(self)

    def counting_fit(*args, **kwargs):
        calls["fit"] += 1
        return fit(*args, **kwargs)

    monkeypatch.setattr(ExperimentSettings, "settings_hash", counting_settings_hash)
    monkeypatch.setattr(parameters, "fit_bimodal_uniform", counting_fit)
    monkeypatch.setattr(registry, "_SETTINGS_IDENTITY", {})
    cache_dir = smoke_cli_artifacts.parent / "cache"
    with redirect_stdout(io.StringIO()):
        assert cli.main(["all", "--scale", "smoke", "--cache-dir", str(cache_dir)]) == 0
    # One settings value for all ten experiments.  Fits: figure6's unicast
    # curve once per experiment that reads figure 6 (figure6, figure7b,
    # means), plus the two broadcast curves for figure7b's and means' SAN
    # parameters.
    assert calls["settings_hash"] == 1
    assert calls["fit"] <= 7


def test_output_naming_a_file_is_rejected_before_any_work(tmp_path, monkeypatch, capsys):
    conflict = tmp_path / "occupied"
    conflict.write_text("a file")
    monkeypatch.setattr(registry, "run_experiment", _must_not_run)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["figure6", "--scale", "smoke", "--output", str(conflict)])
    assert exit_info.value.code == 2
    assert f"--output {str(conflict)!r} exists and is not a directory" in (
        capsys.readouterr().err
    )
    assert conflict.read_text() == "a file"


def test_cli_prints_no_cache_count_without_a_cache(capsys):
    assert cli.main(["figure6", "--scale", "smoke"]) == 0
    assert re.search(
        r"^\[figure6 regenerated in [0-9.]+ s\]$", capsys.readouterr().out, re.MULTILINE
    )


def test_stdout_json_format_is_schema_valid(capsys):
    assert cli.main(["figure6", "--scale", "smoke", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate_artifact(payload)
    assert payload["experiment"] == "figure6"


def test_stdout_csv_format_parses(capsys):
    assert cli.main(["figure7a", "--scale", "smoke", "--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0][0] == "n_processes"
    assert len(rows) >= 2


# ----------------------------------------------------------------------
# Schema validator and JSON normalisation units
# ----------------------------------------------------------------------
def test_validator_rejects_missing_required_keys():
    with pytest.raises(ArtifactValidationError, match="missing required key"):
        validate_artifact({"schema": "repro.experiment-artifact/v1"})


def test_validator_rejects_wrong_types_with_a_path():
    schema = {"type": "object", "properties": {"x": {"type": "integer"}}}
    with pytest.raises(ArtifactValidationError, match=r"\$\.x"):
        validate_instance({"x": "not-an-int"}, schema)


def test_validator_names_the_full_path_of_a_nested_mismatch():
    payload = {
        "schema": "repro.experiment-artifact/v1",
        "experiment": "figure6",
        "description": "",
        "data": {},
        "manifest": {
            **RunManifest(
                experiment="figure6", scale="smoke", seed=1, jobs=1, settings_hash="h",
                settings={}, started_at="", wall_clock_seconds=0.0,
                points=(PointTiming("p", (1,), 0.0), PointTiming("q", (2,), 0.0)),
            ).to_dict(),
        },
    }
    validate_artifact(payload)
    payload["manifest"]["points"][1]["indices"] = [2, "x"]
    with pytest.raises(ArtifactValidationError) as caught:
        validate_artifact(payload)
    assert str(caught.value) == (
        "$.manifest.points[1].indices[1]: expected type integer, got str"
    )
    with pytest.raises(ArtifactValidationError) as caught:
        validate_instance([{}], {"type": "array", "items": {"required": ["k"]}}, path="$.top")
    assert str(caught.value) == "$.top[0]: missing required key 'k'"


def test_validator_rejects_wrong_schema_constant():
    payload = {
        "schema": "something-else/v9",
        "experiment": "figure6",
        "description": "",
        "data": {},
        "manifest": {},
    }
    with pytest.raises(ArtifactValidationError, match="expected constant"):
        validate_instance(payload, ARTIFACT_SCHEMA)


def test_validator_accepts_integer_where_number_is_expected():
    validate_instance({"x": 3}, {"type": "object", "properties": {"x": {"type": "number"}}})


def test_json_safe_normalises_non_finite_floats_and_tuples():
    value = {"a": float("nan"), "b": float("inf"), "c": (1, 2), 3: "key"}
    assert json_safe(value) == {"a": None, "b": None, "c": [1, 2], "3": "key"}


def test_render_csv_writes_empty_cells_for_none_and_non_finite_floats():
    """CSV mirrors the JSON layer's non-finite -> null rule (no 'inf'/'nan')."""
    text = render_csv(
        (["a", "b"], [[1, None], ["x", 2.5], [float("inf"), float("nan")]])
    )
    assert text == "a,b\n1,\nx,2.5\n,\n"


def test_manifest_round_trip_from_synthetic_values():
    manifest = RunManifest(
        experiment="figure6",
        scale="quick",
        seed=42,
        jobs=None,
        settings_hash="abc123",
        settings={"executions": 8},
        started_at="2026-07-27T00:00:00Z",
        wall_clock_seconds=1.25,
        points=(PointTiming(label="p0", indices=(6, 0), seconds=0.5, cached=True),),
        version="1.0.0",
    )
    restored = RunManifest.from_json(manifest.to_json())
    assert restored == manifest
    assert restored.points[0].indices == (6, 0)
