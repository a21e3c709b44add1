"""Self-tests of the benchmark: digest stripper, failure counting, metric names."""

from __future__ import annotations

import json
import os
import re

import pytest

from perfbench import common, run, san, sweep, testbed
from perfbench.common import Tally, strip_wall_clock
from perfbench.spans import NO_TRACE, Tracer
from repro.experiments import registry
from repro.experiments.artifacts import PointTiming, RunManifest, artifact_payload

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _paths(value, prefix=""):
    """Every key path of a nested JSON value."""
    if isinstance(value, dict):
        found = set()
        for key, item in value.items():
            path = f"{prefix}.{key}"
            found |= {path} | _paths(item, path)
        return found
    if isinstance(value, list):
        return set().union(*(_paths(item, f"{prefix}[{i}]") for i, item in enumerate(value)))
    return set()


def _payload(experiment, data):
    manifest = RunManifest(
        experiment=experiment, scale="smoke", seed=1, jobs=2, settings_hash="h",
        settings={"seed": 1}, started_at="2002-06-23T00:00:00Z", wall_clock_seconds=1.5,
        points=(PointTiming("p", (1,), 0.25), PointTiming("q", (2,), 0.0, cached=True)),
        version="1",
    )
    return artifact_payload(experiment, "d", data, manifest)


def test_stripper_removes_exactly_the_wall_clock_fields():
    model = {key: 1.0 for key in common.SOLVERCOMPARE_WALL_CLOCK}
    model.update({"key": "m", "n_states": 3, "rewards": [{"analytic": 2.0}]})
    payload = _payload("solvercompare", {"models": [model], "all_within_ci": True})

    removed = _paths(payload) - _paths(strip_wall_clock(payload))

    assert removed == {
        ".manifest.wall_clock_seconds",
        ".manifest.started_at",
        ".manifest.points[0].seconds",
        ".manifest.points[1].seconds",
        *(f".data.models[0].{key}" for key in common.SOLVERCOMPARE_WALL_CLOCK),
    }
    assert "wall_clock_seconds" in payload["manifest"]  # the input is not modified


def test_stripper_keeps_timing_named_results_of_other_experiments():
    payload = _payload("figure9", {"models": [{"speedup": 2.0}], "seconds": 3})
    stripped = strip_wall_clock(payload)
    assert stripped["data"] == payload["data"]


def test_two_real_solvercompare_runs_agree_once_stripped():
    spec = registry.get("solvercompare")
    options = registry.ExperimentOptions(scale="smoke", seed=3)
    first = registry.run_experiment(spec, options=options).payload()
    second = registry.run_experiment(spec, options=options).payload()
    assert strip_wall_clock(first) == strip_wall_clock(second)


def test_tally_counts_a_raising_operation_and_goes_on():
    tally = Tally()

    def boom():
        raise ValueError("instance 45 was already proposed")

    assert tally.run(7, "boom", boom) is None
    assert tally.run(3, "fine", lambda: "ok") == "ok"
    assert (tally.attempted, tally.failed) == (10, 7)
    assert tally.failed_share == pytest.approx(0.7)
    assert not tally.problems


def test_failed_check_counts_its_operations_and_marks_the_run_incorrect():
    tally = Tally()
    tally.run(4, "op", lambda: None)
    tally.check(False, "output differs", ops=4)
    assert tally.failed == 4 and tally.problems == ["output differs"]


def test_testbed_round_counts_an_injected_failure(monkeypatch):
    tally = Tally()
    workload = testbed.TestbedWorkload(seed=5, tally=tally)
    workload.points = workload.points[:2]
    broken_label = workload.points[1][0]
    real_measure = testbed.measure

    def measure(config, tracer):
        if config is workload.points[1][1]:
            raise ValueError("injected")
        return real_measure(config, tracer)

    monkeypatch.setattr(testbed, "measure", measure)
    round_ = workload.run_round(NO_TRACE)

    executions = workload.points[1][1].executions
    assert tally.failed == 2 * executions  # cold and warm leg
    assert tally.attempted == 2 * (executions + workload.points[0][1].executions)
    assert round_.legs["cold"][0] == workload.records[workload.points[0][0]]["started"]
    assert workload.records[broken_label] is None


def _declared_per_layer():
    names = {"setup.import_s": "s"}
    names.update(testbed.PER_LAYER)
    names.update(san.PER_LAYER)
    names.update(sweep.per_layer_names())
    names.update({f"bench.trace_overhead_s.{w}": "s" for w in run.WORKLOADS})
    return names


def test_metric_names_use_only_the_allowed_characters():
    for name in list(_declared_per_layer()) + list(run.END_TO_END):
        assert METRIC_NAME.fullmatch(name), name


def test_benchmark_json_matches_the_declared_metrics():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == _declared_per_layer()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracer_spans_inherit_their_parent_trace():
    tracer = Tracer()
    with tracer.span("outer", trace="t"):
        with tracer.span("inner"):
            pass
    assert tracer.spans[1].trace == "t" and tracer.spans[1].parent == 0
    assert tracer.total("outer") >= tracer.total("inner") > 0
