"""Tests of the parallel replication/sweep engine.

The engine's contract is determinism: a point's seed depends only on its
identity (its seed-derivation indices), results are aggregated in plan
order whatever the worker count, and the on-disk cache only ever returns a
result for an exactly identical (point, seed, settings) triple.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.experiments.figure7 import run_figure7a
from repro.experiments.figure8 import figure8_plan, run_figure8
import repro
from repro.experiments.runner import (
    PRESENTATION_ONLY,
    ReplicationPlan,
    ResultCache,
    SweepPoint,
    execute_plan,
    iter_plan,
    resolve_jobs,
    source_fingerprint,
)
from repro.experiments.settings import ExperimentSettings


@pytest.fixture
def settings() -> ExperimentSettings:
    return ExperimentSettings(
        executions=10,
        class3_executions=6,
        replications=10,
        measured_process_counts=(3, 5),
        simulated_process_counts=(3,),
        class3_process_counts=(3,),
        timeouts_ms=(2.0, 30.0),
        t_send_candidates_ms=(0.01, 0.025),
        delay_probes=40,
        seed=7,
    )


def _echo_point(tag: str, point_seed: int) -> tuple:
    """A trivial module-level point function (picklable for the pool)."""
    return (tag, point_seed)


def _failing_point(tag: str, fail_flag: str, point_seed: int) -> tuple:
    """Point ``c`` raises while the ``fail_flag`` file exists (workers see it too)."""
    if tag == "c" and os.path.exists(fail_flag):
        raise ArithmeticError(f"point {tag} failed")
    return (tag, point_seed)


def _flaky_plan(settings, fail_flag: str) -> ReplicationPlan:
    points = tuple(
        SweepPoint.make(
            _failing_point,
            kwargs={"tag": tag, "fail_flag": fail_flag},
            indices=(98, index),
            label=f"flaky {tag}",
        )
        for index, tag in enumerate("abcd")
    )
    return ReplicationPlan(settings=settings, points=points, name="flaky")


def _plan(settings, tags=("a", "b", "c", "d")) -> ReplicationPlan:
    points = tuple(
        SweepPoint.make(
            _echo_point,
            kwargs={"tag": tag},
            indices=(99, index),
            label=f"echo {tag}",
        )
        for index, tag in enumerate(tags)
    )
    return ReplicationPlan(settings=settings, points=points, name="echo")


# ----------------------------------------------------------------------
# Per-point seed derivation
# ----------------------------------------------------------------------
def test_point_seeds_depend_only_on_indices_not_on_plan_position(settings):
    forward = _plan(settings, tags=("a", "b", "c"))
    # The same points in a different order: every point keeps its seed.
    reordered = ReplicationPlan(
        settings=settings,
        points=tuple(reversed(forward.points)),
        name="echo-reversed",
    )
    by_indices_forward = {p.indices: p.seed(settings) for p in forward.points}
    by_indices_reordered = {p.indices: p.seed(settings) for p in reordered.points}
    assert by_indices_forward == by_indices_reordered


def test_point_seeds_match_experiment_settings_point_seed(settings):
    plan = _plan(settings)
    for point in plan.points:
        assert point.seed(settings) == settings.point_seed(*point.indices)


def test_distinct_indices_yield_distinct_seeds(settings):
    seeds = _plan(settings, tags=tuple("abcdefgh")).seeds()
    assert len(set(seeds)) == len(seeds)


def test_plans_reject_duplicate_indices(settings):
    point = SweepPoint.make(_echo_point, kwargs={"tag": "x"}, indices=(1, 2))
    clone = SweepPoint.make(_echo_point, kwargs={"tag": "y"}, indices=(1, 2))
    with pytest.raises(ValueError, match="duplicate seed indices"):
        ReplicationPlan(settings=settings, points=(point, clone))


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-2)


# ----------------------------------------------------------------------
# Execution: serial fallback vs. process pool
# ----------------------------------------------------------------------
def test_results_stream_in_plan_order_with_seeds_injected(settings):
    plan = _plan(settings)
    results = execute_plan(plan, jobs=1)
    assert [tag for tag, _seed in results] == ["a", "b", "c", "d"]
    assert [seed for _tag, seed in results] == plan.seeds()


def test_parallel_execution_equals_serial_execution(settings):
    plan = _plan(settings)
    assert execute_plan(plan, jobs=1) == execute_plan(plan, jobs=3)


def test_figure8_sweep_is_identical_across_worker_counts(settings):
    serial = run_figure8(settings, jobs=1)
    parallel = run_figure8(settings, jobs=4)

    def flatten(result):
        return {
            key: (
                point.mistake_recurrence_time_ms,
                point.mistake_duration_ms,
                point.latencies_ms,
                point.undecided,
            )
            for key, point in result.points.items()
        }

    assert flatten(serial) == flatten(parallel)


def test_figure7a_is_bit_for_bit_identical_across_worker_counts(settings):
    serial = run_figure7a(settings, jobs=1)
    parallel = run_figure7a(settings, jobs=4)
    assert serial.latencies_by_n == parallel.latencies_by_n


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------
def test_cache_serves_repeat_executions_without_recomputing(settings, tmp_path):
    plan = figure8_plan(settings)
    directory = pathlib.Path(ResultCache(str(tmp_path)).directory)
    first = execute_plan(plan, jobs=1, cache_dir=str(tmp_path))
    cache_files = sorted(directory.glob("*.pkl"))
    assert len(cache_files) == len(plan.points)
    before = {path: path.stat().st_mtime_ns for path in cache_files}
    second = execute_plan(plan, jobs=1, cache_dir=str(tmp_path))
    after = {path: path.stat().st_mtime_ns for path in sorted(directory.glob("*.pkl"))}
    assert before == after  # pure cache hits: nothing was rewritten

    def flatten(points):
        return [(p.n_processes, p.timeout_ms, p.latencies_ms) for p in points]

    assert flatten(first) == flatten(second)


def test_cache_misses_on_different_seed_or_point(settings, tmp_path):
    cache = ResultCache(str(tmp_path))
    plan = _plan(settings, tags=("a", "b"))
    keys = [ResultCache.key(point, settings) for point in plan.points]
    assert keys[0] != keys[1]
    reseeded = dataclasses.replace(settings, seed=settings.seed + 1)
    assert ResultCache.key(plan.points[0], reseeded) != keys[0]
    assert cache.get(keys[0]) == (False, None)


def _settings_point(settings: ExperimentSettings, tag: str, point_seed: int) -> tuple:
    """A point function that takes the plan's settings as an argument."""
    return (tag, settings.seed, point_seed)


def _leaf_variants(obj, prefix=""):
    """Copies of a nested frozen dataclass, each with one leaf field changed."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        name = prefix + field.name
        if dataclasses.is_dataclass(value):
            for inner_name, inner in _leaf_variants(value, name + "."):
                yield inner_name, dataclasses.replace(obj, **{field.name: inner})
            continue
        if isinstance(value, tuple):
            changed = value + value[-1:]
        elif isinstance(value, float):
            changed = value / 2 if value else 0.5
        else:
            changed = value + 1
        yield name, dataclasses.replace(obj, **{field.name: changed})


def test_cache_keys_follow_every_settings_field_and_point_argument(settings):
    def key(settings, tag="a", digest=True):
        point = SweepPoint.make(
            _settings_point, kwargs={"settings": settings, "tag": tag},
            indices=(97, 0), label="settings point",
        )
        if not digest:
            return ResultCache.key(point, settings)
        return ResultCache.key(point, settings, ResultCache.settings_digest(settings))

    reference = key(settings)
    # The digest iter_plan computes once per plan is the one key() derives.
    assert key(settings, digest=False) == reference
    # Equal settings in another object give the same key.
    assert key(dataclasses.replace(settings)) == reference
    assert key(settings, tag="b") != reference
    variants = list(_leaf_variants(settings))
    assert {"seed", "cluster.seed", "cluster.network.cpu_send_ms",
            "cluster.scheduler.quantum_ms"} <= {name for name, _ in variants}
    for name, changed in variants:
        assert key(changed) != reference, name


def test_corrupt_cache_entries_count_as_misses(settings, tmp_path):
    cache = ResultCache(str(tmp_path))
    plan = _plan(settings, tags=("a",))
    key = ResultCache.key(plan.points[0], settings)
    cache.put(key, ("a", 123))
    assert cache.get(key) == (True, ("a", 123))
    (pathlib.Path(cache.directory) / f"{key}.pkl").write_bytes(b"not a pickle")
    assert cache.get(key) == (False, None)


def test_a_second_code_version_writes_beside_the_first_and_leaves_it_untouched(
    settings, tmp_path, monkeypatch
):
    plan = _plan(settings, tags=("a", "b"))
    first = pathlib.Path(ResultCache(str(tmp_path)).directory)
    execute_plan(plan, jobs=1, cache_dir=str(tmp_path))
    entries = {path: path.stat().st_mtime_ns for path in first.glob("*.pkl")}
    assert len(entries) == len(plan.points)

    monkeypatch.setattr("repro.experiments.runner.code_fingerprint", lambda: "f" * 64)
    cache = ResultCache(str(tmp_path))
    second = pathlib.Path(cache.directory)
    assert second == tmp_path / ("f" * 16)
    seen = []
    list(iter_plan(plan, jobs=1, cache=cache, timing_hook=lambda p, s, c: seen.append(c)))
    assert seen == [False, False]  # the new version's keys miss the old entries
    assert len(list(second.glob("*.pkl"))) == len(plan.points)
    assert sorted(os.listdir(tmp_path)) == sorted([first.name, second.name])
    assert {path: path.stat().st_mtime_ns for path in first.glob("*.pkl")} == entries


def test_cached_points_are_not_resubmitted_to_the_pool(settings, tmp_path):
    plan = _plan(settings)
    execute_plan(plan, jobs=1, cache_dir=str(tmp_path))
    # A second, parallel execution must be served from the cache and still
    # deliver the results in plan order.
    results = execute_plan(plan, jobs=3, cache_dir=str(tmp_path))
    assert [tag for tag, _seed in results] == ["a", "b", "c", "d"]


# ----------------------------------------------------------------------
# Point-level timing hooks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 3])
def test_timing_hook_fires_once_per_point_in_plan_order(settings, jobs):
    plan = _plan(settings)
    seen = []
    for _point, _result in iter_plan(
        plan, jobs=jobs, timing_hook=lambda p, s, c: seen.append((p.label, s, c))
    ):
        pass
    assert [label for label, _s, _c in seen] == [p.label for p in plan.points]
    assert all(seconds >= 0 for _label, seconds, _c in seen)
    assert not any(cached for _label, _s, cached in seen)


# ----------------------------------------------------------------------
# Grouped pool submissions (group_size > 1)
# ----------------------------------------------------------------------
def test_grouped_execution_equals_serial_execution(settings):
    # 7 points across 2-3 workers with uneven group splits (3/3/1, 2/2/2/1):
    # grouping is a submission-granularity knob, never a result knob.
    plan = _plan(settings, tags=tuple("abcdefg"))
    serial = execute_plan(plan, jobs=1)
    assert execute_plan(plan, jobs=2, group_size=3) == serial
    assert execute_plan(plan, jobs=3, group_size=2) == serial
    assert execute_plan(plan, jobs=2, group_size=100) == serial  # one big group


def test_group_size_must_be_positive(settings):
    plan = _plan(settings)
    with pytest.raises(ValueError, match="group_size"):
        list(iter_plan(plan, jobs=2, group_size=0))


def test_grouped_execution_keeps_per_point_cache_and_timing(settings, tmp_path):
    plan = _plan(settings, tags=tuple("abcde"))
    cache = ResultCache(str(tmp_path))
    # Pre-warm two points so the grouped run must mix hits and misses.
    warm = ReplicationPlan(settings=settings, points=plan.points[1:3], name="echo")
    list(iter_plan(warm, jobs=1, cache=cache))

    seen = []
    results = [
        result
        for _point, result in iter_plan(
            plan,
            jobs=2,
            group_size=2,
            cache=cache,
            timing_hook=lambda p, s, c: seen.append((p.label, c)),
        )
    ]
    assert [tag for tag, _seed in results] == ["a", "b", "c", "d", "e"]
    # The hook still fires once per point, in plan order, with cache flags.
    assert seen == [
        ("echo a", False),
        ("echo b", True),
        ("echo c", True),
        ("echo d", False),
        ("echo e", False),
    ]
    # Every point (cached or grouped) landed in the cache exactly once.
    assert len(sorted(pathlib.Path(cache.directory).glob("*.pkl"))) == len(plan.points)


def test_timing_hook_marks_cache_hits(settings, tmp_path):
    plan = _plan(settings)
    cache = ResultCache(str(tmp_path))
    list(iter_plan(plan, jobs=1, cache=cache))
    seen = []
    list(
        iter_plan(
            plan, jobs=1, cache=cache, timing_hook=lambda p, s, c: seen.append((s, c))
        )
    )
    assert len(seen) == len(plan.points)
    assert all(cached and seconds == 0.0 for seconds, cached in seen)


# ----------------------------------------------------------------------
# Failing points
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_point_keeps_its_exception_type_and_names_itself(settings, jobs):
    flag = __file__  # exists, so point c fails
    plan = _flaky_plan(settings, flag)
    with pytest.raises(ArithmeticError, match="point c failed") as caught:
        list(iter_plan(plan, jobs=jobs))
    if sys.version_info >= (3, 11):
        seed = settings.point_seed(98, 2)
        assert caught.value.__notes__ == [
            f"while running point 'flaky c' of plan 'flaky' "
            f"(indices (98, 2), seed {seed})"
        ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_rerun_after_a_failed_point_resumes_from_the_cache(settings, tmp_path, jobs):
    flag = tmp_path / "fail"
    flag.write_text("")
    cache = ResultCache(str(tmp_path / "cache"))
    plan = _flaky_plan(settings, str(flag))
    with pytest.raises(ArithmeticError):
        list(iter_plan(plan, jobs=jobs, cache=cache))
    flag.unlink()  # the fix
    seen = []
    results = [
        result
        for _point, result in iter_plan(
            plan, jobs=jobs, cache=cache, timing_hook=lambda p, s, c: seen.append((p.label, c))
        )
    ]
    assert results == execute_plan(plan, jobs=1)
    # Serially, the points before the failure were cached; pooled, every
    # point but the failing one had finished and was cached too.
    assert seen == [
        ("flaky a", True),
        ("flaky b", True),
        ("flaky c", False),
        ("flaky d", jobs > 1),
    ]


def test_a_failing_point_in_a_pooled_group_keeps_the_points_before_it(settings, tmp_path):
    # Points a, b, c share one submission; c raises, d runs in its own group.
    cache = ResultCache(str(tmp_path / "cache"))
    plan = _flaky_plan(settings, __file__)
    with pytest.raises(ArithmeticError, match="point c failed") as caught:
        list(iter_plan(plan, jobs=2, cache=cache, group_size=3))
    assert "point c failed" in str(caught.value.__cause__)  # the worker traceback
    if sys.version_info >= (3, 11):
        assert caught.value.__notes__[0].startswith("while running point 'flaky c'")
    hits = [cache.get(ResultCache.key(point, settings))[0] for point in plan.points]
    assert hits == [True, True, False, True]


# ----------------------------------------------------------------------
# Code fingerprint
# ----------------------------------------------------------------------
_KEYS_SCRIPT = """
import os, sys
import repro
from repro.experiments.runner import ResultCache, SweepPoint, resolve_jobs
from repro.experiments.settings import ExperimentSettings

assert os.path.dirname(repro.__file__) == sys.argv[1], repro.__file__
settings = ExperimentSettings()
point = SweepPoint.make(resolve_jobs, kwargs={"jobs": 1}, indices=(1,), seed_arg=None)
print(ResultCache.key(point, settings), ResultCache.experiment_key("figure6", settings))
"""


def _keys_of(package_dir) -> str:
    """A point key and an experiment key, computed by a fresh interpreter on a tree."""
    environment = dict(os.environ, PYTHONPATH=os.path.dirname(package_dir))
    completed = subprocess.run(
        [sys.executable, "-c", _KEYS_SCRIPT, str(package_dir)],
        capture_output=True, text=True, env=environment, check=True,
    )
    return completed.stdout.strip()


def _append(path, text: str) -> None:
    with open(path, "a") as handle:
        handle.write(text)


def test_cache_keys_follow_result_code_and_ignore_presentation_code(tmp_path):
    package = tmp_path / "repro"
    shutil.copytree(
        os.path.dirname(repro.__file__), package,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    reference = _keys_of(package)
    _append(package / "cli.py", "\n# an edit to the command line only\n")
    assert _keys_of(package) == reference
    _append(package / "stats" / "fitting.py", "\n# an edit to result code\n")
    changed = _keys_of(package)
    assert len(set(changed.split()) | set(reference.split())) == 4


def test_source_fingerprint_skips_exactly_the_presentation_only_files(tmp_path):
    package = tmp_path / "pkg"
    (package / "analysis").mkdir(parents=True)
    (package / "experiments").mkdir()
    (package / "stats").mkdir()
    for path in ("cli.py", "analysis/rules.py", "experiments/artifacts.py",
                 "experiments/figure6.py", "stats/fitting.py"):
        (package / path).write_text("x = 1\n")
    reference = source_fingerprint(str(package))
    for path in ("cli.py", "analysis/rules.py", "experiments/artifacts.py"):
        _append(package / path, "y = 2\n")
        assert source_fingerprint(str(package)) == reference, path
    (package / "notes.txt").write_text("not source")
    assert source_fingerprint(str(package)) == reference
    for path in ("experiments/figure6.py", "stats/fitting.py"):
        _append(package / path, "y = 2\n")
        assert source_fingerprint(str(package)) != reference, path
        reference = source_fingerprint(str(package))
    # A covered module moved elsewhere changes the fingerprint too.
    os.rename(package / "stats" / "fitting.py", package / "stats" / "fit.py")
    assert source_fingerprint(str(package)) != reference
    assert "cli.py" in PRESENTATION_ONLY
