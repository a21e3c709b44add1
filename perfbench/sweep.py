"""The ``sweep`` workload: every registered experiment at smoke scale.

One pass calls :func:`repro.experiments.registry.run_experiment` on every
registered experiment, serially in-process (see :data:`JOBS`), and builds
each run's artifacts (``text()``, ``payload()``, ``table()``, validated
against ``ARTIFACT_SCHEMA``), as ``python -m repro all --scale smoke
--output DIR`` does.  One operation is one sweep point of a manifest.

* The cold leg runs a pass against a fresh cache directory.
* The warm leg re-runs the pass against the cache the cold pass filled, so
  every plan point is a cache hit; its records must equal the cold pass's.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Any, Dict, Optional, Tuple

from perfbench.common import Round, Tally, metric, strip_wall_clock
from repro.experiments import registry
from repro.experiments.artifacts import validate_artifact

NAME = "sweep"

#: Workers of every pass.  A pool of two on a shared two-CPU VM spread the
#: cold pass by 0.32 across seeds (0.25 from round to round, which no
#: calibration removed), so passes run serially in-process.
JOBS = 1
#: Warm passes after each cold pass.
WARM_PASSES = 4


def per_layer_names() -> Dict[str, str]:
    """This workload's per-layer metrics and units (one per registered experiment)."""
    return {
        **{f"experiments.{name}.wall_s": "s" for name in registry.names()},
        "experiments.runner.point_s": "s",
        "experiments.runner.parallel_efficiency": "share",
        "experiments.cache.hits.cold": "count",
        "experiments.cache.misses.cold": "count",
        "experiments.cache.hits.warm": "count",
        "experiments.cache.misses.warm": "count",
        "experiments.cache.bytes": "bytes",
        "experiments.artifacts_s": "s",
    }


def _cache_counts(run: registry.ExperimentRun) -> Tuple[int, int]:
    """``(hits, misses)`` of one run's plan points (ad-hoc stages have no indices)."""
    points = [point for point in run.manifest.points if point.indices]
    hits = sum(1 for point in points if point.cached)
    return hits, len(points) - hits


def _directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, files in os.walk(path)
        for name in files
    )


class SweepWorkload:
    """Smoke-scale sweeps; the leg names are ``cold`` and ``warm``."""

    name = NAME
    #: The warm leg's set-up is a cold pass.  Set-up probes therefore stop
    #: after import and discovery, and ``setup_s`` adds the median cold pass
    #: of the timed rounds instead of re-running one in every probe.
    COLD_LEG_IS_SETUP = True

    def __init__(self, seed: int, tally: Tally, workdir: str) -> None:
        self.seed = seed
        self.tally = tally
        self.workdir = workdir
        self.specs = registry.iter_specs()
        #: Stripped artifact payloads of the set-up cold pass, by experiment.
        self.records: Optional[Dict[str, Any]] = None
        self._points_per_spec: Dict[str, int] = {}
        self.cold_stats: Dict[str, float] = {}
        self.warm_stats: Dict[str, float] = {}

    def _pass(self, cache_dir: str, tracer: Any, leg: str, round_: Round
              ) -> Tuple[int, float, Dict[str, Any], Dict[str, float]]:
        """One pass over the registry: ``(points, seconds, records, stats)``.

        Calibration chunks between the experiments are kept off the clock.
        """
        options = registry.ExperimentOptions(
            scale="smoke", seed=self.seed, jobs=JOBS, cache_dir=cache_dir
        )
        records: Dict[str, Any] = {}
        stats = {"hits": 0, "misses": 0, "point_s": 0.0}
        points = 0
        seconds = 0.0
        for spec in self.specs:
            round_.calibrate(leg)
            started = time.perf_counter()
            expected = self._points_per_spec.get(spec.name, 1)
            trace = f"{spec.name}.{leg}"
            with tracer.span(f"experiments.{spec.name}.{leg}", trace=trace):
                run = self.tally.run(
                    0, f"sweep {spec.name}",
                    lambda s=spec: registry.run_experiment(s, options=options),
                )
            if run is None:
                seconds += time.perf_counter() - started
                self.tally.attempted += expected
                self.tally.failed += expected
                continue
            with tracer.span(f"experiments.artifacts.{leg}", trace=trace):
                run.text()
                run.table()
                payload = run.payload()
                validate_artifact(payload)
            seconds += time.perf_counter() - started
            count = len(run.manifest.points)
            self.tally.attempted += count
            self._points_per_spec[spec.name] = count
            points += count
            records[spec.name] = strip_wall_clock(payload)
            hits, misses = _cache_counts(run)
            stats["hits"] += hits
            stats["misses"] += misses
            stats["point_s"] += sum(point.seconds for point in run.manifest.points)
        return points, seconds, records, stats

    def setup(self, tracer: Any) -> None:
        """A cold pass: warms the process and gives the records later passes must match."""
        cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.workdir)
        try:
            _points, _seconds, self.records, _stats = self._pass(
                cache_dir, tracer, "setup", Round()
            )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def run_round(self, tracer: Any) -> Round:
        round_ = Round()
        cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.workdir)
        try:
            cold_points, cold_s, cold, stats = self._pass(cache_dir, tracer, "cold", round_)
            round_.add("cold", cold_points, cold_s)
            self.tally.check(cold == self.records, "sweep: cold pass differs from set-up pass")
            self.cold_stats = {
                **stats, "seconds": cold_s, "bytes": _directory_bytes(cache_dir)
            }
            for index in range(WARM_PASSES):
                points, seconds, warm, stats = self._pass(cache_dir, tracer, "warm", round_)
                round_.add("warm", points, seconds)
                if index == 0:
                    self.warm_stats = stats
                self.tally.check(
                    {name: record["data"] for name, record in warm.items()}
                    == {name: record["data"] for name, record in cold.items()},
                    "sweep: warm pass records differ from cold pass",
                )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return round_

    def final_checks(self) -> None:
        return None

    def per_layer(self, tracer: Any) -> Dict[str, Dict[str, Any]]:
        cold, warm = self.cold_stats, self.warm_stats
        values: Dict[str, float] = {
            **{
                f"experiments.{spec.name}.wall_s":
                    tracer.total(f"experiments.{spec.name}.cold")
                for spec in self.specs
            },
            "experiments.runner.point_s": cold["point_s"],
            "experiments.runner.parallel_efficiency":
                cold["point_s"] / (JOBS * cold["seconds"]),
            "experiments.cache.hits.cold": cold["hits"],
            "experiments.cache.misses.cold": cold["misses"],
            "experiments.cache.hits.warm": warm["hits"],
            "experiments.cache.misses.warm": warm["misses"],
            "experiments.cache.bytes": cold["bytes"],
            "experiments.artifacts_s": tracer.total("experiments.artifacts.cold"),
        }
        return {
            name: metric(values[name], unit) for name, unit in per_layer_names().items()
        }
