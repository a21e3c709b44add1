"""Declarative experiment registry: experiments as data, not copy-paste.

Every figure and table of the paper used to be a hand-rolled
``run_*``/``format_*`` pair hard-wired into the CLI.  This module turns
each one into an :class:`ExperimentSpec` -- name, description, sweep
construction, aggregation and renderers -- that **self-registers** on
import, so the CLI (and any downstream tool) discovers experiments
dynamically instead of naming them in code:

* :class:`ExperimentSpec` -- the declarative description of one
  experiment.  Plan-shaped experiments supply ``build_plan`` +
  ``aggregate``; composite experiments (which chain sub-experiments, e.g.
  the Figure 7(b) calibration) supply ``run`` instead.
* :class:`ExperimentContext` -- the shared execution context: resolved
  settings, worker count, result cache and the per-point timing trail that
  feeds run manifests.  This is the single code path replacing the
  per-module jobs/cache boilerplate.
* :class:`ExperimentOptions` -- CLI-level options (scale, seed, jobs,
  cache dir, SAN executor batch size) with the one shared
  validation/resolution routine.
* :func:`run_experiment` -- execute a spec and return the result *plus*
  its :class:`~repro.experiments.artifacts.RunManifest`.
* :func:`register` / :func:`get` / :func:`names` / :func:`iter_specs` /
  :func:`discover` -- the registry itself.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import time
from dataclasses import asdict, dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.experiments.artifacts import (
    PointTiming,
    RunManifest,
    Table,
    artifact_payload,
    json_safe,
    utc_timestamp,
)
from repro.experiments.runner import (
    ReplicationPlan,
    ResultCache,
    SweepPoint,
    iter_plan,
)
from repro.experiments.settings import ExperimentSettings
from repro.san import execution

__all__ = [
    "Aggregate",
    "ExperimentContext",
    "ExperimentOptions",
    "ExperimentRun",
    "ExperimentSpec",
    "discover",
    "get",
    "iter_specs",
    "names",
    "register",
    "run_experiment",
]

T = TypeVar("T")

#: Streaming aggregation: consume ``(point, result)`` pairs in plan order
#: and build the experiment's result object.
Aggregate = Callable[[ExperimentSettings, Iterable[Tuple[SweepPoint, Any]]], Any]


# ----------------------------------------------------------------------
# Execution context
# ----------------------------------------------------------------------
@dataclass
class ExperimentContext:
    """Everything an experiment needs at run time, resolved exactly once.

    The context owns the settings, the worker count, the (optional) result
    cache and the timing trail.  Experiment implementations run their plans
    through :meth:`iter` and wrap ad-hoc stages in :meth:`record`, so every
    unit of work lands in the manifest without per-module plumbing.
    """

    settings: ExperimentSettings
    jobs: Optional[int] = 1
    cache: Optional[ResultCache] = None
    timings: List[PointTiming] = field(default_factory=list)

    @staticmethod
    def create(
        settings: Optional[ExperimentSettings] = None,
        jobs: Optional[int] = 1,
        cache_dir: Optional[str] = None,
    ) -> "ExperimentContext":
        """Build a context, defaulting settings from the environment."""
        return ExperimentContext(
            settings=settings or ExperimentSettings.from_environment(),
            jobs=jobs,
            cache=ResultCache(cache_dir) if cache_dir else None,
        )

    # ------------------------------------------------------------------
    def iter(self, plan: ReplicationPlan) -> Iterator[Tuple[SweepPoint, Any]]:
        """Execute a plan with this context's jobs/cache, recording timings."""
        return iter_plan(
            plan, jobs=self.jobs, cache=self.cache, timing_hook=self._record_point
        )

    def record(self, label: str, step: Callable[[], T]) -> T:
        """Run an ad-hoc (non-plan) stage, timing it into the manifest."""
        started = time.perf_counter()  # repro: ignore[DET004] elapsed-time metadata only; never feeds simulation state or results
        result = step()
        self.timings.append(
            PointTiming(label=label, indices=(), seconds=time.perf_counter() - started)  # repro: ignore[DET004] elapsed-time metadata only; never feeds simulation state or results
        )
        return result

    def _record_point(self, point: SweepPoint, seconds: float, cached: bool) -> None:
        self.timings.append(
            PointTiming(
                label=point.label, indices=point.indices, seconds=seconds, cached=cached
            )
        )


# ----------------------------------------------------------------------
# Experiment specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSpec:
    """The declarative description of one experiment.

    Attributes
    ----------
    name:
        The CLI subcommand and artifact-directory name.
    description:
        One line naming the paper element the experiment regenerates.
    render_text:
        Result -> the paper-faithful textual report.
    to_record:
        Result -> the JSON-able ``data`` object of the artifact envelope.
    build_plan / aggregate:
        The sweep construction and streaming aggregation of a plan-shaped
        experiment (the common case).
    run:
        Full custom execution for composite experiments that chain
        sub-experiments or ad-hoc measurement stages; overrides
        ``build_plan``/``aggregate`` when set.
    to_rows:
        Optional result -> ``(header, rows)`` tabular series; experiments
        providing it additionally emit CSV artifacts.
    scales:
        The scale names the experiment supports; empty (the default) means
        every scale.  :func:`run_experiment` rejects runs at an unsupported
        scale.
    """

    name: str
    description: str
    render_text: Callable[[Any], str]
    to_record: Callable[[Any], Dict[str, Any]]
    build_plan: Optional[Callable[[ExperimentSettings], ReplicationPlan]] = None
    aggregate: Optional[Aggregate] = None
    run: Optional[Callable[[ExperimentContext], Any]] = None
    to_rows: Optional[Callable[[Any], Table]] = None
    scales: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.run is None and (self.build_plan is None or self.aggregate is None):
            raise ValueError(
                f"experiment {self.name!r} must define either run= or both "
                "build_plan= and aggregate="
            )

    # ------------------------------------------------------------------
    def build_points(self, settings: ExperimentSettings) -> List[SweepPoint]:
        """The sweep points this experiment would execute under ``settings``.

        Composite experiments (``run=`` without ``build_plan=``) construct
        their plans mid-run from intermediate results, so they report no
        points up front.
        """
        if self.build_plan is None:
            return []
        return list(self.build_plan(settings).points)

    def execute(self, context: ExperimentContext) -> Any:
        """Run the experiment in ``context`` and return its result object."""
        if self.run is not None:
            return self.run(context)
        assert self.build_plan is not None and self.aggregate is not None
        plan = self.build_plan(context.settings)
        return self.aggregate(context.settings, context.iter(plan))


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register a spec under its name (idempotent for the same object).

    Returns the spec so modules can write ``SPEC = register(ExperimentSpec(...))``.
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing is not spec:
        raise ValueError(f"experiment {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


_DISCOVERED = False


def discover() -> None:
    """Import every module of :mod:`repro.experiments` so specs self-register.

    Idempotent and memoised: the registry cannot change mid-process, so
    only the first call pays for the package scan.
    """
    global _DISCOVERED
    if _DISCOVERED:
        return
    import repro.experiments as package

    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("_"):
            importlib.import_module(f"repro.experiments.{info.name}")
    _DISCOVERED = True


def names() -> List[str]:
    """All registered experiment names, sorted (after discovery)."""
    discover()
    return sorted(_REGISTRY)


def iter_specs() -> List[ExperimentSpec]:
    """All registered specs, sorted by name (after discovery)."""
    discover()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get(name: str) -> ExperimentSpec:
    """Look an experiment up by name (after discovery)."""
    discover()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


# ----------------------------------------------------------------------
# Options and execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentOptions:
    """Scale/seed/jobs/cache/executor options with one shared validation path.

    Both the CLI and library callers resolve through here, so the
    ``--jobs``/``--cache-dir``/``--batch-size`` checks (and their error
    wording) exist in exactly one place.

    ``batch_size`` sets the SAN solver's lock-step batch size for every
    simulative point of the run by activating the process execution
    policy (:mod:`repro.san.execution`) when the context is built.  It
    never changes results -- every replication is bit-identical at any
    batch size -- and is therefore deliberately absent from settings
    hashes and result-cache keys: changing it reuses the cache.
    """

    scale: Optional[str] = None
    seed: Optional[int] = None
    jobs: Optional[int] = 1
    cache_dir: Optional[str] = None
    batch_size: Optional[Any] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on invalid options."""
        if self.jobs is not None and self.jobs < 0:
            raise ValueError(
                "--jobs must be a positive integer, or 0 for one worker per CPU; "
                f"got {self.jobs}"
            )
        if (
            self.cache_dir is not None
            and os.path.exists(self.cache_dir)
            and not os.path.isdir(self.cache_dir)
        ):
            raise ValueError(
                f"--cache-dir {self.cache_dir!r} exists and is not a directory"
            )
        if self.batch_size is not None:
            execution.parse_batch_size(self.batch_size, source="--batch-size")

    def resolve_settings(self) -> ExperimentSettings:
        """The settings selected by ``scale`` (or the environment) and ``seed``."""
        if self.scale is not None:
            settings = ExperimentSettings.from_scale(self.scale)
        else:
            settings = ExperimentSettings.from_environment()
        if self.seed is not None:
            settings = replace(settings, seed=self.seed)
        return settings

    def context(
        self, settings: Optional[ExperimentSettings] = None
    ) -> ExperimentContext:
        """Validate and build the execution context.

        A set ``batch_size`` is activated as the process execution policy
        (unset, it leaves any environment-level policy alone), so every SAN
        solver call of the run -- including those inside pooled worker
        processes, which inherit the policy's environment transport --
        resolves to it.
        """
        self.validate()
        if self.batch_size is not None:
            execution.activate(
                execution.ExecutionPolicy(batch_size=self.batch_size)
            )
        return ExperimentContext.create(
            settings or self.resolve_settings(), jobs=self.jobs, cache_dir=self.cache_dir
        )


@dataclass
class ExperimentRun:
    """One executed experiment: its result object plus run provenance."""

    spec: ExperimentSpec
    result: Any
    manifest: RunManifest

    def text(self) -> str:
        """The paper-faithful textual report."""
        return self.spec.render_text(self.result)

    def payload(self) -> Dict[str, Any]:
        """The schema-valid JSON artifact envelope (manifest included)."""
        return artifact_payload(
            self.spec.name,
            self.spec.description,
            self.spec.to_record(self.result),
            self.manifest,
        )

    def table(self) -> Optional[Table]:
        """The tabular series, if the experiment defines one."""
        if self.spec.to_rows is None:
            return None
        return self.spec.to_rows(self.result)


def run_experiment(
    spec: ExperimentSpec,
    options: Optional[ExperimentOptions] = None,
    settings: Optional[ExperimentSettings] = None,
) -> ExperimentRun:
    """Execute one spec and assemble its run manifest.

    ``settings`` overrides the scale/seed resolution of ``options`` (used
    by callers that already hold a settings object); the manifest's scale
    is then derived from the settings themselves, so provenance never
    reflects an ``options.scale`` the run did not actually use.
    """
    from repro import __version__

    options = options or ExperimentOptions()
    if settings is None:
        settings = options.resolve_settings()
        scale = options.scale or settings.scale_name()
    else:
        scale = settings.scale_name()
    if spec.scales and scale not in spec.scales:
        raise ValueError(
            f"experiment {spec.name!r} does not support scale {scale!r} "
            f"(supported: {list(spec.scales)})"
        )
    context = options.context(settings)
    started_at = utc_timestamp()
    started = time.perf_counter()  # repro: ignore[DET004] elapsed-time metadata only; never feeds simulation state or results
    result = spec.execute(context)
    wall_clock = time.perf_counter() - started  # repro: ignore[DET004] elapsed-time metadata only; never feeds simulation state or results
    manifest = RunManifest(
        experiment=spec.name,
        scale=scale,
        seed=settings.seed,
        jobs=options.jobs,
        settings_hash=settings.settings_hash(),
        settings=json_safe(asdict(settings)),
        started_at=started_at,
        wall_clock_seconds=wall_clock,
        points=tuple(context.timings),
        version=__version__,
    )
    return ExperimentRun(spec=spec, result=result, manifest=manifest)
