"""Parallel replication/sweep engine for the experiment generators.

Every figure and table of the paper is produced from a *grid of independent
simulation points*: one (cluster size, scenario, timeout, ...) combination
simulated with its own seed.  The per-figure modules used to iterate those
grids serially; this module factors the iteration into a reusable engine:

* :class:`SweepPoint` -- one independent point: a picklable module-level
  function, its keyword arguments, and the seed-derivation indices;
* :class:`ReplicationPlan` -- an ordered grid of points plus the
  :class:`~repro.experiments.settings.ExperimentSettings` they share;
* :func:`iter_plan` / :func:`execute_plan` -- run a plan either serially
  (``jobs=1``, in-process, no pool) or on a
  :class:`concurrent.futures.ProcessPoolExecutor`, streaming results back
  *in plan order* so that aggregation is deterministic and independent of
  worker scheduling;
* :class:`ResultCache` -- optional on-disk memoisation keyed by
  (code fingerprint, point function, arguments, derived seed, settings),
  so re-rendering a figure after a crash or with a different ``--jobs``
  value is free, and editing the code that computes a result invalidates
  it (:func:`code_fingerprint`).  The experiment registry stores whole
  experiment results in the same cache, on top of the point entries.

Every stage of every registered experiment runs as a plan through
:func:`iter_plan` (composite experiments build one-point plans for their
intermediate stages), so the cache and the per-point timing hook cover all
the work an experiment does: a warm re-run computes nothing, and a re-run
after a failed point resumes from the points that finished.

Determinism contract
--------------------
A point's seed is ``settings.point_seed(*point.indices)``: it depends only
on the point's identity, never on its position in the plan or on the number
of workers.  Results are yielded in plan order regardless of completion
order.  Together these guarantee that ``jobs=1`` and ``jobs=N`` produce
bit-for-bit identical aggregates (covered by
``tests/test_experiments_runner.py``).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import pickle
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "SeedSettings",
    "SweepPoint",
    "ReplicationPlan",
    "ResultCache",
    "TimingHook",
    "code_fingerprint",
    "iter_plan",
    "execute_plan",
    "resolve_jobs",
    "source_fingerprint",
]


@runtime_checkable
class SeedSettings(Protocol):
    """What a plan's ``settings`` object must provide.

    :class:`~repro.experiments.settings.ExperimentSettings` is the usual
    implementation; the SAN solver (:mod:`repro.san.solver`) supplies its
    own so that its replications ride on the same engine.  The object must
    be picklable (it travels to worker processes inside point kwargs) and
    should be hashable/stable so cache keys are meaningful.
    """

    def point_seed(self, *indices: int) -> int:
        """A deterministic seed for the point identified by ``indices``."""
        ...


#: Source files of the package, relative to its directory, that cannot
#: change a computed result: the CLI, the artifact writer, the determinism
#: linter and the benchmark-baseline tool only present or check results
#: computed elsewhere.  An entry ending in ``/`` names a whole subpackage.
PRESENTATION_ONLY = (
    "__main__.py",
    "analysis/",
    "benchmarking.py",
    "cli.py",
    "experiments/artifacts.py",
)


def source_fingerprint(package_dir: str) -> str:
    """SHA-256 over a package tree's result-bearing source, plus the numpy version.

    Covers every ``*.py`` file under ``package_dir`` except
    :data:`PRESENTATION_ONLY`, in sorted relative-path order, each hashed
    with its path.  numpy enters because its version can change the last
    bits of a random draw or a linear solve.
    """
    import numpy

    sources = []
    for root, dirs, files in os.walk(package_dir):
        dirs[:] = [name for name in dirs if name != "__pycache__"]
        for name in files:
            if name.endswith(".py"):
                path = os.path.relpath(os.path.join(root, name), package_dir)
                sources.append(path.replace(os.sep, "/"))
    digest = hashlib.sha256()
    for path in sorted(sources):
        if any(
            path == entry or (entry.endswith("/") and path.startswith(entry))
            for entry in PRESENTATION_ONLY
        ):
            continue
        with open(os.path.join(package_dir, path), "rb") as handle:
            source = handle.read()
        for part in (path.encode(), source):
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
    digest.update(numpy.__version__.encode())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """:func:`source_fingerprint` of the imported ``repro`` package, once per process.

    Every cache key includes it, so editing any result-bearing module (or
    changing numpy) makes every earlier entry a miss, with no version
    number to bump by hand.
    """
    import repro

    return source_fingerprint(os.path.dirname(os.path.abspath(repro.__file__)))


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation point of a sweep.

    Attributes
    ----------
    func:
        A *module-level* callable (so that it can be pickled for the process
        pool).  It is invoked as ``func(**kwargs, **{seed_arg: seed})``.
    kwargs:
        Keyword arguments as a sorted tuple of ``(name, value)`` pairs; the
        values must be picklable.  Use :meth:`make` to build points from a
        plain ``dict``.
    indices:
        The seed-derivation path: the point's seed is
        ``settings.point_seed(*indices)``.  Indices identify the point, not
        its position in the plan, so reordering or filtering a plan never
        changes any point's seed.
    label:
        Human-readable label used in logs and cache file names.
    seed_arg:
        Name of the keyword argument receiving the derived seed, or ``None``
        for point functions that do not take a seed.
    """

    func: Callable[..., Any]
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    indices: Tuple[int, ...] = ()
    label: str = ""
    seed_arg: Optional[str] = "point_seed"

    @staticmethod
    def make(
        func: Callable[..., Any],
        kwargs: Optional[Dict[str, Any]] = None,
        indices: Iterable[int] = (),
        label: str = "",
        seed_arg: Optional[str] = "point_seed",
    ) -> "SweepPoint":
        """Build a point from a plain keyword dictionary."""
        items = tuple(sorted((kwargs or {}).items(), key=lambda item: item[0]))
        return SweepPoint(
            func=func,
            kwargs=items,
            indices=tuple(int(i) for i in indices),
            label=label,
            seed_arg=seed_arg,
        )

    # ------------------------------------------------------------------
    def seed(self, settings: SeedSettings) -> int:
        """The deterministic seed of this point under ``settings``."""
        return settings.point_seed(*self.indices)

    def call_kwargs(self, settings: SeedSettings) -> Dict[str, Any]:
        """The full keyword arguments, including the derived seed."""
        kwargs = dict(self.kwargs)
        if self.seed_arg is not None:
            kwargs[self.seed_arg] = self.seed(settings)
        return kwargs


@dataclass(frozen=True)
class ReplicationPlan:
    """An ordered grid of independent points sharing one settings object."""

    settings: SeedSettings
    points: Tuple[SweepPoint, ...]
    name: str = "sweep"

    def __post_init__(self) -> None:
        seen: Dict[Tuple[int, ...], str] = {}
        for point in self.points:
            previous = seen.get(point.indices)
            if previous is not None:
                raise ValueError(
                    f"duplicate seed indices {point.indices} in plan {self.name!r} "
                    f"({previous!r} vs {point.label!r}); points sharing indices "
                    "would share a seed and be statistically dependent"
                )
            seen[point.indices] = point.label

    def __len__(self) -> int:
        return len(self.points)

    def seeds(self) -> List[int]:
        """The derived seed of every point, in plan order."""
        return [point.seed(self.settings) for point in self.points]


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------
class _PlanSettings:
    """Stands in a cache key for a point argument that is the plan's settings."""


class ResultCache:
    """Pickle-based memoisation of point and experiment results.

    A point key hashes the :func:`code_fingerprint`, the point function's
    qualified name, its full call arguments (including the derived seed)
    and a digest of the settings object, so a cached entry is only ever
    reused for an exactly identical point computed by the same code.  An
    experiment key (:meth:`experiment_key`) hashes the fingerprint, the
    experiment's name and the settings digest.  Writes are atomic (write
    to a temporary file, then ``os.replace``) so that a killed run never
    leaves a truncated entry behind.

    Entries live in :attr:`directory`, the subdirectory of ``root`` named
    after the first 16 hex digits of the fingerprint, so each code
    version's entries sit together and an outdated version's can be
    removed with one ``rm -r``.  Nothing is removed automatically: another
    checkout may share ``root``.
    """

    def __init__(self, root: str) -> None:
        self.directory = os.path.join(root, code_fingerprint()[:16])
        os.makedirs(self.directory, exist_ok=True)

    # ------------------------------------------------------------------
    @staticmethod
    def settings_digest(settings: SeedSettings) -> bytes:
        """SHA-256 of the pickled settings object.

        :meth:`plan_keys` computes it once per plan and passes it to
        :meth:`key`, so the settings (nested cluster configuration
        included) are pickled once per plan rather than once per point.
        """
        payload = pickle.dumps(settings, protocol=pickle.HIGHEST_PROTOCOL)
        return hashlib.sha256(payload).digest()

    @staticmethod
    def key(
        point: SweepPoint,
        settings: SeedSettings,
        settings_digest: Optional[bytes] = None,
    ) -> str:
        """Hex digest identifying (code, point, seed, settings).

        ``settings`` enters through ``settings_digest`` (computed here when
        not given); a keyword argument that *is* the settings object enters
        as a marker, since the digest already covers its content.
        """
        if settings_digest is None:
            settings_digest = ResultCache.settings_digest(settings)
        kwargs = sorted(
            (name, _PlanSettings if value is settings else value)
            for name, value in point.call_kwargs(settings).items()
        )
        identity = (
            code_fingerprint(),
            point.func.__module__,
            point.func.__qualname__,
            tuple(kwargs),
            settings_digest,
        )
        payload = pickle.dumps(identity, protocol=pickle.HIGHEST_PROTOCOL)
        return hashlib.sha256(payload).hexdigest()

    @staticmethod
    def plan_keys(plan: ReplicationPlan) -> List[str]:
        """The key of every point of ``plan``, in plan order."""
        digest = ResultCache.settings_digest(plan.settings)
        return [ResultCache.key(point, plan.settings, digest) for point in plan.points]

    @staticmethod
    def experiment_key(name: str, settings: SeedSettings) -> str:
        """Hex digest identifying (code, experiment ``name``, settings)."""
        identity = (
            "experiment",
            code_fingerprint(),
            name,
            ResultCache.settings_digest(settings),
        )
        payload = pickle.dumps(identity, protocol=pickle.HIGHEST_PROTOCOL)
        return hashlib.sha256(payload).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    # ------------------------------------------------------------------
    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)``; unreadable or corrupt entries count as misses.

        Any failure to load counts as a miss -- unpickling executes class
        lookups, so a stale entry can raise nearly anything (including
        ``ImportError`` after a module rename); recomputing the point is
        always a safe answer.
        """
        try:
            with open(self._path(key), "rb") as handle:
                return True, pickle.load(handle)
        except Exception:
            return False, None

    def has(self, key: str) -> bool:
        """Whether an entry is stored under ``key`` (one ``stat``, no load)."""
        return os.path.isfile(self._path(key))

    def put(self, key: str, value: Any) -> None:
        """Store one point result atomically."""
        final_path = self._path(key)
        fd, temp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, final_path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means one per CPU."""
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError(
            f"jobs must be a positive integer, or 0/None for one worker per CPU; got {jobs}"
        )
    return jobs


#: The simulation stacks, which experiment modules import inside their
#: point functions.  A sweep that forks workers imports them first, so
#: every worker inherits them instead of importing them again inside its
#: first point (each plan forks fresh workers).
FORK_PRELOAD = ("repro.core.measurement", "repro.core.simulation")

#: Per-point timing callback: ``hook(point, seconds, cached)``.  ``seconds``
#: is the point function's own wall-clock (measured inside the worker for
#: pooled execution, so it excludes queueing); cache hits report 0.0 with
#: ``cached=True``.
TimingHook = Callable[[SweepPoint, float, bool], None]


def _execute_payload(
    payload: Tuple[Callable[..., Any], Dict[str, Any]],
) -> Tuple[float, Any]:
    """Run one point in a worker process (module-level, hence picklable).

    Returns ``(seconds, result)`` so the parent can report per-point wall
    clock without a second round-trip to the worker.
    """
    func, kwargs = payload
    started = time.perf_counter()  # repro: ignore[DET004] elapsed-time metadata only; never feeds simulation state or results
    result = func(**kwargs)
    return time.perf_counter() - started, result  # repro: ignore[DET004] elapsed-time metadata only; never feeds simulation state or results


class _RemoteTraceback(Exception):
    """A pooled point's worker-side traceback, chained as its error's cause."""

    def __str__(self) -> str:
        return str(self.args[0])


class _PointFailure:
    """The outcome of a pooled point that raised: its error and traceback text."""

    def __init__(self, error: Exception, traceback_text: str) -> None:
        self.error = error
        self.traceback_text = traceback_text

    def error_with_cause(self) -> Exception:
        """The point's own exception, with the worker traceback as its cause."""
        self.error.__cause__ = _RemoteTraceback(self.traceback_text)
        return self.error


def _execute_group_payload(
    payloads: List[Tuple[Callable[..., Any], Dict[str, Any]]],
) -> List[Any]:
    """Run several points in one worker submission (module-level, picklable).

    One pickled submission and one result message cover the whole group,
    but each point's wall clock is still measured individually inside the
    worker -- grouping changes the submission envelope only, never the
    per-point timing (or caching) bookkeeping.  Each point reports its own
    outcome -- ``(seconds, result)`` or a :class:`_PointFailure` -- so one
    that raises costs the group none of its other results.
    """
    outcomes: List[Any] = []
    for payload in payloads:
        try:
            outcomes.append(_execute_payload(payload))
        except Exception as error:
            outcomes.append(_PointFailure(error, traceback.format_exc()))
    return outcomes


def _note_failing_point(
    error: BaseException, plan: ReplicationPlan, point: SweepPoint
) -> None:
    """Name the failing point on ``error`` (``add_note`` is Python >= 3.11)."""
    if not hasattr(error, "add_note"):
        return
    seed = point.seed(plan.settings) if point.seed_arg is not None else None
    error.add_note(
        f"while running point {point.label!r} of plan {plan.name!r} "
        f"(indices {point.indices}, seed {seed})"
    )


def iter_plan(
    plan: ReplicationPlan,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    pool: Optional[ProcessPoolExecutor] = None,
    timing_hook: Optional[TimingHook] = None,
    group_size: int = 1,
    keys: Optional[Sequence[str]] = None,
) -> Iterator[Tuple[SweepPoint, Any]]:
    """Execute a plan, yielding ``(point, result)`` pairs *in plan order*.

    ``jobs=1`` runs every point in-process with no executor (the serial
    fallback -- also the path taken on single-CPU machines); ``jobs>1``
    submits all points to a :class:`ProcessPoolExecutor` up front and then
    yields results in plan order as they complete, so aggregation can
    stream without ever observing scheduler-dependent ordering.

    ``pool`` lends an existing executor instead of creating one per call
    (the caller keeps ownership and shuts it down) -- used by callers that
    execute many small plans in a loop, e.g. the SAN solver's
    relative-precision chunks, where a per-chunk pool startup would cost
    more than the chunk itself.

    ``timing_hook`` receives ``(point, seconds, cached)`` per point as its
    result is yielded; the artifact layer uses it to record per-point wall
    clock in run manifests.  Timings never influence results or caching.

    ``group_size`` bundles that many consecutive uncached points into one
    pool submission (the SAN solver ships several lock-step batches per
    worker this way).  Grouping amortises pickling and result transport;
    it never affects the serial path, point seeds, cache keys, per-point
    timings, or the plan-order yield -- ``group_size=N`` is bit-identical
    to ``group_size=1``.

    ``keys`` passes the plan's cache keys (:meth:`ResultCache.plan_keys`)
    when the caller already computed them; without it they are computed
    here, once, when a cache is given.

    A point that raises propagates its original exception, with a note
    naming the plan, point, indices and seed where ``add_note`` exists.
    With a cache, every other point that finished successfully is written
    to it first -- on the pooled path that includes points after the
    failing one, in its own group or later ones -- so a re-run with the
    same cache resumes.
    """
    jobs = resolve_jobs(jobs)
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    point_keys: Sequence[str] = ()
    cached: Dict[int, Any] = {}
    if cache is not None:
        point_keys = ResultCache.plan_keys(plan) if keys is None else keys
        for index, key in enumerate(point_keys):
            hit, value = cache.get(key)
            if hit:
                cached[index] = value

    def finish(
        index: int, point: SweepPoint, seconds: float, result: Any
    ) -> Tuple[SweepPoint, Any]:
        if cache is not None and index not in cached:
            cache.put(point_keys[index], result)
        if timing_hook is not None:
            timing_hook(point, seconds, False)
        return point, result

    def finish_cached(point: SweepPoint, value: Any) -> Tuple[SweepPoint, Any]:
        if timing_hook is not None:
            timing_hook(point, 0.0, True)
        return point, value

    if pool is None and (jobs == 1 or len(plan.points) - len(cached) <= 1):
        for index, point in enumerate(plan.points):
            if index in cached:
                yield finish_cached(point, cached[index])
                continue
            started = time.perf_counter()  # repro: ignore[DET004] elapsed-time metadata only; never feeds simulation state or results
            try:
                result = point.func(**point.call_kwargs(plan.settings))
            except Exception as error:
                _note_failing_point(error, plan, point)
                raise
            yield finish(index, point, time.perf_counter() - started, result)  # repro: ignore[DET004] elapsed-time metadata only; never feeds simulation state or results
        return

    pending = [
        index for index in range(len(plan.points)) if index not in cached
    ]
    groups = [
        pending[start : start + group_size]
        for start in range(0, len(pending), group_size)
    ]
    owned = pool is None
    if owned:
        from concurrent.futures import ProcessPoolExecutor

        # scipy and the simulation stacks load on first use; importing
        # them before the workers fork lets every worker inherit them.
        from repro.san.analytic import load_numerics

        for name in FORK_PRELOAD:
            importlib.import_module(name)
        load_numerics()
        pool = ProcessPoolExecutor(max_workers=min(jobs, max(1, len(groups))))
    try:
        # index -> (group future, offset of this point's result in it).
        futures: Dict[int, Tuple[Any, int]] = {}
        for group in groups:
            future = pool.submit(
                _execute_group_payload,
                [
                    (
                        plan.points[index].func,
                        plan.points[index].call_kwargs(plan.settings),
                    )
                    for index in group
                ],
            )
            for offset, index in enumerate(group):
                futures[index] = (future, offset)
        for index, point in enumerate(plan.points):
            if index in cached:
                yield finish_cached(point, cached[index])
            else:
                future, offset = futures[index]
                try:
                    outcome = future.result()[offset]
                    if isinstance(outcome, _PointFailure):
                        raise outcome.error_with_cause()
                except Exception as error:
                    if cache is not None:
                        # Wait for the points still running and keep every
                        # one that succeeded, so a re-run resumes.
                        for later in pending:
                            later_future, later_offset = futures[later]
                            if later <= index or later_future.exception() is not None:
                                continue
                            later_outcome = later_future.result()[later_offset]
                            if not isinstance(later_outcome, _PointFailure):
                                cache.put(point_keys[later], later_outcome[1])
                    _note_failing_point(error, plan, point)
                    raise
                seconds, result = outcome
                yield finish(index, point, seconds, result)
    finally:
        if owned:
            pool.shutdown()


def execute_plan(
    plan: ReplicationPlan,
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
    group_size: int = 1,
) -> List[Any]:
    """Execute a plan and return the point results in plan order."""
    cache = ResultCache(cache_dir) if cache_dir else None
    return [
        result
        for _point, result in iter_plan(
            plan, jobs=jobs, cache=cache, group_size=group_size
        )
    ]
