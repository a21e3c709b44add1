"""Simulative solution of SAN models.

The paper solves its models with UltraSAN's *simulative* solvers because the
activity-time distributions are not exponential (§5).  This module provides
the equivalent: a terminating (transient) simulation repeated over many
independent replications, reporting the mean of each reward variable with a
Student-t confidence interval, and optionally running until a relative
precision target is met.

Replications run lock-step in batches through
:class:`~repro.san.batched.BatchedSANExecutor`, the only production
executor; :meth:`SimulativeSolver.run_replication` is a batch of one.

Determinism contract
--------------------
Every replication is a pure function of ``(seed, replication index)``:
replication seeds come from the solver's seed derivation, and all
randomness inside a replication flows through *named* random streams,
whose draw order is fixed by the model structure.  The batched executor
keeps that per-replication stream/draw order at any batch size, so each
replication is bit-identical to a run of the
:class:`~repro.san.executor.SANExecutor` test oracle -- batch size and
``jobs`` change throughput, never results.  Observers attached through
the reward-variable protocol (including the opt-in activity trace) must
not draw from any stream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

from repro.san import execution
from repro.san.batched import BatchedSANExecutor, MarkingPredicate
from repro.san.compiled import DURATION_GENERIC, compile_model
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.rewards import RewardVariable
from repro.stats.cdf import EmpiricalCDF
from repro.stats.descriptive import ConfidenceInterval, confidence_interval

ModelFactory = Callable[[], SANModel]
RewardFactory = Callable[[], Sequence[RewardVariable]]

#: Cell budget of :func:`auto_batch_size`.  The lock-step executor's
#: per-round working set is roughly ``batch x (places + activities)``
#: matrix cells (the token matrix, enablement masks and pre-drawn
#: duration columns); sizing batches to this budget (~1 MiB of int64
#: cells) keeps that working set cache-resident without starving the
#: vectorised rounds of rows.
AUTO_BATCH_CELL_BUDGET = 131_072

#: Bounds of :func:`auto_batch_size`: below the floor the vectorised
#: bookkeeping stops amortising, above the ceiling per-row divergence
#: (finished rows idling in the lock-step batch) dominates.
MIN_AUTO_BATCH_SIZE = 32
MAX_AUTO_BATCH_SIZE = 1_024


def auto_batch_size(model: SANModel) -> int:
    """Replications per lock-step batch, from the compiled model's size.

    This is the resolution of ``batch_size="auto"``: a pure function of
    the model *structure* (places x activities, duration-kind mix), so
    the chosen size -- like any explicit size -- never changes results,
    only throughput.  Small models get wide batches (more rows amortise
    each vectorised round), large models get narrower ones (each row
    already carries many matrix cells per round).  Models dominated by
    generic-duration activities are halved: their draws happen per
    completion on the scalar path rather than in pre-drawn batch
    columns, so extra rows amortise less there.
    """
    compiled = compile_model(model)
    cells = (
        compiled.n_places + len(compiled.timed) + len(compiled.instantaneous)
    )
    size = AUTO_BATCH_CELL_BUDGET // max(1, cells)
    timed = compiled.timed
    generic = sum(
        1 for activity in timed if activity.duration_kind == DURATION_GENERIC
    )
    if timed and 2 * generic >= len(timed):
        size //= 2
    return max(MIN_AUTO_BATCH_SIZE, min(MAX_AUTO_BATCH_SIZE, size))


@dataclass(frozen=True)
class ActivityCompletion:
    """One activity completion of a traced replication."""

    time: float
    activity: str


class _ActivityTraceRecorder(RewardVariable):
    """Reward-variable observer recording every activity completion.

    Riding the executor's reward-notification protocol keeps tracing out
    of the execution hot path entirely: the recorder draws nothing and
    observes the same completion stream on any executor, so attaching it
    cannot perturb results.
    """

    name = "_activity_trace"

    def __init__(self) -> None:
        self.completions: List[ActivityCompletion] = []

    def on_activity_completion(
        self, activity_name: str, marking: Marking, time: float
    ) -> None:
        self.completions.append(ActivityCompletion(time=time, activity=activity_name))

    def value(self) -> float:
        return float(len(self.completions))


@dataclass
class ReplicationResult:
    """Reward values observed in a single replication.

    ``trace`` is ``None`` unless the solver was built with
    ``collect_traces=True``, in which case it lists every activity
    completion of the replication in completion order.
    """

    replication: int
    end_time: float
    stopped_by_predicate: bool
    rewards: Dict[str, float]
    trace: Optional[List[ActivityCompletion]] = None


@dataclass
class SolverResult:
    """Aggregate result of a simulative solution.

    Attributes
    ----------
    replications:
        Per-replication reward observations, in replication order.
    confidence:
        Confidence level of the reported intervals.
    target_reward:
        The reward the relative-precision loop targeted, if one ran.
    precision_achieved:
        ``True``/``False`` once a precision loop ran (``None`` for plain
        fixed-count solutions).  ``False`` means the loop gave up: either
        ``max_replications`` was reached or the target reward's mean was
        (still) zero, making *relative* precision undefined -- see
        :attr:`precision_note`.
    precision_note:
        Human-readable reason when ``precision_achieved`` is ``False``.
    """

    replications: List[ReplicationResult] = field(default_factory=list)
    confidence: float = 0.90
    target_reward: Optional[str] = None
    precision_achieved: Optional[bool] = None
    precision_note: Optional[str] = None

    def values(self, reward_name: str) -> List[float]:
        """All finite values of the named reward across replications."""
        values = [
            rep.rewards[reward_name]
            for rep in self.replications
            if reward_name in rep.rewards and not math.isnan(rep.rewards[reward_name])
        ]
        return values

    def sample_size(self, reward_name: str) -> int:
        """Number of NaN-filtered observations backing the named reward.

        This is the ``n`` the means and intervals are computed from; it can
        be smaller than :attr:`n` when some replications never produced the
        reward (e.g. undecided consensus executions).
        """
        return len(self.values(reward_name))

    def nan_count(self, reward_name: str) -> int:
        """Number of replications whose named reward was NaN (filtered out)."""
        return sum(
            1
            for rep in self.replications
            if reward_name in rep.rewards and math.isnan(rep.rewards[reward_name])
        )

    def mean(self, reward_name: str) -> float:
        """Mean of the named reward."""
        values = self.values(reward_name)
        if not values:
            return math.nan
        return sum(values) / len(values)

    def interval(self, reward_name: str) -> ConfidenceInterval:
        """Confidence interval of the named reward's mean."""
        return confidence_interval(self.values(reward_name), self.confidence)

    def cdf(self, reward_name: str) -> EmpiricalCDF:
        """Empirical CDF of the named reward across replications."""
        return EmpiricalCDF(self.values(reward_name))

    @property
    def n(self) -> int:
        """Number of replications run."""
        return len(self.replications)


class SimulativeSolver:
    """Terminating simulation of a SAN over independent replications.

    Parameters
    ----------
    model_factory:
        Callable building a fresh model for each lock-step batch; the rows
        of one batch share it.  (Models are cheap to build and rebuilding
        avoids any state leakage between batches; a prebuilt model may
        also be passed via a lambda if it is genuinely stateless.  A model
        with stateful gate closures is only safe at ``batch_size=1``.)
    reward_factory:
        Callable building fresh reward variables for each replication.
    stop_predicate:
        Marking predicate that terminates a replication (e.g. "a process has
        decided").
    max_time:
        Time horizon per replication (safety bound for runs in which the
        predicate never becomes true).
    seed:
        Master seed; replication *i* uses an independent stream derived from
        it, so results are reproducible and replications are independent.
    confidence:
        Confidence level for the reported intervals (paper: 0.90).
    reuse_model:
        Build the model once (per process) and execute every replication
        against the same instance instead of calling ``model_factory`` per
        batch.  The executor never mutates the model (it copies the
        initial marking and keeps all run state on itself), so this is
        bit-identical for any factory whose models are *stateless*: no
        mutable state captured in gate closures or marking-dependent
        distributions.  Every builder in :mod:`repro.sanmodels` qualifies,
        and for the generated consensus models the build is a large share
        of a replication's cost.  Leave ``False`` for factories with
        stateful gates.  The cached model never crosses process boundaries
        (it is dropped on pickling), so ``jobs > 1`` still works with
        factories whose *models* are unpicklable.
    collect_traces:
        Record every activity completion of every replication on
        :attr:`ReplicationResult.trace`.  Tracing observes the reward
        notification stream only -- it consumes no randomness -- so the
        reward values stay bit-identical with tracing on or off.  The
        recorder rides each batch row's observers, so traced solves stay
        batched.
    """

    def __init__(
        self,
        model_factory: ModelFactory,
        reward_factory: RewardFactory,
        stop_predicate: Optional[MarkingPredicate] = None,
        max_time: float = 1_000.0,
        seed: Optional[int] = 0,
        confidence: float = 0.90,
        initial_marking_factory: Optional[Callable[[SANModel], Marking]] = None,
        reuse_model: bool = False,
        collect_traces: bool = False,
    ) -> None:
        self.model_factory = model_factory
        self.reward_factory = reward_factory
        self.stop_predicate = stop_predicate
        self.max_time = max_time
        self.seed = seed if seed is not None else 0
        self.confidence = confidence
        self.initial_marking_factory = initial_marking_factory
        self.reuse_model = reuse_model
        self.collect_traces = collect_traces
        self._cached_model: Optional[SANModel] = None

    def __getstate__(self) -> Dict[str, Any]:
        # The cached model may hold unpicklable gate closures; workers
        # rebuild (and re-cache) their own copy from the factory.
        state = self.__dict__.copy()
        state["_cached_model"] = None
        return state

    # ------------------------------------------------------------------
    def _model(self) -> SANModel:
        """A model for the next replication (cached when ``reuse_model``)."""
        if not self.reuse_model:
            return self.model_factory()
        if self._cached_model is None:
            self._cached_model = self.model_factory()
        return self._cached_model

    def run_replication(self, index: int) -> ReplicationResult:
        """Run a single replication with its own derived seed (a batch of one)."""
        return self.run_batch([index])[0]

    def solve(
        self,
        replications: int = 100,
        target_reward: Optional[str] = None,
        relative_precision: Optional[float] = None,
        min_replications: int = 20,
        max_replications: int = 10_000,
        jobs: Optional[int] = 1,
        precision_batch: int = 10,
        batch_size: Optional[Union[int, str]] = None,
    ) -> SolverResult:
        """Run replications and aggregate the rewards.

        Parameters
        ----------
        replications:
            Number of replications when no precision target is given.
        target_reward, relative_precision:
            If both are given, keep running (between ``min_replications`` and
            ``max_replications``) until the confidence-interval half-width of
            ``target_reward`` is below ``relative_precision`` times its mean.
            A target reward whose mean is zero (no finite, nonzero
            observations) makes *relative* precision undefined; the loop
            then stops with a warning and ``precision_achieved=False``
            instead of silently running to ``max_replications``.
        jobs:
            Worker processes (``1`` = in-process serial, ``0``/``None`` =
            one per CPU).  Replication ``i`` always runs with the same
            derived seed and results are aggregated in replication order,
            so any ``jobs`` value produces bit-identical results -- the
            same determinism contract as the experiment sweep engine this
            is built on (:mod:`repro.experiments.runner`).  ``jobs > 1``
            requires the model/reward factories to be picklable
            (module-level functions or methods of picklable objects).
        precision_batch:
            Replications per precision-loop chunk.  The stopping rule is
            evaluated at chunk boundaries only, so the replication count is
            a function of the seed and this value, never of ``jobs``.
        batch_size:
            Replications per lock-step batch: a positive count or
            ``"auto"`` for the compiled-model-size heuristic
            (:func:`auto_batch_size`).  ``None`` (default) defers to the
            process execution policy (:mod:`repro.san.execution`: the
            ``REPRO_SAN_BATCH_SIZE`` environment variable, else
            ``"auto"``).  Like ``jobs``, the value never changes results.
        """
        if replications < 0:
            raise ValueError(f"replications must be >= 0, got {replications}")
        resolved = execution.resolve_batch_size(batch_size)
        # Resolve the heuristic once per solve (not per precision-loop
        # chunk): it compiles a model to measure the structure.
        size = (
            auto_batch_size(self._model())
            if resolved == execution.AUTO_BATCH_SIZE
            else int(resolved)
        )
        result = SolverResult(confidence=self.confidence)
        if target_reward is None or relative_precision is None:
            result.replications.extend(
                self._run_indices(range(replications), jobs, size)
            )
            return result

        if precision_batch < 1:
            raise ValueError(f"precision_batch must be >= 1, got {precision_batch}")
        result.target_reward = target_reward
        result.precision_achieved = False
        pool = self._make_pool(jobs)
        try:
            index = 0
            while index < max_replications:
                if index < min_replications:
                    chunk = min_replications - index
                else:
                    chunk = precision_batch
                chunk = min(chunk, max_replications - index)
                result.replications.extend(
                    self._run_indices(
                        range(index, index + chunk), jobs, size, pool=pool
                    )
                )
                index += chunk
                if index < min_replications:
                    continue
                values = result.values(target_reward)
                if len(values) < 2:
                    continue
                interval = confidence_interval(values, self.confidence)
                if interval.mean == 0:
                    # Relative precision is undefined for a zero mean; more
                    # replications cannot fix that, so stop instead of
                    # silently burning the whole max_replications budget.
                    result.precision_note = (
                        f"reward {target_reward!r} has zero mean after {index} "
                        "replications; relative precision is undefined"
                    )
                    warnings.warn(result.precision_note, stacklevel=2)
                    break
                if interval.half_width / abs(interval.mean) <= relative_precision:
                    result.precision_achieved = True
                    break
            else:
                result.precision_note = (
                    f"precision target not reached within {max_replications} "
                    "replications"
                )
        finally:
            if pool is not None:
                pool.shutdown()
        return result

    # ------------------------------------------------------------------
    def _make_pool(self, jobs: Optional[int]) -> Optional[ProcessPoolExecutor]:
        """One executor for a whole precision loop (``None`` when serial).

        The loop executes many small chunks; paying a process-pool startup
        per chunk would dwarf the replications themselves, so the pool is
        created once here and lent to every :func:`iter_plan` call.
        """
        if jobs == 1:
            return None
        from concurrent.futures import ProcessPoolExecutor

        from repro.experiments.runner import resolve_jobs

        resolved = resolve_jobs(jobs)
        if resolved == 1:
            return None
        return ProcessPoolExecutor(max_workers=resolved)

    def _run_indices(
        self,
        indices: Iterable[int],
        jobs: Optional[int],
        batch_size: int,
        pool: Optional[ProcessPoolExecutor] = None,
    ) -> List[ReplicationResult]:
        """Run replication indices in lock-step batches of ``batch_size``.

        Each batch is one :meth:`run_batch` call; the serial path runs the
        batches in-process.  The parallel path rides on the experiment
        sweep engine (:class:`~repro.experiments.runner.ReplicationPlan`):
        each batch is one sweep point, and workers get whole *groups* of
        consecutive batches per submission (amortising submission overhead
        while keeping cache and timing bookkeeping batch-granular).
        Results are aggregated in replication order either way, and the
        per-replication seeds never depend on the path, so neither
        ``jobs`` nor the batch size changes results.
        """
        indices = list(indices)
        batches = [
            tuple(indices[start : start + batch_size])
            for start in range(0, len(indices), batch_size)
        ]
        if pool is None and (jobs == 1 or len(batches) <= 1):
            return [
                result for batch in batches for result in self.run_batch(batch)
            ]
        # Imported lazily: repro.experiments pulls in modules that themselves
        # import this one.
        from repro.experiments.runner import (
            ReplicationPlan,
            SweepPoint,
            iter_plan,
            resolve_jobs,
        )

        points = tuple(
            SweepPoint.make(
                _batch_job,
                kwargs={"solver": self, "indices": batch},
                indices=(batch[0],),
                label=f"replications {batch[0]}..{batch[-1]}",
            )
            for batch in batches
        )
        plan = ReplicationPlan(
            settings=_ReplicationSeeds(self.seed), points=points, name="san-solver"
        )
        # Two groups per worker: each submission carries several batches
        # (one pickled solver + one result message per group instead of
        # per batch) while still leaving the pool slack to balance load.
        # Grouping only changes the submission envelope -- per-replication
        # seeds are fixed and results stream in plan order regardless.
        group_size = max(
            1, math.ceil(len(batches) / (2 * resolve_jobs(jobs)))
        )
        return [
            result
            for _point, batch_results in iter_plan(
                plan, jobs=jobs, pool=pool, group_size=group_size
            )
            for result in batch_results
        ]

    def run_batch(self, indices: Sequence[int]) -> List[ReplicationResult]:
        """Run the given replications as one lock-step batch.

        Every replication keeps its own derived seed, named streams and
        reward variables, so each entry of the returned list is
        bit-identical to :meth:`run_replication` of the same index -- and
        to the :class:`~repro.san.executor.SANExecutor` oracle.  Under
        ``collect_traces=True`` each row also carries an activity trace
        recorder, so the entries come with their traces.
        """
        indices = list(indices)
        model = self._model()
        rewards_rows = [list(self.reward_factory()) for _ in indices]
        recorders = [
            _ActivityTraceRecorder() if self.collect_traces else None
            for _ in indices
        ]
        observers_rows: List[List[RewardVariable]] = [
            rewards if recorder is None else [*rewards, recorder]
            for rewards, recorder in zip(rewards_rows, recorders, strict=True)
        ]
        initial_markings = None
        if self.initial_marking_factory is not None:
            initial_markings = [
                self.initial_marking_factory(model) for _ in indices
            ]
        executor = BatchedSANExecutor.for_batch(
            model,
            [self._replication_seed(index) for index in indices],
            observers_rows,
            initial_markings=initial_markings,
        )
        outcomes = executor.run_batch(
            until=self.max_time, stop_predicate=self.stop_predicate
        )
        return [
            ReplicationResult(
                replication=index,
                end_time=outcome.end_time,
                stopped_by_predicate=outcome.stopped_by_predicate,
                rewards={reward.name: reward.value() for reward in rewards},
                trace=recorder.completions if recorder is not None else None,
            )
            for index, outcome, rewards, recorder in zip(
                indices, outcomes, rewards_rows, recorders, strict=True
            )
        ]

    def _replication_seed(self, index: int) -> int:
        return _ReplicationSeeds(self.seed).point_seed(index)


@dataclass(frozen=True)
class _ReplicationSeeds:
    """Seed derivation of :class:`SimulativeSolver` replications.

    The single definition of the derivation, satisfying the sweep engine's
    settings interface (``point_seed``); both the serial and the pooled
    path use it, so a replication's seed is a pure function of
    (master seed, replication index) whatever the ``jobs`` value.
    """

    seed: int

    def point_seed(self, *indices: int) -> int:
        (index,) = indices
        return (self.seed * 1_000_003 + index * 7_919 + 1) % (2**63)


def _batch_job(
    solver: SimulativeSolver, indices: Sequence[int], point_seed: int
) -> List[ReplicationResult]:
    """Run one lock-step batch in a worker process (module-level, picklable).

    ``point_seed`` is the first replication's seed, provided by the sweep
    engine's settings interface; :meth:`SimulativeSolver.run_batch`
    re-derives every row's seed from the same :class:`_ReplicationSeeds`
    definition, so it is deliberately unused here.
    """
    del point_seed
    return solver.run_batch(indices)
