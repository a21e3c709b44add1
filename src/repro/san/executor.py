"""The reference SAN executor: a deliberately simple test oracle.

:class:`SANExecutor` turns a :class:`~repro.san.model.SANModel` into one
trajectory the plain way: it tracks the current marking, keeps enabled
timed activities scheduled on a :class:`~repro.des.simulator.Simulator`,
fires instantaneous activities as soon as they are enabled and notifies
reward variables of every completion.  Production solving runs through
:class:`~repro.san.batched.BatchedSANExecutor`; this executor exists to
pin it down.  The golden-trace, property and benchmark suites hold the
batched executor to it replication for replication, so it keeps none of
the batched executor's machinery:

* after every completion it re-evaluates **every** activity (no
  dependency index);
* it draws one duration per call, straight from the activity's named
  stream (no pre-drawn batches);
* it runs on the DES calendar (no completion-time matrix).

Execution semantics
-------------------
* An activity is *enabled* when all its input arcs are satisfied and all its
  input-gate predicates hold.
* Enabled **instantaneous** activities fire immediately, before any timed
  activity; among several enabled ones the one with the lowest ``rank``
  (then definition order) fires first, and enabling is re-evaluated after
  each firing.
* An enabled **timed** activity samples a duration when it becomes enabled
  and completes after that duration, unless it is disabled in the meantime:
  then the sampled completion is discarded and a fresh duration is sampled
  the next time the activity becomes enabled (reactivation).
* A replication ends when a stop predicate over the marking becomes true,
  when no activity is enabled (dead marking), or when the time horizon is
  reached.

Walk order
----------
Timed activities are re-evaluated in a fixed order, because the order in
which newly enabled activities are scheduled assigns their calendar
sequence numbers, which break same-instant completion ties (equal
constant durations).  At start-up the order is declaration order.  After
a completion it is: activities with a gate that declares no watched
places, then the readers of each changed place with the places walked in
name order, then the completed activity, then everything else.  Every
draw comes from a stream named after its activity
(``san.duration.<activity>`` / ``san.case.<activity>``), so the draws
are a pure function of the seed and this order.  The batched executor
follows the same contract, which makes the two bit-identical per
replication.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.des.event import Event, EventState
from repro.des.simulator import Simulator
from repro.san.activities import Activity, TimedActivity
from repro.san.batched import (
    MAX_INSTANTANEOUS_CHAIN,
    ExecutionResult,
    MarkingPredicate,
    SANExecutionError,
)
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.rewards import RewardVariable
from repro.san.solver import (
    ReplicationResult,
    SimulativeSolver,
    _ActivityTraceRecorder,
)

__all__ = [
    "ExecutionResult",
    "SANExecutionError",
    "SANExecutor",
    "run_replication",
]


def _read_places(activity: Activity) -> Set[str]:
    """Places an activity's enablement depends on (arcs and watched places)."""
    places = {place for place, _ in activity.input_arcs}
    for gate in activity.input_gates:
        places.update(gate.watched_places)
    return places


class SANExecutor:
    """Executes one replication of a SAN model by full re-evaluation.

    Parameters
    ----------
    model:
        The model to execute.  It is validated on construction.
    sim:
        The simulator supplying the clock, the event queue and the random
        streams.  A fresh simulator per replication gives independent runs.
    rewards:
        Reward variables to observe the execution.
    initial_marking:
        Overrides the model's declared initial marking (useful for running
        the same structure from different initial states, e.g. the crash
        scenarios of Table 1).
    """

    def __init__(
        self,
        model: SANModel,
        sim: Simulator,
        rewards: Sequence[RewardVariable] = (),
        initial_marking: Optional[Marking] = None,
    ) -> None:
        model.validate()
        self.model = model
        self.sim = sim
        self.rewards = list(rewards)
        self.marking = (
            initial_marking.copy() if initial_marking is not None
            else model.initial_marking()
        )
        self._timed = model.timed_activities
        # ``sorted`` is stable: rank ties keep definition order.
        self._instantaneous = sorted(
            model.instantaneous_activities, key=lambda activity: activity.rank
        )
        self._reads = {
            activity.name: _read_places(activity) for activity in self._timed
        }
        self._unwatched = {
            activity.name
            for activity in self._timed
            if any(not gate.watched_places for gate in activity.input_gates)
        }
        self._scheduled: Dict[str, Event] = {}
        self._completions = 0
        self._stop_predicate: Optional[MarkingPredicate] = None
        self._stopped_by_predicate = False

    def run(
        self,
        until: Optional[float] = None,
        stop_predicate: Optional[MarkingPredicate] = None,
    ) -> ExecutionResult:
        """Run one replication.

        Parameters
        ----------
        until:
            Optional time horizon.
        stop_predicate:
            Optional predicate over the marking; the replication stops as
            soon as it holds after a completion (or holds initially).
        """
        self._stop_predicate = stop_predicate
        self._stopped_by_predicate = False
        self.marking.consume_changes()
        for reward in self.rewards:
            reward.reset(self.marking, self.sim.now)

        # Initial stabilisation: fire instantaneous activities, then check
        # the stop predicate, then activate timed activities.
        if stop_predicate is not None and stop_predicate(self.marking):
            self._stopped_by_predicate = True
        else:
            self._fire_instantaneous_chain()
            if not self._stopped_by_predicate:
                self._refresh_timed(self._timed)
                self.sim.run(until=until)

        end_time = self.sim.now
        for reward in self.rewards:
            reward.finalize(self.marking, end_time)
        dead = not self._stopped_by_predicate and not self.scheduled_activity_names()
        return ExecutionResult(
            end_time=end_time,
            stopped_by_predicate=self._stopped_by_predicate,
            dead_marking=dead,
            completions=self._completions,
            final_marking=self.marking.copy(),
        )

    @property
    def completions(self) -> int:
        """Number of activity completions so far (timed + instantaneous)."""
        return self._completions

    def scheduled_activity_names(self) -> Set[str]:
        """Names of the timed activities currently scheduled to complete."""
        return {
            name
            for name, event in self._scheduled.items()
            if event.state is EventState.PENDING
        }

    # ------------------------------------------------------------------
    def _refresh_order(
        self, completed: TimedActivity, changed: Set[str]
    ) -> List[TimedActivity]:
        """Every timed activity, in the post-completion walk order."""
        place_rank = {place: rank for rank, place in enumerate(sorted(changed))}

        def key(entry: Tuple[int, TimedActivity]) -> Tuple[int, int, int]:
            position, activity = entry
            if activity.name in self._unwatched:
                return (0, 0, position)
            ranks = [
                place_rank[place]
                for place in self._reads[activity.name]
                if place in place_rank
            ]
            if ranks:
                return (1, min(ranks), position)
            if activity is completed:
                return (2, 0, 0)
            return (3, 0, position)

        return [activity for _, activity in sorted(enumerate(self._timed), key=key)]

    def _refresh_timed(self, activities: Iterable[TimedActivity]) -> None:
        """Schedule newly enabled activities and cancel disabled ones."""
        marking = self.marking
        for activity in activities:
            name = activity.name
            event = self._scheduled.get(name)
            scheduled = event is not None and event.state is EventState.PENDING
            enabled = activity.enabled(marking)
            if enabled and not scheduled:
                rng = self.sim.random.stream(f"san.duration.{name}")
                self._scheduled[name] = self.sim.schedule(
                    activity.sample_duration(marking, rng),
                    self._complete_timed,
                    activity,
                )
            elif not enabled and event is not None and scheduled:
                event.cancel()
                del self._scheduled[name]

    def _complete_timed(self, activity: TimedActivity) -> None:
        self._scheduled.pop(activity.name, None)
        if not activity.enabled(self.marking):
            # Defensive: disabling should have cancelled the event.
            raise SANExecutionError(
                f"timed activity {activity.name!r} fired while disabled"
            )
        changed = self._complete(activity)
        if not self._stopped_by_predicate:
            changed |= self._fire_instantaneous_chain()
        if self._stopped_by_predicate:
            self.sim.stop()
            return
        self._refresh_timed(self._refresh_order(activity, changed))

    def _fire_instantaneous_chain(self) -> Set[str]:
        """Fire enabled instantaneous activities until none remains enabled.

        Each round rescans the rank-sorted list and fires the first enabled
        activity.  Returns the union of the chain's marking changes.
        """
        changed: Set[str] = set()
        for _ in range(MAX_INSTANTANEOUS_CHAIN):
            fired = next(
                (
                    activity
                    for activity in self._instantaneous
                    if activity.enabled(self.marking)
                ),
                None,
            )
            if fired is None:
                return changed
            changed |= self._complete(fired)
            if self._stopped_by_predicate:
                return changed
        raise SANExecutionError(
            f"model {self.model.name!r}: more than {MAX_INSTANTANEOUS_CHAIN} "
            "consecutive instantaneous firings -- unstable (vanishing) loop?"
        )

    def _complete(self, activity: Activity) -> Set[str]:
        """Apply one completion; returns the names of the changed places."""
        marking = self.marking
        rng = self.sim.random.stream(f"san.case.{activity.name}")
        activity.complete(marking, activity.choose_case(marking, rng))
        changed = marking.consume_changes()
        self._completions += 1
        now = self.sim.now
        for reward in self.rewards:
            reward.on_activity_completion(activity.name, marking, now)
            reward.on_marking_change(marking, now)
        if self._stop_predicate is not None and self._stop_predicate(marking):
            self._stopped_by_predicate = True
        return changed


def run_replication(solver: SimulativeSolver, index: int) -> ReplicationResult:
    """Replication ``index`` of ``solver``'s configuration, run by the oracle.

    Uses the solver's model, rewards, initial marking, stop predicate,
    horizon, derived seed and trace setting, so the result must equal
    ``solver.run_replication(index)`` exactly.
    """
    model = solver._model()
    rewards = list(solver.reward_factory())
    recorder = _ActivityTraceRecorder() if solver.collect_traces else None
    observers: List[RewardVariable] = list(rewards)
    if recorder is not None:
        observers.append(recorder)
    initial = (
        solver.initial_marking_factory(model)
        if solver.initial_marking_factory is not None
        else None
    )
    executor = SANExecutor(
        model,
        Simulator(seed=solver._replication_seed(index)),
        observers,
        initial_marking=initial,
    )
    outcome = executor.run(until=solver.max_time, stop_predicate=solver.stop_predicate)
    return ReplicationResult(
        replication=index,
        end_time=outcome.end_time,
        stopped_by_predicate=outcome.stopped_by_predicate,
        rewards={reward.name: reward.value() for reward in rewards},
        trace=recorder.completions if recorder is not None else None,
    )
