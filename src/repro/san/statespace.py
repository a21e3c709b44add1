"""Reachability-graph state-space generation for Markovian SAN models.

The paper had to solve its models simulatively because the activity-time
distributions are not exponential (§5).  For the *exponential corner* of
the model space, however, a SAN is a continuous-time Markov chain and can
be solved exactly.  This module explores the reachable markings of a model
whose timed activities are all exponential and assembles the CTMC generator
matrix, which :mod:`repro.san.analytic` then solves numerically.

Semantics
---------
The generator reproduces the executor's semantics exactly
(:mod:`repro.san.executor`):

* A marking in which an instantaneous activity is enabled is *vanishing*:
  it is eliminated on the fly.  Among several enabled instantaneous
  activities the one with the lowest ``rank`` (then definition order)
  fires first -- the executor's deterministic tie-break -- and its
  probabilistic cases branch the elimination.
* A *tangible* marking (no instantaneous activity enabled) is a CTMC
  state.  Every enabled timed activity must carry an
  :class:`~repro.stats.distributions.Exponential` distribution
  (marking-dependent distributions are evaluated on the enabling marking);
  anything else raises :class:`NonMarkovianModelError`.  Case
  probabilities are evaluated on the marking at completion time, exactly
  as :meth:`~repro.san.activities.Activity.choose_case` does.
* Reactivation policies are irrelevant for *fixed* exponential
  distributions: memorylessness makes discarding and resampling a clock
  at the same rate a no-op.  For **marking-dependent** exponential rates
  the CTMC semantics used here (the rate tracks the current state
  immediately) can differ from the executor, which keeps a sampled clock
  while the activity stays enabled and only resamples on
  disable/re-enable -- the standard analytic SAN interpretation, but a
  caveat when cross-validating marking-dependent-rate models.
* A marking satisfying the ``stop_predicate`` is absorbing (the executor
  stops the replication there), as is a dead marking.  The predicate is
  checked after every completion -- including the instantaneous firings
  inside an elimination chain -- mirroring the executor.

The state key is the hashable :class:`~repro.san.marking.FrozenMarking`;
markings that agree on every nonzero place are the same state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.san.activities import Activity, Case, TimedActivity
from repro.san.marking import FrozenMarking, Marking
from repro.san.model import SANModel
from repro.stats.distributions import Exponential

if TYPE_CHECKING:  # pragma: no cover - typing only; scipy loads in generator()
    from scipy import sparse

MarkingPredicate = Callable[[Marking], bool]

#: Safety bound on the number of firings inside one vanishing-elimination
#: chain, to catch unstable (vanishing-loop) models.
MAX_VANISHING_FIRINGS = 100_000

#: Case probabilities smaller than this are treated as impossible branches.
PROBABILITY_EPSILON = 1e-15


class StateSpaceError(RuntimeError):
    """Raised when state-space generation fails."""


class NonMarkovianModelError(StateSpaceError):
    """Raised when a timed activity's distribution is not exponential."""


@dataclass(frozen=True)
class Transition:
    """One aggregated CTMC transition ``source -> target`` at ``rate``.

    ``completions`` maps activity names to the expected number of
    completions (timed firing plus any instantaneous firings of the
    elimination chain) incurred when this transition is taken; it backs the
    impulse rewards (:class:`~repro.san.rewards.ActivityCounter`).
    """

    source: int
    target: int
    rate: float
    completions: Tuple[Tuple[str, float], ...] = ()


@dataclass
class StateSpace:
    """The reachability graph of a Markovian SAN.

    Attributes
    ----------
    states:
        The tangible (and absorbing) markings, indexed by state number.
    initial_distribution:
        Probability of starting in each state (the initial marking may be
        vanishing, in which case its elimination chain branches).
    transitions:
        Aggregated transitions between states.
    absorbing:
        Boolean mask of absorbing states (stop-predicate states and dead
        markings).
    stop_mask:
        Boolean mask of the states satisfying the stop predicate (a subset
        of the absorbing states; empty when no predicate was given).
    initial_completions:
        Expected instantaneous completions fired while stabilising the
        *initial* marking (probability-weighted, by activity name).  The
        executor notifies reward variables of those firings too, so impulse
        rewards must include them.
    """

    model_name: str
    states: List[FrozenMarking]
    initial_distribution: np.ndarray
    transitions: List[Transition]
    absorbing: np.ndarray
    stop_mask: np.ndarray
    initial_completions: Dict[str, float] = field(default_factory=dict)
    _index: Dict[FrozenMarking, int] = field(default_factory=dict, repr=False)
    _generator: Optional[sparse.csr_matrix] = field(default=None, repr=False)
    _markings: Optional[List[Marking]] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of states in the reachability graph."""
        return len(self.states)

    def index_of(self, marking: FrozenMarking | Marking) -> int:
        """The state number of a marking, raising ``KeyError`` if unreachable."""
        key = marking.freeze() if isinstance(marking, Marking) else marking
        return self._index[key]

    def markings(self) -> List[Marking]:
        """Thawed (mutable) markings of every state, cached.

        Rate rewards and gate predicates are written against
        :class:`~repro.san.marking.Marking`, so analytic reward evaluation
        thaws each state once and reuses the copies.
        """
        if self._markings is None:
            self._markings = [state.thaw() for state in self.states]
        return self._markings

    def generator(self) -> sparse.csr_matrix:
        """The CTMC generator matrix Q (rows sum to zero), cached."""
        if self._generator is None:
            from scipy import sparse

            n = self.n_states
            rows, cols, rates = [], [], []
            diagonal = np.zeros(n)
            for transition in self.transitions:
                rows.append(transition.source)
                cols.append(transition.target)
                rates.append(transition.rate)
                diagonal[transition.source] -= transition.rate
            rows.extend(range(n))
            cols.extend(range(n))
            rates.extend(diagonal)
            self._generator = sparse.csr_matrix(
                (rates, (rows, cols)), shape=(n, n), dtype=float
            )
        return self._generator

    def exit_rates(self) -> np.ndarray:
        """Total outgoing rate of each state (zero for absorbing states)."""
        return -np.asarray(self.generator().diagonal()).ravel()

    def completion_rate_matrix(
        self, activity_names: Optional[frozenset[str]] = None
    ) -> np.ndarray:
        """Expected completions per unit time in each state.

        ``activity_names=None`` counts every activity (timed completions
        plus the instantaneous firings charged to each transition), which
        is the analytic counterpart of
        :class:`~repro.san.rewards.ActivityCounter` with no filter.
        """
        rates = np.zeros(self.n_states)
        for transition in self.transitions:
            for name, count in transition.completions:
                if activity_names is None or name in activity_names:
                    rates[transition.source] += transition.rate * count
        return rates

    def summary(self) -> str:
        """A short human-readable description of the graph's size."""
        return (
            f"StateSpace of {self.model_name!r}: {self.n_states} states, "
            f"{len(self.transitions)} transitions, "
            f"{int(self.absorbing.sum())} absorbing"
        )

    def __repr__(self) -> str:
        return self.summary()


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def _marking_dependent(distribution: object) -> bool:
    """``True`` for a callable mapping the marking to a distribution."""
    return callable(distribution) and not hasattr(distribution, "sample")


def _exponential_rate(activity: TimedActivity, marking: Marking) -> float:
    """The exponential rate of ``activity`` in ``marking`` (or raise)."""
    dist = activity.distribution
    if _marking_dependent(dist):
        dist = dist(marking)  # type: ignore[operator]
    if not isinstance(dist, Exponential):
        raise NonMarkovianModelError(
            f"timed activity {activity.name!r} has a "
            f"{type(dist).__name__} distribution; the analytic solver "
            "requires every timed activity to be Exponential -- use the "
            "simulative solver for non-Markovian models"
        )
    return dist.rate


def _case_distribution(
    activity: Activity, marking: Marking
) -> List[Tuple[Case, float]]:
    """The normalised case probabilities of ``activity`` in ``marking``."""
    weights = [case.weight(marking) for case in activity.cases]
    if any(weight < 0 for weight in weights):
        raise StateSpaceError(
            f"activity {activity.name!r}: negative case probability"
        )
    total = float(sum(weights))
    if total <= 0:
        raise StateSpaceError(
            f"activity {activity.name!r}: case probabilities sum to zero"
        )
    return [
        (case, weight / total)
        for case, weight in zip(activity.cases, weights, strict=True)
        if weight / total > PROBABILITY_EPSILON
    ]


class _ActivityTable:
    """Enabling tables of one kind of activity, in scan order.

    Prepared once per :func:`generate_state_space` call, never cached
    across calls.  Bit ``i`` of a candidate mask stands for
    ``activities[i]``.  Arc weights are >= 1, so an activity with input
    arcs is enabled only if its *key* place holds a token -- of its arc
    places, the one the fewest input arcs of the model read, so that key
    places are rarely marked.  :meth:`enabled` therefore ORs the key-place
    masks of the marking's marked places (arc-less activities are always
    candidates) and checks only those candidates in full, lowest bit
    first: the activities, and the order, a full linear scan would find.
    """

    __slots__ = (
        "activities",
        "arcs",
        "predicates",
        "always",
        "by_place",
        "rates",
        "cases",
    )

    def __init__(
        self, activities: Sequence[Activity], arc_readers: Dict[str, int]
    ) -> None:
        self.activities = tuple(activities)
        self.arcs = tuple(activity.input_arcs for activity in activities)
        self.predicates = tuple(
            tuple(gate.predicate for gate in activity.input_gates)
            for activity in activities
        )
        always = 0
        by_place: Dict[str, int] = {}
        for position, activity in enumerate(activities):
            if not activity.input_arcs:
                always |= 1 << position
                continue
            key = min(activity.input_arcs, key=lambda arc: arc_readers[arc[0]])[0]
            by_place[key] = by_place.get(key, 0) | 1 << position
        self.always = always
        self.by_place = by_place
        #: Marking-independent rates and case distributions, memoised on
        #: first use (errors still surface where a full scan raises them).
        self.rates: List[Optional[float]] = [None] * len(activities)
        self.cases: List[Optional[List[Tuple[Case, float]]]] = [None] * len(
            activities
        )

    def enabled(self, marking: Marking) -> Iterator[int]:
        """Positions of the activities enabled in ``marking``, in order."""
        tokens = marking._tokens
        get = tokens.get
        by_place = self.by_place
        bits = self.always
        for place, count in tokens.items():  # repro: ignore[DET001] order-free bitmask OR: any iteration order sets the same candidate bits
            if count:
                bits |= by_place.get(place, 0)
        arcs = self.arcs
        predicates = self.predicates
        while bits:
            low = bits & -bits
            bits ^= low
            position = low.bit_length() - 1
            enabled = True
            for place, weight in arcs[position]:
                if get(place, 0) < weight:
                    enabled = False
                    break
            if enabled:
                for predicate in predicates[position]:
                    if not predicate(marking):
                        enabled = False
                        break
            if enabled:
                yield position

    def rate(self, position: int, marking: Marking) -> float:
        """:func:`_exponential_rate` of activity ``position``."""
        rate = self.rates[position]
        if rate is None:
            activity = self.activities[position]
            assert isinstance(activity, TimedActivity)
            rate = _exponential_rate(activity, marking)
            if not _marking_dependent(activity.distribution):
                self.rates[position] = rate
        return rate

    def case_distribution(
        self, position: int, marking: Marking
    ) -> List[Tuple[Case, float]]:
        """:func:`_case_distribution` of activity ``position``."""
        cases = self.cases[position]
        if cases is None:
            activity = self.activities[position]
            cases = _case_distribution(activity, marking)
            if not any(callable(case.probability) for case in activity.cases):
                self.cases[position] = cases
        return cases


def _stabilize(
    marking: Marking,
    instantaneous: _ActivityTable,
    stop_predicate: Optional[MarkingPredicate],
) -> List[Tuple[float, Marking, Dict[str, float]]]:
    """Eliminate vanishing markings starting from ``marking``.

    Returns the distribution over terminal markings as ``(probability,
    marking, fired)`` triples, where ``fired`` counts the instantaneous
    completions along the path.  A terminal marking is tangible (no
    instantaneous activity enabled) or satisfies the stop predicate.
    """
    if stop_predicate is not None and stop_predicate(marking):
        return [(1.0, marking, {})]
    pending: List[Tuple[float, Marking, Dict[str, float]]] = [(1.0, marking, {})]
    terminal: List[Tuple[float, Marking, Dict[str, float]]] = []
    firings = 0
    activities = instantaneous.activities
    while pending:
        probability, current, fired = pending.pop()
        # The lowest-rank enabled activity fires.
        position = next(instantaneous.enabled(current), None)
        if position is None:
            terminal.append((probability, current, fired))
            continue
        firings += 1
        if firings > MAX_VANISHING_FIRINGS:
            raise StateSpaceError(
                f"more than {MAX_VANISHING_FIRINGS} instantaneous firings "
                "while eliminating a vanishing marking -- unstable "
                "(vanishing) loop?"
            )
        activity = activities[position]
        name = activity.name
        cases = instantaneous.case_distribution(position, current)
        for case, case_probability in cases:
            branch = current.copy() if len(cases) > 1 else current
            activity.complete(branch, case)
            branch_fired = dict(fired)
            branch_fired[name] = branch_fired.get(name, 0.0) + 1.0
            branch_probability = probability * case_probability
            if stop_predicate is not None and stop_predicate(branch):
                terminal.append((branch_probability, branch, branch_fired))
            else:
                pending.append((branch_probability, branch, branch_fired))
    return terminal


def generate_state_space(
    model: SANModel,
    stop_predicate: Optional[MarkingPredicate] = None,
    initial_marking: Optional[Marking] = None,
    max_states: int = 200_000,
) -> StateSpace:
    """Explore the reachable markings of a Markovian SAN.

    Parameters
    ----------
    model:
        The model; it is validated, and every timed activity reachable
        during the exploration must have an exponential distribution.
    stop_predicate:
        Optional predicate over the marking; satisfying states are
        absorbing (the simulative executor stops there).
    initial_marking:
        Overrides the model's declared initial marking.
    max_states:
        Safety bound on the state count (raises
        :class:`StateSpaceError` beyond it).

    Exploration is breadth-first from the stabilised initial marking;
    states are numbered in discovery order, and each source's timed
    activities are scanned in declaration order, each instantaneous
    elimination step picking the lowest-rank enabled activity.  Both
    scans run on per-activity arc and gate tables (:class:`_ActivityTable`)
    prepared once per call -- never cached across calls -- and check only
    the candidates a per-place bitmask of the marking admits, lowest bit
    first.  The candidates are a superset of the enabled activities in
    scan order, so the states, their numbering, the transitions and the
    order of every float accumulation are those of a full linear scan.
    """
    model.validate()
    arc_readers: Dict[str, int] = {}
    for activity in model.activities:
        for place, _weight in activity.input_arcs:
            arc_readers[place] = arc_readers.get(place, 0) + 1
    instantaneous = _ActivityTable(
        sorted(model.instantaneous_activities, key=lambda activity: activity.rank),
        arc_readers,
    )
    timed = _ActivityTable(model.timed_activities, arc_readers)

    start = (
        initial_marking.copy() if initial_marking is not None
        else model.initial_marking()
    )

    states: List[FrozenMarking] = []
    index: Dict[FrozenMarking, int] = {}
    initial_probability: Dict[int, float] = {}
    stop_flags: List[bool] = []
    frontier: List[int] = []

    def intern_state(marking: Marking, stopped: bool) -> int:
        key = marking.freeze()
        state = index.get(key)
        if state is None:
            state = len(states)
            if state >= max_states:
                raise StateSpaceError(
                    f"model {model.name!r}: state space exceeds "
                    f"max_states={max_states}"
                )
            states.append(key)
            index[key] = state
            stop_flags.append(stopped)
            if not stopped:
                frontier.append(state)
        return state

    initial_completions: Dict[str, float] = {}
    for probability, terminal, fired in _stabilize(
        start, instantaneous, stop_predicate
    ):
        stopped = stop_predicate is not None and stop_predicate(terminal)
        state = intern_state(terminal, stopped)
        initial_probability[state] = (
            initial_probability.get(state, 0.0) + probability
        )
        # sorted() so the accumulator's key order never depends on the
        # firing-dict's mutation history (each key accumulates
        # independently, so sorting cannot change any value).
        for name, count in sorted(fired.items()):
            initial_completions[name] = (
                initial_completions.get(name, 0.0) + count * probability
            )

    transitions: List[Transition] = []
    cursor = 0
    while cursor < len(frontier):
        source = frontier[cursor]
        cursor += 1
        source_marking = states[source].thaw()
        # Aggregate parallel edges: target -> [rate, completions].
        edges: Dict[int, Tuple[float, Dict[str, float]]] = {}
        for position in timed.enabled(source_marking):
            activity = timed.activities[position]
            name = activity.name
            rate = timed.rate(position, source_marking)
            for case, case_probability in timed.case_distribution(
                position, source_marking
            ):
                after = source_marking.copy()
                activity.complete(after, case)
                branch_rate = rate * case_probability
                for probability, terminal, fired in _stabilize(
                    after, instantaneous, stop_predicate
                ):
                    stopped = (
                        stop_predicate is not None and stop_predicate(terminal)
                    )
                    target = intern_state(terminal, stopped)
                    edge_rate = branch_rate * probability
                    total_rate, completions = edges.get(target, (0.0, {}))
                    # Completions are per-transition expectations, so each
                    # contribution is weighted by its share of the edge.
                    completions[name] = completions.get(name, 0.0) + edge_rate
                    # sorted() for the same per-key-independence reason as
                    # the initial-completions accumulation above.
                    for fired_name, count in sorted(fired.items()):
                        completions[fired_name] = (
                            completions.get(fired_name, 0.0) + count * edge_rate
                        )
                    edges[target] = (total_rate + edge_rate, completions)
        for target, (rate, completions) in edges.items():  # repro: ignore[DET001] keyed by interned state id; insertion order is the deterministic discovery order, and sorting would reorder downstream float accumulation
            transitions.append(
                Transition(
                    source=source,
                    target=target,
                    rate=rate,
                    # Normalise the rate-weighted counts into expected
                    # completions per transition.
                    completions=tuple(
                        sorted(
                            (name, weighted / rate)
                            for name, weighted in completions.items()
                        )
                    ),
                )
            )

    n = len(states)
    initial = np.zeros(n)
    # sorted() is free here: each state index is written exactly once.
    for state, probability in sorted(initial_probability.items()):
        initial[state] = probability
    if not math.isclose(float(initial.sum()), 1.0, rel_tol=1e-9):
        raise StateSpaceError(
            f"initial distribution sums to {initial.sum()!r}, expected 1"
        )

    has_exit = np.zeros(n, dtype=bool)
    for transition in transitions:
        if transition.target != transition.source:
            has_exit[transition.source] = True
    stop_mask = np.asarray(stop_flags, dtype=bool)
    absorbing = ~has_exit

    return StateSpace(
        model_name=model.name,
        states=states,
        initial_distribution=initial,
        transitions=transitions,
        absorbing=absorbing,
        stop_mask=stop_mask,
        initial_completions=initial_completions,
        _index=index,
    )
