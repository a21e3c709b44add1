"""Compilation of SAN models to index-based execution tables.

:class:`CompiledSANModel` lowers a :class:`~repro.san.model.SANModel` to
integer-indexed structures: places become indices into a token row,
input/output arc effects become ``(place_index, weight)`` tuples
and, per activity kind, one padded :class:`ArcTable`, and the opaque
parts -- gate predicates and functions, marking-dependent case
probabilities, duration distributions -- stay as the original closures
but re-keyed by activity index.  The compiled form is what
:class:`~repro.san.batched.BatchedSANExecutor` interprets: ``B``
replications advance lock-step, each over a flat token list indexed by
place, instead of ``B`` independent object-graph walks.

The compiled model is derived purely from the model's immutable shape,
built once and cached on the model instance keyed by
:attr:`~repro.san.model.SANModel.structure_version`.  Its dependency
tables are the only place-to-activity index in the package.

Ordering contracts
------------------
The compiled tables preserve every ordering the golden traces pin down,
so a batched row replays the trajectory of the
:class:`~repro.san.executor.SANExecutor` oracle exactly:

* :attr:`CompiledSANModel.timed` is in model declaration order (the order
  of the initial activation walk, and the conservative ``global_timed``
  prefix of every refresh keeps it);
* :attr:`CompiledSANModel.instantaneous` is rank-sorted with declaration
  order breaking ties, so a compiled instantaneous *index* compares
  exactly like the oracle's rank-sorted firing precedence;
* per-place watcher tuples keep activity order, and
  :attr:`CompiledSANModel.place_sort_rank` ranks place indices by place
  *name* so the batched refresh can walk changed places in name order
  without comparing strings.

These orderings are what make the batched executor bit-identical to the
oracle: a replication's random draw order (activation draws, case draws)
is a pure function of the traversal order the tables encode, so any
change here must keep the golden traces -- and therefore the determinism
contract of :mod:`repro.san.solver` -- intact.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.san.activities import Activity, Case, TimedActivity
from repro.san.gates import InputGate, OutputGate
from repro.san.marking import FrozenMarking, Marking, PlaceRef
from repro.san.model import SANModel
from repro.stats.distributions import Constant, supports_batch

#: Duration-sampling strategies of a compiled timed activity: constants
#: never touch their stream, fixed vectorisable distributions pre-draw
#: batches (:class:`_BatchedDurationSampler`), everything else draws one
#: value per call.
DURATION_CONSTANT = 0
DURATION_BATCHED = 1
DURATION_GENERIC = 2

#: A duration sampler bound to one (row, activity) pair: marking -> delay.
DurationSampler = Callable[[Marking], float]

#: Durations pre-drawn per activity stream when the distribution supports
#: batched sampling.  Small enough that mostly-idle activities waste little
#: numpy work, large enough to amortise the per-call overhead.
DURATION_BATCH = 16


class _BatchedDurationSampler:
    """Serves durations from pre-drawn batches of a fixed distribution.

    Bit-identical to one draw per call: numpy ``Generator`` methods fill
    arrays from the same bit stream that scalar calls consume, and the
    wrapped stream is private to one activity's durations.
    """

    __slots__ = ("_dist", "_rng", "_name", "_values", "_next")

    def __init__(self, dist: Any, rng: np.random.Generator, name: str) -> None:
        # ``dist`` is duck-typed: compilation classifies it with supports_batch().
        self._dist = dist
        self._rng = rng
        self._name = name
        self._values: Sequence[float] = ()
        self._next = 0

    def __call__(self, marking: Marking) -> float:
        position = self._next
        values = self._values
        if position >= len(values):
            values = self._values = self._dist.sample_batch(
                self._rng, DURATION_BATCH
            )
            position = 0
        self._next = position + 1
        value = float(values[position])
        if value < 0:
            raise ValueError(
                f"activity {self._name!r}: sampled a negative duration {value}"
            )
        return value


class CompiledCase:
    """One case of a compiled activity, with output effects by place index."""

    __slots__ = (
        "case",
        "output_arcs",
        "output_gates",
        "change_idx",
        "candidate_bits",
        "word_updates",
    )

    def __init__(
        self,
        case: Case,
        input_arcs: Tuple[Tuple[int, int], ...],
        output_arcs: Tuple[Tuple[int, int], ...],
        output_gates: Tuple[OutputGate, ...],
    ) -> None:
        self.case = case
        self.output_arcs = output_arcs
        self.output_gates = output_gates
        #: Place indices every completion through this case changes via
        #: arcs (weights are >= 1, so each arc write journals) -- the
        #: static part of the completion's changed set; gate writes are
        #: the dynamic remainder.
        self.change_idx: FrozenSet[int] = frozenset(
            place for place, _weight in input_arcs
        ) | frozenset(place for place, _weight in output_arcs)
        #: Candidate bitmask of the instantaneous activities affected by
        #: the static changed set (conservatives included).  Filled in by
        #: :class:`CompiledSANModel` once the dependency bit tables exist.
        self.candidate_bits: int = 0
        #: ``(place, slot, weight, bits)`` of every instantaneous arc group
        #: (:attr:`CompiledSANModel.inst_arc_groups`) over ``change_idx``:
        #: the arc words a completion through this case must recompute.
        #: Filled in by :class:`CompiledSANModel`.
        self.word_updates: Tuple[Tuple[int, int, int, int], ...] = ()


class CompiledActivity:
    """An activity lowered to index-based enablement and completion tables.

    ``index`` is the position in the owning kind's list: declaration order
    for timed activities, rank-sorted firing precedence for instantaneous
    ones.
    """

    __slots__ = (
        "index",
        "name",
        "timed",
        "activity",
        "input_arcs",
        "input_gates",
        "cases",
        "case_lookup",
        "single_case",
        "duration_kind",
        "constant_duration",
        "distribution",
        "duration_stream",
        "case_stream",
    )

    def __init__(
        self,
        index: int,
        activity: Activity,
        place_index: Dict[str, int],
    ) -> None:
        self.index = index
        self.name = activity.name
        self.timed = activity.timed
        self.activity = activity
        self.input_arcs: Tuple[Tuple[int, int], ...] = tuple(
            (place_index[place], weight) for place, weight in activity.input_arcs
        )
        self.input_gates: Tuple[InputGate, ...] = activity.input_gates
        self.cases: Tuple[CompiledCase, ...] = tuple(
            CompiledCase(
                case,
                self.input_arcs,
                tuple(
                    (place_index[place], weight)
                    for place, weight in case.output_arcs
                ),
                case.output_gates,
            )
            for case in activity.cases
        )
        #: ``id(case) -> compiled case``: ``Activity.choose_case`` returns
        #: one of the original :class:`Case` objects, which this maps back
        #: to its compiled effects without an index search.
        self.case_lookup: Dict[int, CompiledCase] = {
            id(compiled.case): compiled for compiled in self.cases  # repro: ignore[DET005] identity map from choose_case's returned Case object to its compiled twin; looked up by key only, never iterated or ordered
        }
        self.single_case = self.cases[0] if len(self.cases) == 1 else None
        self.duration_stream = f"san.duration.{activity.name}"
        self.case_stream = f"san.case.{activity.name}"
        self.duration_kind = DURATION_GENERIC
        self.constant_duration = 0.0
        self.distribution: object = None
        if isinstance(activity, TimedActivity):
            dist = activity.distribution
            self.distribution = dist
            if not callable(dist) or hasattr(dist, "sample"):
                if isinstance(dist, Constant):
                    self.duration_kind = DURATION_CONSTANT
                    self.constant_duration = float(dist.value)
                elif supports_batch(dist):
                    self.duration_kind = DURATION_BATCHED

    def enabled(self, tokens: Sequence[int], marking: Marking) -> bool:
        """The SAN enabling rule over one token row."""
        for place, weight in self.input_arcs:
            if tokens[place] < weight:
                return False
        for gate in self.input_gates:
            if not gate.predicate(marking):
                return False
        return True


class ArcTable:
    """Padded input-arc table of a sequence of activities.

    ``places`` and ``weights`` are ``width x columns`` arrays: slot ``s``
    of column ``j`` holds activity ``j``'s ``s``-th input arc, ``width``
    is the most input arcs any activity has, and padding slots (place 0,
    weight 0) always hold, so arc-less activities need no special case.
    ``columns`` rounds the activity count up to whole bytes with padding
    columns, so the packed :meth:`mask` has one aligned word per row.
    """

    __slots__ = ("places", "weights")

    def __init__(self, activities: Sequence[CompiledActivity]) -> None:
        width = max((len(compiled.input_arcs) for compiled in activities), default=0)
        columns = -(-len(activities) // 8) * 8
        self.places = np.zeros((width, columns), dtype=np.intp)
        self.weights = np.zeros((width, columns), dtype=np.int64)
        for column, compiled in enumerate(activities):
            for slot, (place, weight) in enumerate(compiled.input_arcs):
                self.places[slot, column] = place
                self.weights[slot, column] = weight

    def mask(self, tokens: np.ndarray) -> np.ndarray:
        """``B x columns`` arc verdicts: one gather and ``>=`` per slot, ANDed."""
        places = self.places
        weights = self.weights
        if not len(places):
            return np.ones((tokens.shape[0], places.shape[1]), dtype=bool)
        mask = tokens[:, places[0]] >= weights[0]
        for slot in range(1, len(places)):
            mask &= tokens[:, places[slot]] >= weights[slot]
        return mask

    def words(self, tokens: np.ndarray) -> List[int]:
        """One arc bitmask per token row (bit ``j``: activity ``j``), padding bits set."""
        packed = np.packbits(self.mask(tokens), bitorder="little").tobytes()
        stride = self.places.shape[1] // 8
        return [
            int.from_bytes(packed[row * stride : (row + 1) * stride], "little")
            for row in range(tokens.shape[0])
        ]


class CompiledSANModel:
    """A :class:`~repro.san.model.SANModel` lowered to integer indices.

    Build via :func:`compile_model`, which caches the compiled form on the
    model instance keyed by its ``structure_version``.
    """

    __slots__ = (
        "version",
        "model_name",
        "place_names",
        "place_index",
        "place_sort_rank",
        "initial_tokens",
        "timed",
        "instantaneous",
        "timed_by_place",
        "inst_by_place",
        "timed_by_unknown",
        "inst_by_unknown",
        "global_timed",
        "global_inst",
        "global_inst_bits",
        "inst_bits_by_place",
        "inst_bits_by_unknown",
        "inst_arc_groups",
        "timed_arcs",
        "inst_arcs",
        "n_places",
        "n_timed",
        "n_inst",
    )

    def __init__(self, model: SANModel) -> None:
        model.validate()
        self.version = model.structure_version
        self.model_name = model.name
        self.place_names: Tuple[str, ...] = tuple(
            place.name for place in model.places
        )
        self.place_index: Dict[str, int] = {
            name: index for index, name in enumerate(self.place_names)
        }
        #: Rank of each place index in *name-sorted* order: sorting changed
        #: place indices by this rank reproduces a ``sorted(changed)`` walk
        #: over place names without comparing strings.
        rank_of_name = {
            name: rank for rank, name in enumerate(sorted(self.place_names))
        }
        self.place_sort_rank: Tuple[int, ...] = tuple(
            rank_of_name[name] for name in self.place_names
        )
        self.initial_tokens: Tuple[int, ...] = tuple(
            place.initial for place in model.places
        )
        self.n_places = len(self.place_names)

        self.timed: Tuple[CompiledActivity, ...] = tuple(
            CompiledActivity(index, activity, self.place_index)
            for index, activity in enumerate(model.timed_activities)
        )
        rank_sorted = sorted(
            model.instantaneous_activities, key=lambda activity: activity.rank
        )
        self.instantaneous: Tuple[CompiledActivity, ...] = tuple(
            CompiledActivity(index, activity, self.place_index)
            for index, activity in enumerate(rank_sorted)
        )
        self.n_timed = len(self.timed)

        timed_by_place: Dict[int, List[CompiledActivity]] = {}
        inst_by_place: Dict[int, List[CompiledActivity]] = {}
        timed_by_unknown: Dict[str, List[CompiledActivity]] = {}
        inst_by_unknown: Dict[str, List[CompiledActivity]] = {}
        global_timed: List[CompiledActivity] = []
        global_inst: List[CompiledActivity] = []
        for compiled in self.timed:
            self._index_activity(
                compiled, timed_by_place, timed_by_unknown, global_timed
            )
        for compiled in self.instantaneous:
            self._index_activity(
                compiled, inst_by_place, inst_by_unknown, global_inst
            )
        self.timed_by_place: Dict[int, Tuple[CompiledActivity, ...]] = {
            place: tuple(activities)
            for place, activities in timed_by_place.items()  # repro: ignore[DET001] re-keying only; the result is read by .get(key), never iterated in order
        }
        self.inst_by_place: Dict[int, Tuple[CompiledActivity, ...]] = {
            place: tuple(activities)
            for place, activities in inst_by_place.items()  # repro: ignore[DET001] re-keying only; the result is read by .get(key), never iterated in order
        }
        #: Watched place *names* not declared in the model (only reachable
        #: through gate functions writing undeclared places); kept
        #: name-keyed.
        self.timed_by_unknown: Dict[str, Tuple[CompiledActivity, ...]] = {
            name: tuple(activities)
            for name, activities in timed_by_unknown.items()  # repro: ignore[DET001] re-keying only; the result is read by .get(key), never iterated in order
        }
        self.inst_by_unknown: Dict[str, Tuple[CompiledActivity, ...]] = {
            name: tuple(activities)
            for name, activities in inst_by_unknown.items()  # repro: ignore[DET001] re-keying only; the result is read by .get(key), never iterated in order
        }
        self.global_timed: Tuple[CompiledActivity, ...] = tuple(global_timed)
        self.global_inst: Tuple[CompiledActivity, ...] = tuple(global_inst)

        # Bitmask twins of the instantaneous dependency indexes, for the
        # batched executor's chain: bit ``i`` stands for
        # firing-precedence position ``i``, so OR-ing the masks of the
        # changed places rebuilds the candidate set with one integer OR
        # per place, and the *lowest set bit* of a candidate mask is the
        # next activity a rank-ordered walk would visit.
        self.n_inst = len(self.instantaneous)
        self.global_inst_bits = self._inst_bits(self.global_inst)
        self.inst_bits_by_place: Dict[int, int] = {
            place: self._inst_bits(activities)
            for place, activities in self.inst_by_place.items()  # repro: ignore[DET001] re-keying only; the result is read by .get(key), never iterated in order
        }
        self.inst_bits_by_unknown: Dict[str, int] = {
            name: self._inst_bits(activities)
            for name, activities in self.inst_by_unknown.items()  # repro: ignore[DET001] re-keying only; the result is read by .get(key), never iterated in order
        }

        # One padded arc table per activity kind: the timed one drives
        # initial activation, both serve the introspection masks.
        self.timed_arcs = ArcTable(self.timed)
        self.inst_arcs = ArcTable(self.instantaneous)

        # Arc words: the executor keeps, per row, one integer per slot of
        # the instantaneous arc table, bit ``j`` of word ``s`` set while
        # activity ``j``'s slot-``s`` arc holds (padding slots always
        # hold), so the AND of a row's words is its arc bitmask.  Group
        # ``(slot, weight, bits)`` of place ``p`` holds the activities
        # whose slot-``slot`` arc reads ``p`` with ``weight``: a change of
        # ``p`` sets or clears exactly those bits, and no bit belongs to
        # two places, so updates over a changed set commute.
        groups: List[Dict[Tuple[int, int], int]] = [{} for _ in self.place_names]
        for compiled in self.instantaneous:
            for slot, (place, weight) in enumerate(compiled.input_arcs):
                key = (slot, weight)
                groups[place][key] = groups[place].get(key, 0) | 1 << compiled.index
        self.inst_arc_groups: Tuple[Tuple[Tuple[int, int, int], ...], ...] = tuple(
            tuple((slot, weight, bits) for (slot, weight), bits in sorted(by_key.items()))
            for by_key in groups
        )

        # Pre-resolve each case's static candidate bitmask (the arcs of a
        # completion are fixed per case, so its candidate set is too, up
        # to gate writes, which the executor ORs in dynamically) and the
        # arc-word groups of its static changed set.
        for compiled in self.timed + self.instantaneous:
            for compiled_case in compiled.cases:
                bits = self.global_inst_bits
                for place in compiled_case.change_idx:
                    bits |= self.inst_bits_by_place.get(place, 0)
                compiled_case.candidate_bits = bits
                compiled_case.word_updates = tuple(
                    (place, slot, weight, group_bits)
                    for place in sorted(compiled_case.change_idx)
                    for slot, weight, group_bits in self.inst_arc_groups[place]
                )

    def inst_arc_words(self, tokens: Sequence[int]) -> List[int]:
        """The arc words of one token row, computed from scratch.

        One word per instantaneous arc slot; their AND is ``inst_arcs``'s
        :meth:`ArcTable.words` for the row, up to the padding columns.
        """
        words = [(1 << self.n_inst) - 1] * len(self.inst_arcs.places)
        for place, place_groups in enumerate(self.inst_arc_groups):
            value = tokens[place]
            for slot, weight, bits in place_groups:
                if value < weight:
                    words[slot] &= ~bits
        return words

    def _inst_bits(self, activities: Sequence[CompiledActivity]) -> int:
        bits = 0
        for compiled in activities:
            bits |= 1 << compiled.index
        return bits

    def _index_activity(
        self,
        compiled: CompiledActivity,
        index: Dict[int, List[CompiledActivity]],
        unknown: Dict[str, List[CompiledActivity]],
        global_list: List[CompiledActivity],
    ) -> None:
        """Dependency index of one activity.

        An activity whose gates all declare their watched places is indexed
        under every place it reads; one with an undeclared watch list is
        conservatively re-evaluated after every completion.  Watched place
        *names* outside the model (which arc validation cannot reject) go
        into the name-keyed ``unknown`` side index -- they can only be
        triggered by gate functions writing those names.
        """
        places: Set[int] = {place for place, _ in compiled.input_arcs}
        names: Set[str] = set()
        conservative = False
        for gate in compiled.input_gates:
            if not gate.watched_places:
                conservative = True
                break
            for name in gate.watched_places:
                place = self.place_index.get(name)
                if place is None:
                    names.add(name)
                else:
                    places.add(place)
        if conservative:
            global_list.append(compiled)
            return
        for place in sorted(places):
            index.setdefault(place, []).append(compiled)
        for name in sorted(names):
            unknown.setdefault(name, []).append(compiled)

    # ------------------------------------------------------------------
    def arc_enabled_mask(
        self, tokens: np.ndarray, activities: Sequence[CompiledActivity]
    ) -> np.ndarray:
        """Vectorised input-*arc* enablement over a ``B x P`` token matrix.

        Returns a ``B x len(activities)`` boolean mask; gates are not
        evaluated (see :meth:`enablement_mask`).  The executor uses the
        per-kind tables :attr:`timed_arcs` and :attr:`inst_arcs` directly.
        """
        return ArcTable(activities).mask(tokens)[:, : len(activities)]

    def enablement_mask(
        self,
        tokens: np.ndarray,
        activities: Sequence[CompiledActivity],
        markings: Sequence[Marking],
    ) -> np.ndarray:
        """Full vectorised enablement (arcs *and* gates) over a token matrix.

        ``markings`` supplies one marking view per row for the gate
        predicates: arc checks are pure numpy; gate closures are opaque and
        evaluated per row, but only where the arc mask already holds.
        """
        mask = self.arc_enabled_mask(tokens, activities)
        for column, compiled in enumerate(activities):
            if not compiled.input_gates:
                continue
            for row in np.flatnonzero(mask[:, column]):
                for gate in compiled.input_gates:
                    if not gate.predicate(markings[row]):
                        mask[row, column] = False
                        break
        return mask


def compile_model(model: SANModel) -> CompiledSANModel:
    """The cached :class:`CompiledSANModel` of ``model`` (rebuilt when stale).

    Keyed by ``structure_version``, so every batched executor over the
    same unchanged model shares one compiled form.
    """
    cached = getattr(model, "_compiled_model", None)
    if cached is not None and cached.version == model.structure_version:
        return cached
    compiled = CompiledSANModel(model)
    model._compiled_model = compiled  # type: ignore[attr-defined]
    return compiled


class RowMarking(Marking):
    """A :class:`~repro.san.marking.Marking` view of one executor row's tokens.

    Gate closures, reward variables, case-probability callables and stop
    predicates receive this adapter, so the batched executor feeds the
    exact same callable interfaces as a plain marking.  Reads and writes
    resolve place names to row indices through the compiled place table;
    writes go to the row's token list, the executor's only token store,
    and journal the changed *indices* (consumed by the batched executor's
    dependency walk and arc-word update).  Names outside the compiled model --
    reachable only through gate closures writing undeclared places, which
    arc validation cannot see -- spill into a per-row overflow mapping and
    are journalled by name, like a plain marking.
    """

    __slots__ = (
        "_compiled",
        "_index",
        "_row",
        "_overflow",
        "_changed_idx",
        "_changed_names",
    )

    def __init__(
        self,
        compiled: CompiledSANModel,
        row: List[int],
        overflow: Optional[Dict[str, int]] = None,
    ) -> None:
        # Deliberately does NOT call Marking.__init__: token storage is the
        # shared row list, not a private dict.  Marking's derived helpers
        # (add/remove/has/set_all/__eq__) all route through the overridden
        # accessors below, and Activity.enabled's `_tokens` fast path falls
        # back to the mapping interface for this class (the slot is unset).
        self._compiled = compiled
        self._index = compiled.place_index
        self._row = row
        self._overflow: Dict[str, int] = dict(overflow) if overflow else {}
        self._changed_idx: Set[int] = set()
        self._changed_names: Set[str] = set()

    # -- accessors ------------------------------------------------------
    def __getitem__(self, place: PlaceRef) -> int:
        # Fast path: string name of a declared place (the overwhelmingly
        # common call shape from gates, rewards and stop predicates).
        try:
            return self._row[self._index[place]]
        except KeyError:
            pass
        name = place if isinstance(place, str) else place.name
        index = self._index.get(name)
        if index is None:
            return self._overflow.get(name, 0)
        return self._row[index]

    def __setitem__(self, place: PlaceRef, count: int) -> None:
        name = place if isinstance(place, str) else place.name
        count = int(count)
        if count < 0:
            raise ValueError(
                f"marking of place {name!r} would become negative ({count})"
            )
        index = self._compiled.place_index.get(name)
        if index is None:
            if self._overflow.get(name, 0) != count:
                self._changed_names.add(name)
            self._overflow[name] = count
            return
        if self._row[index] != count:
            self._changed_idx.add(index)
        self._row[index] = count

    def __contains__(self, place: PlaceRef) -> bool:
        name = place if isinstance(place, str) else place.name
        return name in self._compiled.place_index or name in self._overflow

    def __iter__(self) -> Iterator[str]:
        yield from self._compiled.place_names
        yield from sorted(self._overflow)

    def __len__(self) -> int:
        return self._compiled.n_places + len(self._overflow)

    # -- journal --------------------------------------------------------
    def take_changes(self) -> Tuple[Set[int], Set[str]]:
        """Changed (place indices, overflow names) since the last call.

        An *empty* journal set is returned as-is (not replaced): it can
        only become non-empty by being the next call's own return value,
        so callers treating the result as a snapshot stay consistent
        while the hot path skips two allocations per completion.
        """
        changed_idx = self._changed_idx
        changed_names = self._changed_names
        if changed_idx:
            self._changed_idx = set()
        if changed_names:
            self._changed_names = set()
        return changed_idx, changed_names

    def consume_changes(self) -> Set[str]:
        """Changed place *names*: :class:`Marking` journal-interface parity."""
        changed_idx, changed_names = self.take_changes()
        names = {self._compiled.place_names[index] for index in changed_idx}
        return names | changed_names

    # -- snapshots ------------------------------------------------------
    def as_dict(self, drop_zeros: bool = False) -> Dict[str, int]:
        """The row as a plain dictionary (declaration order, like Marking)."""
        row = self._row
        names = self._compiled.place_names
        if drop_zeros:
            result = {
                names[index]: count for index, count in enumerate(row) if count
            }
            result.update(
                (name, count)
                for name, count in sorted(self._overflow.items())
                if count
            )
            return result
        full = dict(zip(names, row, strict=True))
        full.update(sorted(self._overflow.items()))
        return full

    def copy(self) -> Marking:
        """An independent plain :class:`Marking` snapshot of this row.

        Uses the same fast-clone idiom as :meth:`Marking.copy`: the row
        already enforces the non-negative-integer invariant, so the clone
        adopts the token dict without replaying ``__setitem__``.
        """
        clone = Marking.__new__(Marking)
        clone._tokens = self.as_dict()
        clone._changed = set()
        return clone

    def __reduce__(self) -> Tuple[type, Tuple[Dict[str, int]]]:
        # Pickles as the plain Marking it stands for, not as a view.
        return Marking, (self.as_dict(),)

    def freeze(self) -> FrozenMarking:
        """An immutable :class:`FrozenMarking` snapshot of this row."""
        return FrozenMarking._from_clean_tokens(self.as_dict())

    def total_tokens(self) -> int:
        """Total token count over compiled places and the overflow dict."""
        return sum(self._row) + sum(self._overflow.values())

    def __repr__(self) -> str:
        nonzero = {k: v for k, v in sorted(self.as_dict().items()) if v}
        return f"RowMarking({nonzero})"


__all__ = [
    "ArcTable",
    "CompiledActivity",
    "CompiledCase",
    "CompiledSANModel",
    "DURATION_BATCH",
    "DURATION_BATCHED",
    "DURATION_CONSTANT",
    "DURATION_GENERIC",
    "DurationSampler",
    "RowMarking",
    "compile_model",
]
