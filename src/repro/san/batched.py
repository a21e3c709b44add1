"""Lock-step batched execution of SAN replications.

:class:`BatchedSANExecutor` runs ``B`` independent replications of one
model together: each row's marking is a Python token list (with a
:class:`RowMarking` adapter over it), scheduled timed completions live
in a ``B x timed`` completion-time matrix, and each simulation round
advances every active row by exactly one timed event -- selected with
one vectorised ``min``/``argmin`` over the completion matrix instead of
``B`` binary heaps.  Initial activation evaluates input arcs as one
vectorised mask over the distinct start rows, from the compiled model's
padded timed arc table (:class:`~repro.san.compiled.ArcTable`).

The instantaneous chains that follow each round's completions run
**lock-step across every chaining row** (:meth:`_fire_chain`), on
integer bitmasks only.  Candidate sets are built from the compiled
model's per-place dependency masks.  Arc enablement is kept per row as
*arc words*, one integer per instantaneous arc slot (bit ``j`` of word
``s``: activity ``j``'s slot-``s`` arc holds), which every completion
updates from the places it changed
(:attr:`~repro.san.compiled.CompiledSANModel.inst_arc_groups`), so a
chain step checks arcs with one AND per slot.  Gate predicates, case
selection and the completion effects themselves stay per row and are
evaluated in the oracle's rank order, only for candidates whose arcs
hold.

This is the only executor :class:`~repro.san.solver.SimulativeSolver`
runs; a single replication is a batch of one.

Determinism contract (the *batched draw-order contract*)
--------------------------------------------------------
Every row is **bit-identical to the** :class:`~repro.san.executor.SANExecutor`
**oracle** run with the same seed, at any batch size:

* row ``r`` draws from its own ``RandomStreams(seed_r)`` with the same
  named streams (``san.duration.<activity>`` / ``san.case.<activity>``)
  the oracle derives from ``Simulator(seed_r)``, and batching never
  interleaves draws across rows within a stream;
* a row's stream is the very generator ``row.streams.stream(name)``
  returns.  The first row to need ``name`` derives every row's PCG64
  seed words in one vectorised
  :func:`~repro.des.random.derive_stream_words` call; each row then
  builds its generator lazily from its own row of that table and
  stores it in ``row.streams``.  The words are the ones the oracle's
  per-stream ``SeedSequence`` yields (the derivation contract of
  :mod:`repro.des.random`), so the draws are the oracle's;
* within a row, timed activities are walked in the oracle's order
  (declaration order at start-up; activities with unwatched gates first,
  then the readers of the name-sorted changed places, then the completed
  activity after each completion), so the per-row sequence numbers --
  which break same-instant completion ties exactly like the oracle's
  DES calendar -- are assigned identically;
* a completion with several cases draws exactly one ``random()`` from
  its case stream, through the same
  :meth:`~repro.san.activities.Activity.choose_case` the oracle calls;
* fixed vectorisable durations come from pre-drawn per-stream batches
  (:class:`~repro.san.compiled._BatchedDurationSampler`), which numpy
  guarantees bit-identical to one draw per call.

Consequently ``B=1`` reproduces the golden traces float-for-float, and a
``B>1`` batch produces exactly the per-replication results the oracle
would, merely faster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.des.random import RandomStreams, derive_stream_words
from repro.des.simulator import Simulator
from repro.san.compiled import (
    DURATION_BATCHED,
    DURATION_CONSTANT,
    CompiledActivity,
    CompiledSANModel,
    DurationSampler,
    RowMarking,
    _BatchedDurationSampler,
    compile_model,
)
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.rewards import RewardVariable

_INF = math.inf

MarkingPredicate = Callable[[Marking], bool]

#: Safety bound on consecutive instantaneous firings without time advancing,
#: to catch accidentally-unstable (vanishing-marking) loops in models.
MAX_INSTANTANEOUS_CHAIN = 1_000_000


class SANExecutionError(RuntimeError):
    """Raised when a model misbehaves during execution."""


@dataclass
class ExecutionResult:
    """Outcome of one replication.

    The batched executor's ``final_marking`` is a :class:`RowMarking`
    over a copy of the row's tokens: the full place dictionary is built
    only if someone reads it (the solver never does).
    """

    end_time: float
    stopped_by_predicate: bool
    dead_marking: bool
    completions: int
    final_marking: Marking


class _Row:
    """Per-replication state of one row of the batch."""

    __slots__ = (
        "index",
        "tokens",
        "arc_words",
        "marking",
        "streams",
        "rewards",
        "completion_hooks",
        "marking_hooks",
        "samplers",
        "case_rngs",
        "next_seq",
        "now",
        "completions",
        "stopped",
    )

    def __init__(
        self,
        index: int,
        tokens: List[int],
        marking: RowMarking,
        streams: RandomStreams,
        rewards: List[RewardVariable],
        n_timed: int,
    ) -> None:
        self.index = index
        #: The row's only token store, indexed by place.
        self.tokens = tokens
        #: Instantaneous arc words (one per arc slot; their AND is the
        #: row's arc bitmask), set at run start and kept current by every
        #: completion.
        self.arc_words: List[int] = []
        self.marking = marking
        self.streams = streams
        self.rewards = rewards
        #: Bound per-completion hooks of the rewards that actually
        #: override them (the base-class hooks are no-ops, so skipping
        #: them is behaviour-identical; distinct rewards are independent
        #: observers of a marking that does not change between hooks, so
        #: splitting the oracle's per-reward interleaving into two lists
        #: is too).
        self.completion_hooks = [
            reward.on_activity_completion
            for reward in rewards
            if type(reward).on_activity_completion
            is not RewardVariable.on_activity_completion
        ]
        self.marking_hooks = [
            reward.on_marking_change
            for reward in rewards
            if type(reward).on_marking_change
            is not RewardVariable.on_marking_change
        ]
        #: Lazily-built duration samplers, indexed by timed-activity index.
        self.samplers: List[Optional[DurationSampler]] = [None] * n_timed
        self.case_rngs: Dict[str, np.random.Generator] = {}
        #: Mirrors the DES calendar's sequence counter: bumped once per
        #: schedule, never on cancellation, so same-instant completions
        #: tie-break exactly like the oracle's ``(time, seq)`` heap order.
        self.next_seq = 0
        self.now = 0.0
        self.completions = 0
        self.stopped = False


def _equal_runs(rows: Sequence[_Row]) -> Tuple[List[List[int]], List[int]]:
    """The rows' token lists with runs of equal neighbours merged, and each
    row's position among them (batches mostly start from one marking)."""
    starts: List[List[int]] = []
    start_of: List[int] = []
    for row in rows:
        if not starts or row.tokens != starts[-1]:
            starts.append(row.tokens)
        start_of.append(len(starts) - 1)
    return starts, start_of


class BatchedSANExecutor:
    """Executes ``B`` replications of a SAN model lock-step.

    Two construction forms:

    * **Single-row** (the :class:`~repro.san.executor.SANExecutor`
      oracle's signature, used by the golden-trace tests):
      ``BatchedSANExecutor(model, sim, rewards, initial_marking)`` runs
      one row drawing from ``sim.random``; :meth:`run` returns one
      :class:`ExecutionResult`.
    * **Batched** (:meth:`for_batch`): one row per replication seed, each
      with its own reward variables; :meth:`run_batch` returns the results
      in row order.
    """

    def __init__(
        self,
        model: SANModel,
        sim: Optional[Simulator] = None,
        rewards: Sequence[RewardVariable] = (),
        initial_marking: Optional[Marking] = None,
        *,
        streams: Optional[Sequence[RandomStreams]] = None,
        rewards_per_row: Optional[Sequence[Sequence[RewardVariable]]] = None,
        initial_markings: Optional[Sequence[Optional[Marking]]] = None,
    ) -> None:
        model.validate()
        self.model = model
        self._compiled: CompiledSANModel = compile_model(model)
        if streams is None:
            if sim is None:
                raise TypeError(
                    "BatchedSANExecutor needs a Simulator (single-row "
                    "form) or explicit per-row streams (for_batch)"
                )
            streams = [sim.random]
            rewards_per_row = [list(rewards)]
            initial_markings = [initial_marking]
        if rewards_per_row is None:
            rewards_per_row = [[] for _ in streams]
        if initial_markings is None:
            initial_markings = [None] * len(streams)
        if not (len(streams) == len(rewards_per_row) == len(initial_markings)):
            raise ValueError(
                "streams, rewards_per_row and initial_markings must have "
                "one entry per row"
            )
        # At least one column, so the per-round min/argmin is defined on
        # models without timed activities (the spare column stays at
        # infinity: such rows drain after start-up).
        n_columns = max(1, self._compiled.n_timed)
        self._comp = np.full((len(streams), n_columns), _INF, dtype=np.float64)
        self._seqs = np.zeros((len(streams), n_columns), dtype=np.int64)
        #: Constant-duration samplers are marking- and stream-independent,
        #: so one closure per activity serves every row of the batch.
        self._constant_samplers: Dict[int, DurationSampler] = {}
        #: Per stream name, every row's PCG64 seed words -- derived in one
        #: vectorised call the first time any row needs the stream.
        self._stream_words: Dict[str, np.ndarray] = {}
        self._rows: List[_Row] = []
        for index, (row_streams, row_rewards, initial) in enumerate(
            zip(streams, rewards_per_row, initial_markings, strict=True)
        ):
            tokens, overflow = self._initial_tokens(initial)
            marking = RowMarking(self._compiled, tokens, overflow)
            self._rows.append(
                _Row(
                    index,
                    tokens,
                    marking,
                    row_streams,
                    list(row_rewards),
                    self._compiled.n_timed,
                )
            )
        self._stop_predicate: Optional[MarkingPredicate] = None

    @classmethod
    def for_batch(
        cls,
        model: SANModel,
        seeds: Sequence[int],
        rewards_per_row: Sequence[Sequence[RewardVariable]],
        initial_markings: Optional[Sequence[Optional[Marking]]] = None,
    ) -> "BatchedSANExecutor":
        """One row per replication seed (``RandomStreams(seed)`` each)."""
        return cls(
            model,
            streams=[RandomStreams(seed) for seed in seeds],
            rewards_per_row=rewards_per_row,
            initial_markings=initial_markings,
        )

    # ------------------------------------------------------------------
    # Introspection (tests and cross-checks)
    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        """Number of replication rows in this executor."""
        return len(self._rows)

    @property
    def completions(self) -> int:
        """Completions of row 0 (single-row introspection)."""
        return self._rows[0].completions

    @property
    def marking(self) -> Marking:
        """Marking view of row 0 (single-row introspection)."""
        return self._rows[0].marking

    def tokens_matrix(self) -> np.ndarray:
        """The current ``B x places`` token matrix, built from the rows."""
        return np.array(
            [row.tokens for row in self._rows], dtype=np.int64
        ).reshape(len(self._rows), self._compiled.n_places)

    def enabled_mask(
        self, activities: Optional[Sequence[CompiledActivity]] = None
    ) -> np.ndarray:
        """Vectorised full-enablement mask over :meth:`tokens_matrix`.

        Defaults to all activities (timed then instantaneous); a
        ``B x len(activities)`` boolean array.
        """
        if activities is None:
            activities = self._compiled.timed + self._compiled.instantaneous
        return self._compiled.enablement_mask(
            self.tokens_matrix(),
            activities,
            [row.marking for row in self._rows],
        )

    def enabled_activity_names(self, row_index: int = 0) -> Set[str]:
        """Names of every enabled activity in one row (mask-derived)."""
        activities = self._compiled.timed + self._compiled.instantaneous
        mask = self.enabled_mask(activities)[row_index]
        return {
            activity.name
            for activity, flag in zip(activities, mask, strict=True)
            if flag
        }

    def scheduled_activity_names(self, row_index: int = 0) -> Set[str]:
        """Timed activities currently scheduled to complete in one row."""
        comp_row = self._comp[row_index]
        return {
            activity.name
            for activity in self._compiled.timed
            if comp_row[activity.index] != _INF
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        stop_predicate: Optional[MarkingPredicate] = None,
    ) -> ExecutionResult:
        """Run a single-row batch (single-row form only)."""
        if len(self._rows) != 1:
            raise SANExecutionError(
                f"run() is the single-replication interface; this executor "
                f"has {len(self._rows)} rows -- use run_batch()"
            )
        return self.run_batch(until=until, stop_predicate=stop_predicate)[0]

    def run_batch(
        self,
        until: Optional[float] = None,
        stop_predicate: Optional[MarkingPredicate] = None,
    ) -> List[ExecutionResult]:
        """Run every row to termination; results in row order.

        Each row terminates exactly like an oracle replication: stop
        predicate, dead (drained) marking, or time horizon.
        """
        self._stop_predicate = stop_predicate
        compiled = self._compiled
        results: List[Optional[ExecutionResult]] = [None] * len(self._rows)

        # Start-up, mirroring SANExecutor.run: clear the journal, reset
        # rewards, check the stop predicate on the initial marking, then
        # stabilise instantaneous activities -- one lock-step chain over
        # every surviving row at once, all candidates considered.  Arc
        # words are computed once per run of equal start rows.
        starts, start_of = _equal_runs(self._rows)
        start_words = [compiled.inst_arc_words(tokens) for tokens in starts]
        active: List[_Row] = []
        for row, start in zip(self._rows, start_of, strict=True):
            row.arc_words = list(start_words[start])
            row.marking.take_changes()
            for reward in row.rewards:
                reward.reset(row.marking, 0.0)
            if stop_predicate is not None and stop_predicate(row.marking):
                row.stopped = True
                results[row.index] = self._finish(row, 0.0)
                continue
            active.append(row)
        if active and compiled.n_inst:
            all_candidates = (1 << compiled.n_inst) - 1
            self._fire_chain(active, [all_candidates] * len(active), None)
            still_startup: List[_Row] = []
            for row in active:
                if row.stopped:
                    results[row.index] = self._finish(row, row.now)
                else:
                    still_startup.append(row)
            active = still_startup

        # Initial activation: one vectorised arc mask over the runs of
        # equal token rows still active, then per-row gate checks and
        # scheduling in declaration order (the oracle's seq-assignment
        # order).
        if active:
            starts, start_of = _equal_runs(active)
            masks = compiled.timed_arcs.mask(
                np.array(starts, dtype=np.int64).reshape(
                    len(starts), compiled.n_places
                )
            )
            for row, start in zip(active, start_of, strict=True):
                self._schedule_initial(row, masks[start])

        # Lock-step rounds: one timed event per active row per round,
        # selected with a single vectorised min/argmin over the
        # completion-time matrix, in three phases -- (1) per-row timed
        # completion effects, (2) one lock-step instantaneous chain
        # across every row that completed, (3) per-row timed refresh.
        comp = self._comp
        seqs = self._seqs
        timed = compiled.timed
        n_inst = compiled.n_inst
        refresh_memo: Dict[
            Tuple[int, FrozenSet[int], FrozenSet[str]],
            Tuple[CompiledActivity, ...],
        ] = {}
        while active:
            indices = [row.index for row in active]
            sub = comp[indices]
            mins = sub.min(axis=1)
            times = mins.tolist()
            columns = sub.argmin(axis=1).tolist()
            tie_counts = (sub == mins[:, None]).sum(axis=1).tolist()

            # Phase 1: advance each row's clock and apply its completion.
            chaining: List[_Row] = []
            chain_changes: List[Tuple[Set[int], Set[str]]] = []
            chain_masks: List[int] = []
            chain_columns: List[int] = []
            for position, row in enumerate(active):
                time = times[position]
                if time == _INF:
                    # Calendar drained: dead marking (the DES calendar
                    # still advances the clock to the horizon, if any).
                    end = row.now if until is None else max(row.now, until)
                    results[row.index] = self._finish(row, end)
                    continue
                if until is not None and time > until:
                    results[row.index] = self._finish(row, until)
                    continue
                column = columns[position]
                if tie_counts[position] > 1:
                    # Same-instant completions: the calendar heap pops
                    # the lowest sequence number first.
                    comp_row = comp[row.index]
                    tied = np.flatnonzero(comp_row == time)
                    column = int(tied[np.argmin(seqs[row.index][tied])])
                row.now = time
                comp[row.index, column] = _INF
                activity = timed[column]
                if not activity.enabled(row.tokens, row.marking):
                    # Defensive: disabling should have cancelled this.
                    raise SANExecutionError(
                        f"timed activity {activity.name!r} fired while "
                        "disabled"
                    )
                changed_idx, changed_names, bits = self._complete(row, activity)
                if row.stopped:
                    results[row.index] = self._finish(row, row.now)
                    continue
                chaining.append(row)
                chain_changes.append((changed_idx, changed_names))
                chain_masks.append(bits)
                chain_columns.append(column)

            # Phase 2: one chain across every row that completed; each
            # row's changed-set accumulators are extended in place.
            if chaining and n_inst:
                self._fire_chain(chaining, chain_masks, chain_changes)

            # Phase 3: re-evaluate the affected timed activities per row.
            # The refresh order is a pure function of (fired column,
            # changed sets), and the same few changed sets recur across
            # rows and rounds, so the resolved orders are memoised.
            still_active: List[_Row] = []
            for position, row in enumerate(chaining):
                if row.stopped:
                    results[row.index] = self._finish(row, row.now)
                    continue
                changed_idx, changed_names = chain_changes[position]
                column = chain_columns[position]
                key = (
                    column,
                    frozenset(changed_idx),
                    frozenset(changed_names),
                )
                order = refresh_memo.get(key)
                if order is None:
                    affected = self._affected_timed(
                        changed_idx, changed_names
                    )
                    if column not in affected:
                        affected[column] = timed[column]
                    order = tuple(affected.values())  # repro: ignore[DET001] insertion order is the documented refresh-order contract of _affected_timed
                    refresh_memo[key] = order
                self._refresh_timed(row, order)
                still_active.append(row)
            active = still_active
        return [result for result in results if result is not None]

    # ------------------------------------------------------------------
    # Row initialisation
    # ------------------------------------------------------------------
    def _initial_tokens(
        self, initial: Optional[Marking]
    ) -> Tuple[List[int], Dict[str, int]]:
        """One token row (plus undeclared-name overflow) for a marking."""
        compiled = self._compiled
        if initial is None:
            return list(compiled.initial_tokens), {}
        tokens = [0] * compiled.n_places
        overflow: Dict[str, int] = {}
        for name, count in initial.as_dict().items():  # repro: ignore[DET001] row assembly; each name writes an independent slot
            index = compiled.place_index.get(name)
            if index is None:
                overflow[name] = int(count)
            else:
                tokens[index] = int(count)
        return tokens, overflow

    def _schedule_initial(self, row: _Row, arc_mask: np.ndarray) -> None:
        """Schedule the initially-enabled timed activities of one row."""
        marking = row.marking
        comp_row = self._comp[row.index]
        seq_row = self._seqs[row.index]
        for activity in self._compiled.timed:
            if not arc_mask[activity.index]:
                continue
            enabled = True
            for gate in activity.input_gates:
                if not gate.predicate(marking):
                    enabled = False
                    break
            if not enabled:
                continue
            sampler = row.samplers[activity.index]
            if sampler is None:
                sampler = self._make_sampler(row, activity)
                row.samplers[activity.index] = sampler
            comp_row[activity.index] = row.now + sampler(marking)
            seq_row[activity.index] = row.next_seq
            row.next_seq += 1

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    def _complete(
        self, row: _Row, activity: CompiledActivity
    ) -> Tuple[Set[int], Set[str], int]:
        """Apply one completion.

        Returns the changed ``(indices, names)`` plus the candidate
        bitmask of the instantaneous activities those changes affect --
        the case's precompiled static mask ORed with the masks of any
        gate-written places.  The row's arc words are recomputed for every
        changed place (the case's static set, then the gate-written
        places) from its value after the whole completion; every token
        write goes through one of the two sets, so the words stay equal
        to ones computed from scratch.
        """
        marking = row.marking
        case = activity.single_case
        if case is None:
            rng = row.case_rngs.get(activity.name)
            if rng is None:
                rng = self._stream(row, activity.case_stream)
                row.case_rngs[activity.name] = rng
            chosen = activity.activity.choose_case(marking, rng)
            case = activity.case_lookup[id(chosen)]  # repro: ignore[DET005] identity lookup of the exact Case object choose_case returned; no ordering involved
        tokens = row.tokens
        # SAN completion order: input arcs, input gate functions, output
        # arcs of the chosen case, output gate functions.  Arc weights are
        # >= 1, so every arc write changes its place's count -- the case's
        # precompiled ``change_idx`` matches a plain marking's
        # value-diff journal for the arc writes; gate writes journal
        # through the marking and are merged below.
        for place, weight in activity.input_arcs:
            value = tokens[place] - weight
            if value < 0:
                raise ValueError(
                    f"marking of place "
                    f"{self._compiled.place_names[place]!r} would become "
                    f"negative ({value})"
                )
            tokens[place] = value
        for gate in activity.input_gates:
            gate.apply(marking)
        for place, weight in case.output_arcs:
            tokens[place] += weight
        for out_gate in case.output_gates:
            out_gate.apply(marking)
        gate_idx, changed_names = marking.take_changes()
        words = row.arc_words
        for place, slot, weight, group_bits in case.word_updates:
            if tokens[place] >= weight:
                words[slot] |= group_bits
            else:
                words[slot] &= ~group_bits
        changed_idx = set(case.change_idx)
        bits = case.candidate_bits
        if gate_idx:
            changed_idx |= gate_idx
            by_place = self._compiled.inst_bits_by_place
            groups = self._compiled.inst_arc_groups
            for place in gate_idx:
                bits |= by_place.get(place, 0)
                value = tokens[place]
                for slot, weight, group_bits in groups[place]:
                    if value >= weight:
                        words[slot] |= group_bits
                    else:
                        words[slot] &= ~group_bits
        if changed_names:
            by_unknown = self._compiled.inst_bits_by_unknown
            for name in changed_names:
                bits |= by_unknown.get(name, 0)
        row.completions += 1
        now = row.now
        name = activity.name
        for hook in row.completion_hooks:
            hook(name, marking, now)
        for hook in row.marking_hooks:
            hook(marking, now)
        predicate = self._stop_predicate
        if predicate is not None and predicate(marking):
            row.stopped = True
        return changed_idx, changed_names, bits

    def _fire_chain(
        self,
        rows: List[_Row],
        masks: List[int],
        changes: Optional[List[Tuple[Set[int], Set[str]]]],
    ) -> None:
        """Fire every row's instantaneous chain, lock-step, until drained.

        ``masks`` holds one candidate bitmask per row (bit ``i`` = firing
        precedence position ``i``; mutated in place); ``changes``
        optionally holds per-row ``(changed_idx, changed_names)``
        accumulator sets that are extended **in place** (``None`` at
        start-up, where the changes feed nothing: initial activation
        re-evaluates everything).

        Each chain round ANDs every still-chaining row's candidates with
        its arc words (kept current by :meth:`_complete`), then walks the
        arc-enabled candidates from the lowest set bit upward, evaluating
        gate predicates until the first fully-enabled candidate fires.
        That fires exactly what the oracle's full rank-ordered scan fires:
        the marking is constant during a round's walk, so checking arcs up
        front observes the same state an interleaved walk does.

        A candidate *verified* disabled (by arcs or a gate) is dropped
        from its row's mask: it can only become enabled again through a
        marking change, and every change re-adds the activities indexed
        under the changed places (conservative ones are re-added after
        every completion) -- so the drop never changes which activity
        fires next.  The arc check also verifies candidates *beyond* the
        round's firing point; dropping those is sound by the
        same argument, since input-arc places are always part of an
        activity's dependency index.  A row leaves the chain when no
        candidate fires (drained) or its stop predicate triggers.
        """
        instantaneous = self._compiled.instantaneous
        complete = self._complete
        positions = [
            position for position in range(len(rows)) if masks[position]
        ]
        for _ in range(MAX_INSTANTANEOUS_CHAIN):
            if not positions:
                return
            next_positions: List[int] = []
            for position in positions:
                row = rows[position]
                # Arc-disabled candidates are verified disabled: drop.
                viable = masks[position]
                for word in row.arc_words:
                    viable &= word
                masks[position] = viable
                if not viable:
                    continue
                marking = row.marking
                fired = None
                while viable:
                    low = viable & -viable
                    candidate = instantaneous[low.bit_length() - 1]
                    enabled = True
                    for gate in candidate.input_gates:
                        if not gate.predicate(marking):
                            enabled = False
                            break
                    if enabled:
                        fired = candidate
                        break
                    # Gate-refused: verified disabled, drop.
                    masks[position] &= ~low
                    viable &= ~low
                if fired is None:
                    continue
                step_idx, step_names, step_bits = complete(row, fired)
                if changes is not None:
                    changed_idx, changed_names = changes[position]
                    changed_idx |= step_idx
                    changed_names |= step_names
                if row.stopped:
                    continue
                masks[position] |= step_bits
                next_positions.append(position)
            positions = next_positions
        raise SANExecutionError(
            f"model {self.model.name!r}: more than {MAX_INSTANTANEOUS_CHAIN} "
            "consecutive instantaneous firings -- unstable (vanishing) loop?"
        )

    # ------------------------------------------------------------------
    # Dependency walks
    # ------------------------------------------------------------------
    def _affected_timed(
        self, changed_idx: Set[int], changed_names: Set[str]
    ) -> Dict[int, CompiledActivity]:
        """Timed activities to re-evaluate, in the oracle's walk order.

        Conservative (undeclared-watch) activities first in declaration
        order, then the changed places walked in *name-sorted* order --
        the insertion order of this dict is the refresh (and therefore
        seq-assignment) order.  Activities the index leaves out cannot
        change enablement, so skipping them schedules exactly what the
        oracle's full re-evaluation schedules.
        """
        compiled = self._compiled
        affected: Dict[int, CompiledActivity] = {
            activity.index: activity for activity in compiled.global_timed
        }
        timed_by_place = compiled.timed_by_place
        if changed_names:
            # Slow path (gate wrote an undeclared place): a literal
            # name-sorted walk over all changed names, declared and
            # undeclared interleaved.
            names = {
                compiled.place_names[index] for index in changed_idx
            } | changed_names
            place_index = compiled.place_index
            timed_by_unknown = compiled.timed_by_unknown
            for name in sorted(names):
                index = place_index.get(name)
                bucket = (
                    timed_by_place.get(index, ())
                    if index is not None
                    else timed_by_unknown.get(name, ())
                )
                for activity in bucket:
                    affected[activity.index] = activity
            return affected
        sort_rank = compiled.place_sort_rank
        for place in sorted(changed_idx, key=sort_rank.__getitem__):
            for activity in timed_by_place.get(place, ()):
                affected[activity.index] = activity
        return affected

    def _refresh_timed(
        self, row: _Row, affected: Sequence[CompiledActivity]
    ) -> None:
        """Re-evaluate enablement of the affected timed activities.

        ``affected`` is ordered: the refresh (and therefore
        seq-assignment) order is :meth:`_affected_timed`'s insertion
        order, the oracle's contract.
        """
        tokens = row.tokens
        marking = row.marking
        comp_row = self._comp[row.index]
        seq_row = self._seqs[row.index]
        samplers = row.samplers
        for activity in affected:
            index = activity.index
            scheduled = comp_row[index] != _INF
            if activity.enabled(tokens, marking):
                if not scheduled:
                    sampler = samplers[index]
                    if sampler is None:
                        sampler = self._make_sampler(row, activity)
                        samplers[index] = sampler
                    comp_row[index] = row.now + sampler(marking)
                    seq_row[index] = row.next_seq
                    row.next_seq += 1
            elif scheduled:
                comp_row[index] = _INF

    # ------------------------------------------------------------------
    # Duration sampling
    # ------------------------------------------------------------------
    def _make_sampler(
        self, row: _Row, activity: CompiledActivity
    ) -> DurationSampler:
        """Per-(row, activity) duration sampler, by compiled duration kind.

        Constants never touch their stream (drawing a constant consumes no
        randomness, so skipping the stream is draw-for-draw identical);
        batchable fixed distributions pre-draw through
        :class:`~repro.san.compiled._BatchedDurationSampler`; everything
        else falls back to the generic one-draw-per-call path.
        """
        kind = activity.duration_kind
        if kind == DURATION_CONSTANT:
            shared = self._constant_samplers.get(activity.index)
            if shared is not None:
                return shared
            constant = activity.constant_duration
            if constant < 0:
                raise ValueError(
                    f"activity {activity.name!r}: sampled a negative "
                    f"duration {constant}"
                )

            def constant_sampler(_marking: Marking, _value: float = constant) -> float:
                return _value

            self._constant_samplers[activity.index] = constant_sampler
            return constant_sampler
        rng = self._stream(row, activity.duration_stream)
        if kind == DURATION_BATCHED:
            return _BatchedDurationSampler(
                activity.distribution, rng, activity.name
            )
        timed_activity = activity.activity

        def generic_sampler(marking: Marking) -> float:
            return timed_activity.sample_duration(marking, rng)  # type: ignore[attr-defined]

        return generic_sampler

    def _stream(self, row: _Row, name: str) -> np.random.Generator:
        """Row ``row``'s stream ``name``, i.e. ``row.streams.stream(name)``.

        The first row to need ``name`` derives the seed words of every
        row at once (:func:`~repro.des.random.derive_stream_words`); each
        row then builds its generator from its own row of that table, and
        it lands in ``row.streams`` like any other stream.
        """
        words = self._stream_words.get(name)
        if words is None:
            words = self._stream_words[name] = derive_stream_words(
                [other.streams for other in self._rows], name
            )
        return row.streams.adopt_stream(name, words[row.index])

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def _finish(self, row: _Row, end_time: float) -> ExecutionResult:
        row.now = end_time
        for reward in row.rewards:
            reward.finalize(row.marking, end_time)
        dead = not row.stopped and not bool(
            np.isfinite(self._comp[row.index]).any()
        )
        return ExecutionResult(
            end_time=end_time,
            stopped_by_predicate=row.stopped,
            dead_marking=dead,
            completions=row.completions,
            final_marking=RowMarking(
                self._compiled, list(row.tokens), row.marking._overflow
            ),
        )


__all__ = [
    "MAX_INSTANTANEOUS_CHAIN",
    "BatchedSANExecutor",
    "ExecutionResult",
    "SANExecutionError",
]
