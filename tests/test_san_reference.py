"""Batched executor vs. the reference oracle.

The production :class:`~repro.san.batched.BatchedSANExecutor` earns its
speed from the compiled model's place-to-activity dependency index,
pre-drawn duration batches and lock-step matrix rounds.  The
:class:`~repro.san.executor.SANExecutor` oracle has none of them: it
re-evaluates everything after every completion and draws one value per
call.  These tests hold the two to identical behaviour -- exact
trajectories on the golden model across many seeds, exact reward values
on the generated consensus model -- and check the compiled dependency
index directly: any activity whose enablement differs between two
markings must be re-evaluated when the places on which they differ
change.
"""

from __future__ import annotations

from typing import Iterable, Set

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.simulator import Simulator
from repro.san.batched import BatchedSANExecutor
from repro.san.compiled import compile_model
from repro.san.executor import SANExecutor, run_replication
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.sanmodels import ConsensusSANExperiment
from repro.sanmodels.consensus_model import build_consensus_model
from tests.test_san_golden_trace import (
    TraceRecorder,
    build_golden_model,
)

#: One shared consensus model for the property tests (read-only use).
_CONSENSUS_MODEL = build_consensus_model(3)
_CONSENSUS_PLACES = sorted(place.name for place in _CONSENSUS_MODEL.places)
_CONSENSUS_COMPILED = compile_model(_CONSENSUS_MODEL)


def enabled_activity_names(model: SANModel, marking: Marking) -> Set[str]:
    """Brute-force enablement: every activity checked against ``marking``."""
    return {
        activity.name
        for activity in model.activities
        if activity.enabled(marking)
    }


def affected_activity_names(changed: Iterable[str]) -> Set[str]:
    """Activities the compiled dependency tables re-check when ``changed`` change.

    Unwatched-gate activities are re-checked after every completion; the
    others are indexed under the places they read (declared places by
    index, undeclared watched names by name).
    """
    compiled = _CONSENSUS_COMPILED
    affected = [*compiled.global_timed, *compiled.global_inst]
    for name in changed:
        index = compiled.place_index.get(name)
        if index is None:
            affected += compiled.timed_by_unknown.get(name, ())
            affected += compiled.inst_by_unknown.get(name, ())
        else:
            affected += compiled.timed_by_place.get(index, ())
            affected += compiled.inst_by_place.get(index, ())
    return {activity.name for activity in affected}


def _run_both(seed: int, until: float = 25.0):
    traces = []
    for executor_class in (SANExecutor, BatchedSANExecutor):
        sim = Simulator(seed=seed)
        recorder = TraceRecorder()
        executor = executor_class(build_golden_model(), sim, rewards=[recorder])
        outcome = executor.run(until=until)
        traces.append((recorder.events, outcome))
    return traces


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_reference_and_optimized_traces_agree_on_golden_model(seed):
    (events_a, outcome_a), (events_b, outcome_b) = _run_both(seed)
    assert events_a == events_b
    assert outcome_a.completions == outcome_b.completions
    assert outcome_a.end_time == outcome_b.end_time
    assert outcome_a.final_marking == outcome_b.final_marking


def test_reference_and_optimized_rewards_agree_on_consensus_model():
    # solve() runs lock-step batches; every replication must equal the
    # oracle's run of the same index.
    solver = ConsensusSANExperiment(n_processes=3, seed=7).solver()
    solved = solver.solve(replications=10)
    for index, fast in enumerate(solved.replications):
        slow = run_replication(solver, index)
        assert fast.replication == slow.replication == index
        assert fast.rewards == slow.rewards, index
        assert fast.end_time == slow.end_time, index
        assert fast.stopped_by_predicate == slow.stopped_by_predicate, index


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_dependency_index_covers_every_enablement_flip(data):
    # Draw a base marking and a mutation of it over the consensus model's
    # places; every activity whose enablement flips between the two must be
    # in the compiled tables' affected set of the places on which they
    # differ.
    places = data.draw(
        st.lists(
            st.sampled_from(_CONSENSUS_PLACES), min_size=1, max_size=12, unique=True
        )
    )
    base_counts = {
        place: data.draw(st.integers(min_value=0, max_value=2), label=f"base[{place}]")
        for place in places
    }
    mutated_counts = dict(base_counts)
    mutated_places = data.draw(
        st.lists(st.sampled_from(places), min_size=1, max_size=6, unique=True)
    )
    for place in mutated_places:
        mutated_counts[place] = data.draw(
            st.integers(min_value=0, max_value=3), label=f"mutated[{place}]"
        )

    base = Marking(base_counts)
    mutated = Marking(mutated_counts)
    changed = {
        place for place in places if base_counts[place] != mutated_counts[place]
    }
    affected = affected_activity_names(changed)

    flipped = enabled_activity_names(
        _CONSENSUS_MODEL, base
    ) ^ enabled_activity_names(_CONSENSUS_MODEL, mutated)
    missed = flipped - affected
    assert not missed, (
        f"activities {sorted(missed)} changed enablement on places "
        f"{sorted(changed)} but the dependency index would not re-check them"
    )


def test_scheduled_activities_match_brute_force_enablement():
    # At any pause of the event loop each executor's scheduled set must be
    # exactly the brute-force-enabled timed activities (tangible marking:
    # no instantaneous activity still enabled).
    model = build_golden_model()
    timed_names = {activity.name for activity in model.timed_activities}
    for executor_class in (SANExecutor, BatchedSANExecutor):
        executor = executor_class(model, Simulator(seed=2024))
        executor.run(until=3.0)
        enabled = enabled_activity_names(model, executor.marking)
        assert enabled <= timed_names  # tangible: no instantaneous enabled
        assert executor.scheduled_activity_names() == enabled, executor_class


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_batched_enablement_mask_agrees_with_full_reevaluation(data):
    # Build a small batch of random consensus markings and check that the
    # batched executor's vectorised enablement mask matches the reference
    # full re-evaluation (enabled_activity_names) row by row.
    batch = []
    for row in range(data.draw(st.integers(min_value=1, max_value=4))):
        places = data.draw(
            st.lists(
                st.sampled_from(_CONSENSUS_PLACES),
                min_size=1,
                max_size=12,
                unique=True,
            ),
            label=f"places[{row}]",
        )
        counts = {
            place: data.draw(
                st.integers(min_value=0, max_value=2),
                label=f"tokens[{row}][{place}]",
            )
            for place in places
        }
        batch.append(Marking(counts))

    executor = BatchedSANExecutor.for_batch(
        _CONSENSUS_MODEL,
        seeds=list(range(len(batch))),
        rewards_per_row=[[] for _ in batch],
        initial_markings=batch,
    )
    for row, marking in enumerate(batch):
        expected = enabled_activity_names(_CONSENSUS_MODEL, marking)
        assert executor.enabled_activity_names(row) == expected, row


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_matrix_instantaneous_firing_agrees_with_reference_executor(data):
    # Start a batch from random consensus markings -- many of which enable
    # instantaneous activities immediately, so the lock-step chain
    # walker (batched.py) fires whole cascades at start-up -- and hold
    # every row to the oracle run of the same (marking, seed): identical
    # end time, completion count and final marking.  The oracle
    # re-evaluates everything from scratch each step, so agreement here
    # pins the chain's firing *order* contract, not just its
    # enablement bookkeeping.
    batch = []
    for row in range(data.draw(st.integers(min_value=1, max_value=3))):
        places = data.draw(
            st.lists(
                st.sampled_from(_CONSENSUS_PLACES),
                min_size=1,
                max_size=12,
                unique=True,
            ),
            label=f"places[{row}]",
        )
        counts = {
            place: data.draw(
                st.integers(min_value=0, max_value=2),
                label=f"tokens[{row}][{place}]",
            )
            for place in places
        }
        batch.append(Marking(counts))
    seeds = [
        data.draw(
            st.integers(min_value=0, max_value=2**31 - 1), label=f"seed[{row}]"
        )
        for row in range(len(batch))
    ]

    executor = BatchedSANExecutor.for_batch(
        _CONSENSUS_MODEL,
        seeds=seeds,
        rewards_per_row=[[] for _ in batch],
        initial_markings=batch,
    )
    outcomes = executor.run_batch(until=5.0)

    for row, (marking, seed, outcome) in enumerate(
        zip(batch, seeds, outcomes, strict=True)
    ):
        reference = SANExecutor(
            _CONSENSUS_MODEL, Simulator(seed=seed), initial_marking=marking
        )
        expected = reference.run(until=5.0)
        assert outcome.end_time == expected.end_time, row
        assert outcome.completions == expected.completions, row
        assert outcome.final_marking == expected.final_marking, row


class _WordCheckingExecutor(BatchedSANExecutor):
    """Checks every row's arc words after each completion against the
    padded arc table recomputed from the row's tokens."""

    checked = 0

    def _complete(self, row, activity):
        outcome = super()._complete(row, activity)
        compiled = self._compiled
        full = (1 << compiled.n_inst) - 1
        word = full
        for slot_word in row.arc_words:
            word &= slot_word
        tokens = np.array([row.tokens], dtype=np.int64)
        assert word == compiled.inst_arcs.words(tokens)[0] & full, activity.name
        self.checked += 1
        return outcome


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_arc_words_equal_the_arc_table_after_every_completion(data):
    # The same random consensus markings as the matrix-firing property;
    # instantaneous cascades at start-up and gate writes along the run
    # both move arc places, and the incrementally updated words must
    # always be the ones a from-scratch arc table pass computes.
    batch = []
    for row in range(data.draw(st.integers(min_value=1, max_value=3))):
        places = data.draw(
            st.lists(
                st.sampled_from(_CONSENSUS_PLACES),
                min_size=1,
                max_size=12,
                unique=True,
            ),
            label=f"places[{row}]",
        )
        counts = {
            place: data.draw(
                st.integers(min_value=0, max_value=2),
                label=f"tokens[{row}][{place}]",
            )
            for place in places
        }
        batch.append(Marking(counts))
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1), label="seed")

    executor = _WordCheckingExecutor.for_batch(
        _CONSENSUS_MODEL,
        seeds=[seed + row for row in range(len(batch))],
        rewards_per_row=[[] for _ in batch],
        initial_markings=batch,
    )
    outcomes = executor.run_batch(until=20.0)
    assert executor.checked == sum(outcome.completions for outcome in outcomes)
