"""Tests of the SAN compilation layer (:mod:`repro.san.compiled`).

The compiled model is a pure lowering of the object graph to integer
indices: these tests pin the index tables (ordering contracts, duration
classification, dependency index) and the :class:`RowMarking` adapter
that lets gate closures and rewards read a token-matrix row through the
plain :class:`Marking` interface.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.san import (
    InputGate,
    InstantaneousActivity,
    Marking,
    Place,
    SANModel,
    TimedActivity,
)
from repro.san.compiled import (
    ArcTable,
    DURATION_BATCHED,
    DURATION_CONSTANT,
    DURATION_GENERIC,
    RowMarking,
    compile_model,
)
from repro.sanmodels.consensus_model import build_consensus_model
from repro.stats.distributions import (
    BimodalUniform,
    Constant,
    Exponential,
    Mixture,
    Shifted,
)
from tests.test_san_golden_trace import build_golden_model


def test_compiled_model_is_cached_by_structure_version():
    model = build_golden_model()
    first = compile_model(model)
    assert compile_model(model) is first
    # A structural change invalidates the cache.
    model.add_place(Place("extra", 0))
    second = compile_model(model)
    assert second is not first
    assert second.version == model.structure_version
    assert "extra" in second.place_index


def test_place_tables_preserve_declaration_order():
    model = build_golden_model()
    compiled = compile_model(model)
    assert compiled.place_names == tuple(place.name for place in model.places)
    assert compiled.initial_tokens == tuple(place.initial for place in model.places)
    for name, index in compiled.place_index.items():
        assert compiled.place_names[index] == name
    # place_sort_rank reproduces name-sorted order from indices.
    by_rank = sorted(
        range(compiled.n_places), key=compiled.place_sort_rank.__getitem__
    )
    assert [compiled.place_names[i] for i in by_rank] == sorted(
        compiled.place_names
    )


def test_activity_ordering_contracts():
    model = SANModel("ordering")
    model.add_place(Place("p", 1))
    model.add_activity(
        InstantaneousActivity("late", input_arcs=["p"], rank=5)
    )
    model.add_activity(
        InstantaneousActivity("early", input_arcs=["p"], rank=0)
    )
    model.add_activity(
        InstantaneousActivity("tied", input_arcs=["p"], rank=5)
    )
    model.add_activity(TimedActivity("t2", Exponential(1.0), input_arcs=["p"]))
    model.add_activity(TimedActivity("t1", Exponential(1.0), input_arcs=["p"]))
    compiled = compile_model(model)
    # Timed: declaration order; instantaneous: rank-sorted with the
    # declaration order breaking ties (the oracle's firing precedence).
    assert [a.name for a in compiled.timed] == ["t2", "t1"]
    assert [a.name for a in compiled.instantaneous] == ["early", "late", "tied"]
    assert [a.index for a in compiled.instantaneous] == [0, 1, 2]


def test_duration_kind_classification():
    model = SANModel("kinds")
    model.add_place(Place("p", 1))
    model.add_activity(TimedActivity("const", Constant(0.5), input_arcs=["p"]))
    model.add_activity(
        TimedActivity("batched", Exponential(1.0), input_arcs=["p"])
    )
    model.add_activity(
        TimedActivity(
            "shifted", Shifted(0.1, Exponential(1.0)), input_arcs=["p"]
        )
    )
    model.add_activity(
        TimedActivity("bimodal", BimodalUniform(), input_arcs=["p"])
    )
    model.add_activity(
        TimedActivity(
            "mixture",
            Mixture([(1.0, Exponential(1.0))]),
            input_arcs=["p"],
        )
    )
    compiled = compile_model(model)
    kinds = {a.name: a.duration_kind for a in compiled.timed}
    assert kinds == {
        "const": DURATION_CONSTANT,
        "batched": DURATION_BATCHED,
        "shifted": DURATION_BATCHED,
        # All-Uniform mixtures (the paper's bimodal delay fit) batch via
        # the inverse-CDF scheme; other mixtures stay on the generic path.
        "bimodal": DURATION_BATCHED,
        "mixture": DURATION_GENERIC,
    }
    const = next(a for a in compiled.timed if a.name == "const")
    assert const.constant_duration == 0.5


def test_dependency_index_routes_gates_by_watch_list():
    model = SANModel("deps")
    model.add_place(Place("a", 1))
    model.add_place(Place("b", 0))
    model.add_activity(
        TimedActivity(
            "declared",
            Exponential(1.0),
            input_arcs=["a"],
            input_gates=[
                InputGate(
                    "watch_b",
                    predicate=lambda m: m["b"] == 0,
                    watched_places=("b",),
                )
            ],
        )
    )
    model.add_activity(
        TimedActivity(
            "conservative",
            Exponential(1.0),
            input_arcs=["a"],
            input_gates=[InputGate("opaque", predicate=lambda m: True)],
        )
    )
    model.add_activity(
        TimedActivity(
            "phantom",
            Exponential(1.0),
            input_arcs=["a"],
            input_gates=[
                InputGate(
                    "watch_undeclared",
                    predicate=lambda m: m["ghost"] == 0,
                    watched_places=("ghost",),
                )
            ],
        )
    )
    compiled = compile_model(model)
    index_a = compiled.place_index["a"]
    index_b = compiled.place_index["b"]
    by_a = {activity.name for activity in compiled.timed_by_place[index_a]}
    assert by_a == {"declared", "phantom"}
    by_b = {activity.name for activity in compiled.timed_by_place[index_b]}
    assert by_b == {"declared"}
    # Empty watch list: conservative, re-evaluated after every completion.
    assert [a.name for a in compiled.global_timed] == ["conservative"]
    # Watched names outside the model go to the name-keyed side index
    # (NOT the conservative list).
    assert {
        name: [a.name for a in activities]
        for name, activities in compiled.timed_by_unknown.items()
    } == {"ghost": ["phantom"]}


def test_arc_enabled_mask_matches_per_row_checks():
    compiled = compile_model(build_consensus_model(3))
    rng = np.random.default_rng(7)
    tokens = rng.integers(0, 3, size=(16, compiled.n_places))
    activities = compiled.timed + compiled.instantaneous
    mask = compiled.arc_enabled_mask(tokens, activities)
    for row in range(tokens.shape[0]):
        for column, activity in enumerate(activities):
            expected = all(
                tokens[row, place] >= weight
                for place, weight in activity.input_arcs
            )
            assert mask[row, column] == expected


def _arc_model(data, n_inst, max_arcs):
    """A model of ``n_inst`` instantaneous activities with random input arcs."""
    n_places = data.draw(st.integers(min_value=1, max_value=6), label="places")
    model = SANModel("arcs")
    for place in range(n_places):
        model.add_place(Place(f"p{place}", 0))
    for index in range(n_inst):
        arcs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n_places - 1).map(
                        lambda place: f"p{place}"
                    ),
                    st.integers(min_value=1, max_value=3),
                ),
                max_size=max_arcs,
                unique_by=lambda arc: arc[0],
            ),
            label=f"arcs[{index}]",
        )
        rank = data.draw(st.integers(min_value=0, max_value=3), label="rank")
        model.add_activity(
            InstantaneousActivity(f"i{index}", input_arcs=arcs, rank=rank)
        )
    return model


@given(
    data=st.data(),
    n_inst=st.one_of(
        st.integers(min_value=1, max_value=62),
        st.integers(min_value=63, max_value=90),
    ),
    max_arcs=st.sampled_from([0, 1, 3]),
)
@settings(max_examples=40, deadline=None)
def test_padded_arc_table_words_match_per_activity_arc_checks(data, n_inst, max_arcs):
    # Up to and past the 62 activities an int64 word holds; max_arcs=0 is
    # a model without instantaneous arcs (table width 0).
    compiled = compile_model(_arc_model(data, n_inst, max_arcs))
    table = compiled.inst_arcs
    width = max(len(a.input_arcs) for a in compiled.instantaneous)
    assert table.places.shape == (width, -(-n_inst // 8) * 8)
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
    batch = data.draw(st.integers(min_value=1, max_value=5), label="rows")
    tokens = np.random.default_rng(seed).integers(
        0, 4, size=(batch, compiled.n_places)
    )
    words = table.words(tokens)
    assert len(words) == batch
    for row, word in enumerate(words):
        for activity in compiled.instantaneous:
            expected = all(
                tokens[row, place] >= weight
                for place, weight in activity.input_arcs
            )
            assert bool(word >> activity.index & 1) == expected, (row, activity.name)
    mask = compiled.arc_enabled_mask(tokens, compiled.instantaneous)
    assert mask.shape == (batch, n_inst)
    assert mask.tolist() == [
        [bool(word >> column & 1) for column in range(n_inst)] for word in words
    ]


def test_arc_table_pads_arcless_activities_and_whole_bytes():
    model = SANModel("padding")
    model.add_place(Place("p", 0))
    model.add_activity(InstantaneousActivity("arcless"))
    model.add_activity(InstantaneousActivity("heavy", input_arcs=[("p", 2)]))
    compiled = compile_model(model)
    table = compiled.inst_arcs
    assert table.places.tolist() == [[0] * 8]
    assert table.weights.tolist() == [[0, 2, 0, 0, 0, 0, 0, 0]]
    tokens = np.array([[0], [1], [2]], dtype=np.int64)
    # Bit 0 (arc-less) and the six padding columns always hold.
    assert table.words(tokens) == [0b11111101, 0b11111101, 0b11111111]
    assert ArcTable(()).words(tokens) == [0, 0, 0]


def test_enablement_mask_applies_gate_predicates_per_row():
    model = SANModel("gated")
    model.add_place(Place("p", 1))
    model.add_place(Place("flag", 0))
    model.add_activity(
        TimedActivity(
            "gated",
            Exponential(1.0),
            input_arcs=["p"],
            input_gates=[
                InputGate(
                    "needs_flag",
                    predicate=lambda m: m["flag"] > 0,
                    watched_places=("flag",),
                )
            ],
        )
    )
    compiled = compile_model(model)
    rows = [[1, 0], [1, 1], [0, 1]]
    markings = [RowMarking(compiled, row) for row in rows]
    mask = compiled.enablement_mask(
        np.array(rows, dtype=np.int64), compiled.timed, markings
    )
    # Row 0: arcs ok, gate fails; row 1: both ok; row 2: arcs fail (and
    # the gate predicate must not even run where the arc mask is False).
    assert mask[:, 0].tolist() == [False, True, False]


# ----------------------------------------------------------------------
# RowMarking
# ----------------------------------------------------------------------
@pytest.fixture
def row_marking():
    compiled = compile_model(build_golden_model())
    row = list(compiled.initial_tokens)
    return compiled, row, RowMarking(compiled, row)


def test_row_marking_reads_and_writes_the_row(row_marking):
    compiled, row, marking = row_marking
    assert marking["pool"] == 3
    marking["pool"] = 1
    assert row[compiled.place_index["pool"]] == 1
    assert marking["pool"] == 1
    assert len(marking) == compiled.n_places
    assert set(marking) == set(compiled.place_names)
    assert "pool" in marking
    assert "nonexistent" not in marking


def test_row_marking_rejects_negative_counts(row_marking):
    _compiled, _row, marking = row_marking
    with pytest.raises(ValueError, match="would become negative"):
        marking["pool"] = -1
    with pytest.raises(ValueError, match="would become negative"):
        marking["ghost"] = -2


def test_row_marking_journals_changed_indices(row_marking):
    compiled, _row, marking = row_marking
    marking["pool"] = 2
    marking["done"] = 1
    marking["fast"] = 0  # no-op write: already 0, must not journal
    changed_idx, changed_names = marking.take_changes()
    assert changed_idx == {
        compiled.place_index["pool"],
        compiled.place_index["done"],
    }
    assert changed_names == set()
    # The journal is consumed.
    assert marking.take_changes() == (set(), set())
    # consume_changes gives Marking-interface name parity.
    marking["slow"] = 2
    assert marking.consume_changes() == {"slow"}


def test_row_marking_overflow_names(row_marking):
    _compiled, _row, marking = row_marking
    assert marking["ghost"] == 0  # undeclared reads default to zero
    marking["ghost"] = 2
    changed_idx, changed_names = marking.take_changes()
    assert changed_idx == set()
    assert changed_names == {"ghost"}
    assert marking["ghost"] == 2
    assert "ghost" in marking
    assert marking.as_dict()["ghost"] == 2
    assert marking.total_tokens() == 3 + 2


def test_row_marking_snapshots_are_independent(row_marking):
    _compiled, row, marking = row_marking
    snapshot = marking.copy()
    assert isinstance(snapshot, Marking)
    assert snapshot.as_dict() == marking.as_dict()
    marking["pool"] = 0
    assert snapshot["pool"] == 3  # the copy does not alias the row
    frozen = marking.freeze()
    assert frozen["pool"] == 0
    assert row[0] == 0 or marking["pool"] == 0
    assert marking.as_dict(drop_zeros=True).get("pool") is None


def test_row_marking_equals_plain_marking(row_marking):
    _compiled, _row, marking = row_marking
    plain = Marking(marking.as_dict())
    assert marking == plain
