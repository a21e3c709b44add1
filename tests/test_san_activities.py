"""Tests of SAN places, gates, cases and activities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.san.activities import Case, InstantaneousActivity, TimedActivity
from repro.san.gates import InputGate, OutputGate
from repro.san.marking import Marking
from repro.san.places import Place
from repro.stats.distributions import Constant, Exponential

RNG = np.random.default_rng(0)


def test_place_validation():
    with pytest.raises(ValueError):
        Place("", 0)
    with pytest.raises(ValueError):
        Place("p", -1)
    assert Place("p", 2).renamed("x.").name == "x.p"


def test_activity_enabled_by_input_arcs():
    activity = TimedActivity("t", Constant(1.0), input_arcs=["a", ("b", 2)])
    assert not activity.enabled(Marking({"a": 1, "b": 1}))
    assert activity.enabled(Marking({"a": 1, "b": 2}))


def test_input_gate_predicate_participates_in_enabling():
    gate = InputGate("g", predicate=lambda m: m["x"] >= 3, watched_places=("x",))
    activity = TimedActivity("t", Constant(1.0), input_arcs=["a"], input_gates=[gate])
    assert not activity.enabled(Marking({"a": 1, "x": 2}))
    assert activity.enabled(Marking({"a": 1, "x": 3}))


def test_completion_applies_arcs_and_gates_in_san_order():
    trace = []
    input_gate = InputGate(
        "ig", predicate=lambda m: True, function=lambda m: trace.append("input-gate")
    )
    output_gate = OutputGate("og", function=lambda m: trace.append("output-gate"))
    activity = TimedActivity(
        "t",
        Constant(1.0),
        input_arcs=[("a", 1)],
        input_gates=[input_gate],
        cases=[Case.build(output_arcs=[("b", 2)], output_gates=[output_gate])],
    )
    marking = Marking({"a": 1})
    activity.complete(marking, activity.cases[0])
    assert marking["a"] == 0
    assert marking["b"] == 2
    assert trace == ["input-gate", "output-gate"]


def test_case_weights_can_depend_on_the_marking():
    activity = InstantaneousActivity(
        "i",
        input_arcs=["a"],
        cases=[
            Case.build(probability=lambda m: m["heads"], output_arcs=["h"]),
            Case.build(probability=lambda m: m["tails"], output_arcs=["t"]),
        ],
    )
    marking = Marking({"a": 1, "heads": 1, "tails": 0})
    chosen = activity.choose_case(marking, RNG)
    assert chosen.output_arcs == (("h", 1),)


def test_case_selection_follows_probabilities():
    activity = InstantaneousActivity(
        "i",
        input_arcs=["a"],
        cases=[
            Case.build(probability=0.75, output_arcs=["x"], label="x"),
            Case.build(probability=0.25, output_arcs=["y"], label="y"),
        ],
    )
    rng = np.random.default_rng(3)
    marking = Marking({"a": 1})
    labels = [activity.choose_case(marking, rng).label for _ in range(2000)]
    fraction_x = labels.count("x") / len(labels)
    assert fraction_x == pytest.approx(0.75, abs=0.04)


def test_zero_total_case_probability_raises():
    activity = InstantaneousActivity(
        "i",
        cases=[Case.build(probability=0.0), Case.build(probability=0.0)],
    )
    with pytest.raises(ValueError):
        activity.choose_case(Marking(), RNG)


def test_single_case_skips_probability_evaluation():
    activity = InstantaneousActivity("i", cases=[Case.build(probability=0.0)])
    assert activity.choose_case(Marking(), RNG) is activity.cases[0]


def test_timed_activity_samples_from_marking_dependent_distribution():
    activity = TimedActivity(
        "t",
        distribution=lambda marking: Constant(float(marking["speed"])),
        input_arcs=["a"],
    )
    assert activity.sample_duration(Marking({"speed": 4}), RNG) == 4.0


def test_timed_activity_rejects_negative_weights_and_names():
    with pytest.raises(ValueError):
        TimedActivity("t", Constant(1.0), input_arcs=[("a", 0)])
    with pytest.raises(ValueError):
        TimedActivity("", Constant(1.0))


def test_exponential_timed_activity_samples_nonnegative_durations():
    activity = TimedActivity("t", Exponential(2.0))
    assert all(activity.sample_duration(Marking(), RNG) >= 0 for _ in range(100))


def test_instantaneous_activity_reports_not_timed():
    assert not InstantaneousActivity("i").timed
    assert TimedActivity("t", Constant(1.0)).timed


def test_default_case_added_when_none_given():
    activity = InstantaneousActivity("i", input_arcs=["a"])
    assert len(activity.cases) == 1
    marking = Marking({"a": 1})
    activity.complete(marking, activity.cases[0])
    assert marking["a"] == 0


def test_input_gate_renaming_translates_watched_places_and_marking_access():
    gate = InputGate(
        "g",
        predicate=lambda m: m["count"] >= 1,
        function=lambda m: m.add("count"),
        watched_places=("count",),
    )
    renamed = gate.renamed("p1.", lambda name: f"p1.{name}")
    assert renamed.watched_places == ("p1.count",)
    marking = Marking({"p1.count": 1})
    assert renamed.enabled(marking)
    renamed.apply(marking)
    assert marking["p1.count"] == 2


# ----------------------------------------------------------------------
# choose_case reproduces Generator.choice draw for draw
# ----------------------------------------------------------------------
_WEIGHTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=5e-324, max_value=1e-300),
    st.integers(min_value=1, max_value=5).map(float),
)


def _activity_with_weights(weights, dependent):
    # A callable case reads the marking ("k" holds 2 tokens) and returns
    # its weight, so marking-dependent probabilities take the same path.
    cases = []
    for index, (weight, marking_dependent) in enumerate(
        zip(weights, dependent, strict=True)
    ):
        probability = (
            (lambda m, w=weight: w * m["k"] / 2) if marking_dependent else weight
        )
        cases.append(Case.build(probability=probability, label=str(index)))
    return InstantaneousActivity("i", cases=cases)


def _generator_choice(weights, rng):
    # What choose_case reproduces: its checks for negative and all-zero
    # weights, then numpy's own weighted choice (which rejects the rest).
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("negative case probability")
    total = float(w.sum())
    if total <= 0:
        raise ValueError("case probabilities sum to zero")
    return int(rng.choice(len(w), p=w / total))


@given(
    data=st.data(),
    size=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_choose_case_matches_generator_choice_and_generator_state(data, size, seed):
    weights = data.draw(
        st.lists(_WEIGHTS, min_size=size, max_size=size).filter(
            lambda w: 0.0 < float(np.asarray(w).sum()) < float("inf")
        ),
        label="weights",
    )
    dependent = data.draw(
        st.lists(st.booleans(), min_size=size, max_size=size), label="dependent"
    )
    activity = _activity_with_weights(weights, dependent)
    marking = Marking({"k": 2})
    ours = np.random.default_rng(seed)
    theirs = np.random.default_rng(seed)
    for _ in range(3):
        chosen = activity.choose_case(marking, ours)
        assert int(chosen.label) == _generator_choice(weights, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state


def _untemper(value):
    # Inverse of MT19937's output tempering.
    def unshift(value, shift, mask, left):
        result = value
        for _ in range(32 // shift + 1):
            shifted = (result << shift) & mask if left else result >> shift
            result = value ^ shifted
        return result & 0xFFFFFFFF

    value = unshift(value, 18, 0xFFFFFFFF, left=False)
    value = unshift(value, 15, 0xEFC60000, left=True)
    value = unshift(value, 7, 0x9D2C5680, left=True)
    return unshift(value, 11, 0xFFFFFFFF, left=False)


def _generator_drawing(u):
    """A Generator whose next ``random()`` is ``u`` (a multiple of 2**-53).

    MT19937 builds a double from two tempered 32-bit outputs (the top 27
    and 26 bits), so presetting the first two state words sets the draw.
    """
    k = int(u * 2**53)
    bit_generator = np.random.MT19937(0)
    state = bit_generator.state
    key = state["state"]["key"].copy()
    key[0] = _untemper((k >> 26) << 5)
    key[1] = _untemper((k & (2**26 - 1)) << 6)
    state["state"] = {"key": key, "pos": 0}
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _assert_matches_on_cdf_boundaries(weights):
    # Draw exactly each CDF entry numpy builds (and the double below it):
    # a pick off by one ulp anywhere in the CDF shows up here.
    activity = _activity_with_weights(weights, [False] * len(weights))
    w = np.asarray(weights, dtype=float)
    cdf = np.cumsum(w / w.sum())
    cdf /= cdf[-1]
    draws = {float(u) for u in np.concatenate([cdf, np.nextafter(cdf, 0.0)])}
    checked = 0
    for u in sorted(draws):
        if not 0.0 <= u < 1.0 or u * 2**53 != int(u * 2**53):
            continue  # not a value random() can return
        ours, theirs = _generator_drawing(u), _generator_drawing(u)
        chosen = activity.choose_case(Marking(), ours)
        assert int(chosen.label) == _generator_choice(weights, theirs), u
        ours_state = ours.bit_generator.state["state"]
        theirs_state = theirs.bit_generator.state["state"]
        assert ours_state["pos"] == theirs_state["pos"]
        assert np.array_equal(ours_state["key"], theirs_state["key"])
        checked += 1
    return checked


def test_generator_drawing_presets_the_next_double():
    for u in (0.0, 0.25, 0.5 + 2**-53, 1.0 - 2**-53):
        assert _generator_drawing(u).random() == u


def test_choose_case_matches_generator_choice_where_the_sum_turns_pairwise():
    # From 8 terms on numpy's sum is pairwise: here it rounds to 1e16 + 8,
    # a left-to-right sum to 1e16, which moves the first CDF boundary.
    assert _assert_matches_on_cdf_boundaries([1e16] + [1.0] * 8) > 0


@given(
    weights=st.lists(_WEIGHTS, min_size=2, max_size=10).filter(
        lambda w: 0.0 < float(np.asarray(w).sum()) < float("inf")
    )
)
@settings(max_examples=200, deadline=None)
def test_choose_case_matches_generator_choice_on_cdf_boundaries(weights):
    _assert_matches_on_cdf_boundaries(weights)


@given(
    data=st.data(),
    bad=st.sampled_from([-1.0, -1e-300, float("nan"), float("inf")]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_choose_case_rejects_invalid_weights_like_generator_choice(data, bad, seed):
    weights = data.draw(
        st.lists(_WEIGHTS, min_size=1, max_size=9), label="weights"
    )
    weights.insert(data.draw(st.integers(0, len(weights)), label="at"), bad)
    activity = _activity_with_weights(weights, [False] * len(weights))
    ours = np.random.default_rng(seed)
    before = ours.bit_generator.state
    with pytest.raises(ValueError):
        activity.choose_case(Marking(), ours)
    # Validation precedes the draw, as in Generator.choice.
    assert ours.bit_generator.state == before
    with pytest.raises(ValueError):
        _generator_choice(weights, np.random.default_rng(seed))


@pytest.mark.parametrize("weights", [[0.0] * 9, [1e308, 1e308]])
def test_choose_case_rejects_zero_and_overflowing_totals(weights):
    # All-zero weights on the pairwise-sum path; finite weights whose sum
    # overflows (numpy: "probabilities do not sum to 1").
    activity = _activity_with_weights(weights, [False] * len(weights))
    with pytest.raises(ValueError):
        activity.choose_case(Marking(), np.random.default_rng(0))
    with pytest.raises(ValueError), np.errstate(over="ignore"):
        _generator_choice(weights, np.random.default_rng(0))
