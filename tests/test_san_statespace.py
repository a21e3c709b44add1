"""Tests of the reachability-graph state-space generator."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.sanmodels.compare_suite import compare_model_spec

from repro.san import (
    Case,
    InputGate,
    InstantaneousActivity,
    Marking,
    NonMarkovianModelError,
    Place,
    SANModel,
    StateSpaceError,
    TimedActivity,
    generate_state_space,
)
from repro.sanmodels import exponential_consensus_model, exponential_unicast_burst_model
from repro.sanmodels.consensus_model import consensus_stop_predicate
from repro.stats.distributions import Constant, Exponential, Uniform


def birth_death_model(capacity: int = 3) -> SANModel:
    """M/M/1/c queue: arrivals at rate 2, service at rate 1."""
    model = SANModel("birth-death")
    model.add_place(Place("queue", 0))
    model.add_place(Place("free", capacity))
    model.add_activity(
        TimedActivity(
            "arrive",
            Exponential(0.5),
            input_arcs=["free"],
            cases=[Case.build(output_arcs=["queue"])],
        )
    )
    model.add_activity(
        TimedActivity(
            "serve",
            Exponential(1.0),
            input_arcs=["queue"],
            cases=[Case.build(output_arcs=["free"])],
        )
    )
    return model


def test_birth_death_chain_structure():
    space = generate_state_space(birth_death_model(capacity=3))
    assert space.n_states == 4
    assert not space.absorbing.any()
    q = space.generator().toarray()
    # Rows of a generator sum to zero.
    assert np.allclose(q.sum(axis=1), 0.0)
    # Tridiagonal birth-death rates: up at 2, down at 1.
    empty = space.index_of(Marking({"free": 3}))
    full = space.index_of(Marking({"queue": 3}))
    assert q[empty, empty] == pytest.approx(-2.0)
    assert q[full, full] == pytest.approx(-1.0)


def test_initial_distribution_is_a_point_mass_for_tangible_start():
    space = generate_state_space(birth_death_model())
    assert space.initial_distribution.sum() == pytest.approx(1.0)
    assert space.initial_distribution[space.index_of(Marking({"free": 3}))] == 1.0
    assert space.initial_completions == {}


def test_stop_predicate_states_are_absorbing():
    space = generate_state_space(
        birth_death_model(), stop_predicate=lambda marking: marking["queue"] >= 2
    )
    # Exploration stops at queue == 2: states 0, 1 transient, 2 absorbing.
    assert space.n_states == 3
    assert space.stop_mask.sum() == 1
    stopped = space.index_of(Marking({"queue": 2, "free": 1}))
    assert space.absorbing[stopped]
    assert space.generator().toarray()[stopped].sum() == pytest.approx(0.0)


def test_vanishing_markings_are_eliminated_with_case_probabilities():
    model = SANModel("vanishing")
    model.add_place(Place("start", 1))
    model.add_place(Place("left", 0))
    model.add_place(Place("right", 0))
    model.add_place(Place("done", 0))
    model.add_activity(
        InstantaneousActivity(
            "branch",
            input_arcs=["start"],
            cases=[
                Case.build(probability=0.25, output_arcs=["left"]),
                Case.build(probability=0.75, output_arcs=["right"]),
            ],
        )
    )
    model.add_activity(
        TimedActivity(
            "finish_left",
            Exponential(1.0),
            input_arcs=["left"],
            cases=[Case.build(output_arcs=["done"])],
        )
    )
    model.add_activity(
        TimedActivity(
            "finish_right",
            Exponential(2.0),
            input_arcs=["right"],
            cases=[Case.build(output_arcs=["done"])],
        )
    )
    space = generate_state_space(model)
    # The vanishing "start" marking never appears as a state.
    assert space.n_states == 3
    left = space.index_of(Marking({"left": 1}))
    right = space.index_of(Marking({"right": 1}))
    assert space.initial_distribution[left] == pytest.approx(0.25)
    assert space.initial_distribution[right] == pytest.approx(0.75)
    # The instantaneous firing of the initial stabilisation is recorded.
    assert space.initial_completions == {"branch": pytest.approx(1.0)}


def test_instantaneous_rank_tie_break_matches_executor():
    # Two enabled instantaneous activities: the lower rank consumes the
    # token first, so only its branch exists.
    model = SANModel("ranked")
    model.add_place(Place("token", 1))
    model.add_place(Place("low", 0))
    model.add_place(Place("high", 0))
    model.add_place(Place("sink", 0))
    model.add_activity(
        InstantaneousActivity(
            "second", input_arcs=["token"], cases=[Case.build(output_arcs=["high"])],
            rank=5,
        )
    )
    model.add_activity(
        InstantaneousActivity(
            "first", input_arcs=["token"], cases=[Case.build(output_arcs=["low"])],
            rank=1,
        )
    )
    model.add_activity(
        TimedActivity(
            "drain_low",
            Exponential(1.0),
            input_arcs=["low"],
            cases=[Case.build(output_arcs=["sink"])],
        )
    )
    model.add_activity(
        TimedActivity(
            "drain_high",
            Exponential(1.0),
            input_arcs=["high"],
            cases=[Case.build(output_arcs=["sink"])],
        )
    )
    space = generate_state_space(model)
    markings = [state.as_dict() for state in space.states]
    assert {"low": 1} in markings
    assert {"high": 1} not in markings


def test_non_exponential_activities_are_rejected():
    model = SANModel("constant")
    model.add_place(Place("p", 1))
    model.add_activity(TimedActivity("hold", Constant(1.0), input_arcs=["p"]))
    with pytest.raises(NonMarkovianModelError, match="hold.*Constant"):
        generate_state_space(model)


def test_marking_dependent_distributions_are_evaluated_per_state():
    # Marking-dependent rate: service speeds up with the queue length.
    model = SANModel("marking-dependent")
    model.add_place(Place("queue", 2))
    model.add_activity(
        TimedActivity(
            "serve",
            lambda marking: Exponential(1.0 / max(1, marking["queue"])),
            input_arcs=["queue"],
        )
    )
    space = generate_state_space(model)
    q = space.generator().toarray()
    two = space.index_of(Marking({"queue": 2}))
    one = space.index_of(Marking({"queue": 1}))
    assert q[two, two] == pytest.approx(-2.0)
    assert q[one, one] == pytest.approx(-1.0)


def test_marking_dependent_non_exponential_is_rejected():
    model = SANModel("marking-dependent-bad")
    model.add_place(Place("p", 1))
    model.add_activity(
        TimedActivity(
            "hold", lambda marking: Uniform(0.0, 1.0), input_arcs=["p"]
        )
    )
    with pytest.raises(NonMarkovianModelError):
        generate_state_space(model)


def test_max_states_bound_is_enforced():
    with pytest.raises(StateSpaceError, match="max_states"):
        generate_state_space(birth_death_model(capacity=10), max_states=3)


def test_vanishing_loop_is_detected():
    model = SANModel("loop")
    model.add_place(Place("a", 1))
    model.add_place(Place("b", 0))
    model.add_activity(
        InstantaneousActivity(
            "ab", input_arcs=["a"], cases=[Case.build(output_arcs=["b"])]
        )
    )
    model.add_activity(
        InstantaneousActivity(
            "ba", input_arcs=["b"], cases=[Case.build(output_arcs=["a"])]
        )
    )
    with pytest.raises(StateSpaceError, match="vanishing"):
        generate_state_space(model)


def test_input_gates_shape_the_reachable_set():
    # A gate blocking service below 2 tokens removes the 1 -> 0 transition.
    model = SANModel("gated")
    model.add_place(Place("queue", 0))
    model.add_place(Place("free", 2))
    model.add_activity(
        TimedActivity(
            "arrive",
            Exponential(1.0),
            input_arcs=["free"],
            cases=[Case.build(output_arcs=["queue"])],
        )
    )
    model.add_activity(
        TimedActivity(
            "batch_serve",
            Exponential(1.0),
            input_arcs=[("queue", 2)],
            input_gates=[
                InputGate(
                    name="pair_ready",
                    predicate=lambda marking: marking["queue"] >= 2,
                    watched_places=("queue",),
                )
            ],
            cases=[Case.build(output_arcs=[("free", 2)])],
        )
    )
    space = generate_state_space(model)
    assert space.n_states == 3
    q = space.generator().toarray()
    one = space.index_of(Marking({"queue": 1, "free": 1}))
    empty = space.index_of(Marking({"free": 2}))
    assert q[one, empty] == 0.0


def test_initial_marking_override():
    space = generate_state_space(
        birth_death_model(), initial_marking=Marking({"queue": 3})
    )
    assert space.initial_distribution[space.index_of(Marking({"queue": 3}))] == 1.0


def test_transition_completions_back_impulse_rewards():
    space = generate_state_space(birth_death_model(capacity=1))
    arrivals = space.completion_rate_matrix(frozenset({"arrive"}))
    everything = space.completion_rate_matrix(None)
    empty = space.index_of(Marking({"free": 1}))
    full = space.index_of(Marking({"queue": 1}))
    assert arrivals[empty] == pytest.approx(2.0)
    assert arrivals[full] == pytest.approx(0.0)
    assert everything[full] == pytest.approx(1.0)


def test_summary_and_exit_rates():
    space = generate_state_space(birth_death_model(capacity=1))
    assert "birth-death" in space.summary()
    assert space.exit_rates()[space.index_of(Marking({"free": 1}))] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Pinned exploration order
# ----------------------------------------------------------------------
def _state_space_digest(space) -> str:
    """SHA-256 over everything the generator decides, floats bit for bit.

    Covers the state order (the numbering), every transition in emission
    order with its rate and completions, the initial distribution, the
    initial completions and the absorbing/stop masks.
    """
    digest = hashlib.sha256()
    for state in space.states:
        digest.update(repr(tuple(state.items())).encode())
    for transition in space.transitions:
        digest.update(
            repr(
                (
                    transition.source,
                    transition.target,
                    transition.rate.hex(),
                    tuple((name, count.hex()) for name, count in transition.completions),
                )
            ).encode()
        )
    digest.update(
        repr([float(value).hex() for value in space.initial_distribution]).encode()
    )
    digest.update(
        repr(
            sorted((name, count.hex()) for name, count in space.initial_completions.items())
        ).encode()
    )
    digest.update(space.absorbing.tobytes())
    digest.update(space.stop_mask.tobytes())
    return digest.hexdigest()


#: Digests of ``generate_state_space`` on the composed consensus model and
#: the solver-compare suite, recorded before the generator's candidate
#: scan and prepared activity tables replaced the full linear scans.
PINNED_STATE_SPACES = {
    "consensus-n3": (
        1233,
        "2055890bb439319e7e7c0cda15563828a1a113f8c8e48e3fba50f8b28b7c578e",
    ),
    "consensus-n3-stop": (
        345,
        "068d3c96f6f73e9f5e92d5713df35f72c6188cc3f8802269351cb8f3dc9e4767",
    ),
    "fd-pair": (
        2,
        "e6a4066b4f9bb49d6974ab8e3837b3c274ae14c227e1dc533584aafe84879329",
    ),
    "unicast-burst": (
        35,
        "2dd422faff153a681a6f9c1533c247dcda2b97e11316519271ef6878b6f1e9b0",
    ),
    # Lossy: every network stage branches into delivered and lost cases.
    "unicast-burst-lossy": (
        35,
        "bc1c565861e96307514238b71d2794ff22f0f76912bce3d58b913d656125fb79",
    ),
}


def _pinned_space(key: str):
    if key == "consensus-n3":
        return generate_state_space(exponential_consensus_model(3))
    if key == "consensus-n3-stop":
        return generate_state_space(
            exponential_consensus_model(3), stop_predicate=consensus_stop_predicate
        )
    if key == "unicast-burst-lossy":
        return generate_state_space(
            exponential_unicast_burst_model(messages=3, loss_rate=0.2)
        )
    spec = compare_model_spec(key)
    return generate_state_space(spec.model_factory(), stop_predicate=spec.stop_predicate)


@pytest.mark.parametrize("key", sorted(PINNED_STATE_SPACES))
def test_state_space_exploration_order_is_pinned(key):
    space = _pinned_space(key)
    n_states, digest = PINNED_STATE_SPACES[key]
    assert space.n_states == n_states
    assert _state_space_digest(space) == digest
