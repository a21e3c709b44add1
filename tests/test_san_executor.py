"""Tests of the SAN execution semantics.

Every semantics test runs on both executors: the ``SANExecutor`` test
oracle and the production ``BatchedSANExecutor`` (single-row form).
:func:`_run` executes the same model on each, asserts that the two
outcomes are identical and returns one of them, so each assertion below
holds for both.  (A loop rather than ``pytest.mark.parametrize`` keeps
the test ids stable.)
"""

from __future__ import annotations

import pytest

from repro.des.simulator import Simulator
from repro.san.activities import Case, InstantaneousActivity, TimedActivity
from repro.san.batched import BatchedSANExecutor
from repro.san.compiled import compile_model
from repro.san.executor import SANExecutionError, SANExecutor
from repro.san.gates import InputGate
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.places import Place
from repro.san.rewards import FirstPassageTime
from repro.stats.distributions import Constant, Exponential, Uniform

EXECUTORS = (SANExecutor, BatchedSANExecutor)


def _executors(model, seed=1, rewards=(), initial_marking=None):
    """One fresh executor of each kind over ``model``."""
    return [
        executor_class(
            model,
            Simulator(seed=seed),
            rewards=rewards,
            initial_marking=initial_marking,
        )
        for executor_class in EXECUTORS
    ]


def _run(model, seed=1, rewards=(), initial_marking=None, **run_kwargs):
    """Run ``model`` on both executors; the outcomes must be identical."""
    oracle, batched = (
        executor.run(**run_kwargs)
        for executor in _executors(model, seed, rewards, initial_marking)
    )
    assert batched == oracle
    return oracle


def _pipeline_model() -> SANModel:
    """a --(t=1)--> b --(t=2)--> c"""
    model = SANModel("pipeline")
    for name, initial in (("a", 1), ("b", 0), ("c", 0)):
        model.add_place(Place(name, initial))
    model.add_activity(
        TimedActivity("ab", Constant(1.0), input_arcs=["a"], cases=[Case.build(output_arcs=["b"])])
    )
    model.add_activity(
        TimedActivity("bc", Constant(2.0), input_arcs=["b"], cases=[Case.build(output_arcs=["c"])])
    )
    return model


def test_timed_pipeline_fires_in_sequence():
    outcome = _run(_pipeline_model())
    assert outcome.final_marking["c"] == 1
    assert outcome.end_time == pytest.approx(3.0)
    assert outcome.completions == 2
    assert outcome.dead_marking


def test_stop_predicate_ends_the_replication_early():
    outcome = _run(_pipeline_model(), stop_predicate=lambda m: m["b"] >= 1)
    assert outcome.stopped_by_predicate
    assert outcome.end_time == pytest.approx(1.0)


def test_stop_predicate_true_initially_runs_nothing():
    outcome = _run(_pipeline_model(), stop_predicate=lambda m: m["a"] >= 1)
    assert outcome.stopped_by_predicate
    assert outcome.completions == 0


def test_time_horizon_truncates_the_run():
    outcome = _run(_pipeline_model(), until=1.5)
    assert outcome.final_marking["b"] == 1
    assert outcome.final_marking["c"] == 0


def test_instantaneous_activities_fire_before_timed_ones():
    model = SANModel("mixed")
    model.add_place(Place("a", 1))
    model.add_place(Place("b", 0))
    model.add_place(Place("c", 0))
    model.add_activity(
        InstantaneousActivity("imm", input_arcs=["a"], cases=[Case.build(output_arcs=["b"])])
    )
    model.add_activity(
        TimedActivity("late", Constant(5.0), input_arcs=["a"], cases=[Case.build(output_arcs=["c"])])
    )
    outcome = _run(model)
    assert outcome.final_marking["b"] == 1
    assert outcome.final_marking["c"] == 0
    assert outcome.end_time == 0.0


def test_instantaneous_rank_orders_conflicting_activities():
    model = SANModel("ranked")
    model.add_place(Place("a", 1))
    model.add_place(Place("low", 0))
    model.add_place(Place("high", 0))
    model.add_activity(
        InstantaneousActivity("later", input_arcs=["a"], cases=[Case.build(output_arcs=["high"])], rank=5)
    )
    model.add_activity(
        InstantaneousActivity("sooner", input_arcs=["a"], cases=[Case.build(output_arcs=["low"])], rank=1)
    )
    outcome = _run(model)
    assert outcome.final_marking["low"] == 1
    assert outcome.final_marking["high"] == 0


def test_resource_contention_with_seize_release_idiom_serialises_work():
    """Two jobs contending for one server token must finish at 1.0 and 2.0."""
    model = SANModel("mutex")
    model.add_place(Place("q1", 1))
    model.add_place(Place("q2", 1))
    model.add_place(Place("server", 1))
    model.add_place(Place("s1", 0))
    model.add_place(Place("s2", 0))
    model.add_place(Place("d1", 0))
    model.add_place(Place("d2", 0))
    for job in ("1", "2"):
        model.add_activity(
            InstantaneousActivity(
                f"seize{job}",
                input_arcs=[f"q{job}", "server"],
                cases=[Case.build(output_arcs=[f"s{job}"])],
            )
        )
        model.add_activity(
            TimedActivity(
                f"serve{job}",
                Constant(1.0),
                input_arcs=[f"s{job}"],
                cases=[Case.build(output_arcs=[f"d{job}", "server"])],
            )
        )
    outcome = _run(model)
    assert outcome.final_marking["d1"] == 1
    assert outcome.final_marking["d2"] == 1
    assert outcome.end_time == pytest.approx(2.0)


def test_disabled_timed_activity_is_reactivated_not_fired():
    """A timed activity that loses its token before completion must not fire."""
    model = SANModel("race")
    model.add_place(Place("token", 1))
    model.add_place(Place("fast", 0))
    model.add_place(Place("slow", 0))
    model.add_activity(
        TimedActivity("quick", Constant(1.0), input_arcs=["token"], cases=[Case.build(output_arcs=["fast"])])
    )
    model.add_activity(
        TimedActivity("lazy", Constant(10.0), input_arcs=["token"], cases=[Case.build(output_arcs=["slow"])])
    )
    outcome = _run(model, until=50.0)
    assert outcome.final_marking["fast"] == 1
    assert outcome.final_marking["slow"] == 0
    assert outcome.completions == 1


def test_case_probabilities_split_tokens_between_outcomes():
    model = SANModel("cases")
    model.add_place(Place("src", 200))
    model.add_place(Place("left", 0))
    model.add_place(Place("right", 0))
    model.add_activity(
        TimedActivity(
            "branch",
            Exponential(0.1),
            input_arcs=["src"],
            cases=[
                Case.build(probability=0.7, output_arcs=["left"]),
                Case.build(probability=0.3, output_arcs=["right"]),
            ],
        )
    )
    outcome = _run(model, seed=5)
    assert outcome.final_marking["left"] + outcome.final_marking["right"] == 200
    assert outcome.final_marking["left"] > outcome.final_marking["right"]


def test_input_gate_with_watched_places_reacts_to_changes():
    """The propose-like pattern: an activity enabled only once a counter reaches 2."""
    model = SANModel("threshold")
    model.add_place(Place("waiting", 1))
    model.add_place(Place("count", 0))
    model.add_place(Place("sources", 2))
    model.add_place(Place("done", 0))
    model.add_activity(
        TimedActivity(
            "arrive", Uniform(0.5, 1.0), input_arcs=["sources"], cases=[Case.build(output_arcs=["count"])]
        )
    )
    model.add_activity(
        InstantaneousActivity(
            "go",
            input_arcs=["waiting"],
            input_gates=[
                InputGate("enough", predicate=lambda m: m["count"] >= 2, watched_places=("count",))
            ],
            cases=[Case.build(output_arcs=["done"])],
        )
    )
    outcome = _run(model, seed=3)
    assert outcome.final_marking["done"] == 1


def test_unstable_instantaneous_loop_is_detected():
    model = SANModel("loop")
    model.add_place(Place("a", 1))
    model.add_place(Place("b", 0))
    model.add_activity(
        InstantaneousActivity("ab", input_arcs=["a"], cases=[Case.build(output_arcs=["b"])])
    )
    model.add_activity(
        InstantaneousActivity("ba", input_arcs=["b"], cases=[Case.build(output_arcs=["a"])])
    )
    for executor in _executors(model):
        with pytest.raises(SANExecutionError):
            executor.run()


def test_initial_marking_override():
    model = _pipeline_model()
    outcome = _run(model, initial_marking=Marking({"a": 0, "b": 1}))
    assert outcome.final_marking["c"] == 1
    assert outcome.end_time == pytest.approx(2.0)


def test_rewards_observe_first_passage_time():
    reward = FirstPassageTime(lambda m: m["c"] >= 1, name="reach_c")
    for executor in _executors(_pipeline_model(), rewards=[reward]):
        executor.run()
        assert reward.value() == pytest.approx(3.0), type(executor).__name__


def test_identical_seeds_reproduce_identical_trajectories():
    model_a = SANModel("stoch")
    model_a.add_place(Place("a", 5))
    model_a.add_place(Place("b", 0))
    model_a.add_activity(
        TimedActivity("move", Exponential(1.0), input_arcs=["a"], cases=[Case.build(output_arcs=["b"])])
    )
    end_times = set()
    for _ in range(2):
        model = SANModel("stoch")
        model.add_place(Place("a", 5))
        model.add_place(Place("b", 0))
        model.add_activity(
            TimedActivity("move", Exponential(1.0), input_arcs=["a"], cases=[Case.build(output_arcs=["b"])])
        )
        end_times.add(_run(model, seed=42).end_time)
    assert len(end_times) == 1


def test_batched_sampler_rejects_negative_durations():
    # Uniform with a negative support is a modeling bug; the batched
    # executor's pre-drawing sampler must catch it exactly like the
    # oracle's one-draw-per-call path does.
    model = SANModel("negative")
    model.add_place(Place("a", 1))
    model.add_place(Place("b", 0))
    model.add_activity(
        TimedActivity(
            "bad",
            Uniform(-5.0, -1.0),
            input_arcs=["a"],
            cases=[Case.build(output_arcs=["b"])],
        )
    )
    for executor in _executors(model):
        with pytest.raises(ValueError, match="negative duration"):
            executor.run(until=10.0)


def test_model_structure_cache_invalidates_on_structural_change():
    # The compiled model is the only dependency index; it is cached on the
    # model and rebuilt when the structure changes.
    model = _pipeline_model()
    first = compile_model(model)
    assert compile_model(model) is first
    # Adding an activity bumps the version; the next compile sees it.
    model.add_place(Place("d", 0))
    model.add_activity(
        TimedActivity(
            "cd", Constant(1.0), input_arcs=["c"], cases=[Case.build(output_arcs=["d"])]
        )
    )
    second = compile_model(model)
    assert second is not first
    assert "cd" in {activity.name for activity in second.timed}
    assert [activity.name for activity in second.timed_by_place[second.place_index["c"]]] == ["cd"]
    # Executors built after the change run the new structure.
    outcome = _run(model)
    assert outcome.final_marking["d"] == 1
