"""Golden-trace regression tests: lock the executor's exact semantics.

A deterministic single-replication trajectory -- every activity
completion with its timestamp and the marking it produced -- is snapshot
against literals.  Any change to the executor's event ordering, RNG
stream derivation, instantaneous tie-breaking or completion rules shows
up here as an exact mismatch, which is the point: the analytic-solver
refactor (and future ones) must not silently shift simulative results.

The trace model exercises every semantic ingredient: an instantaneous
activity with probabilistic cases, exponential / uniform / constant
timed activities, chained firings at one instant and a shared token pool.

The trajectories here run on the ``SANExecutor`` test oracle;
``tests/test_san_batched.py`` holds the production
``BatchedSANExecutor`` to the same literals at batch size 1.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.des.simulator import Simulator
from repro.san import (
    Case,
    InstantaneousActivity,
    Place,
    RewardVariable,
    SANModel,
    TimedActivity,
)
from repro.san.executor import SANExecutor, run_replication
from repro.sanmodels import ConsensusSANExperiment
from repro.stats.distributions import Constant, Exponential, Uniform

GOLDEN_SEED = 20020623
GOLDEN_HORIZON = 6.0

#: The exact trajectory of the golden model under ``GOLDEN_SEED``:
#: (activity, completion time, nonzero marking after the completion).
GOLDEN_TRACE = [
    ("stage", 0.0, {"fast": 1, "pool": 2}),
    ("stage", 0.0, {"fast": 2, "pool": 1}),
    ("stage", 0.0, {"fast": 3}),
    ("finish_fast", 0.20505617117314784, {"done": 1, "fast": 2}),
    ("finish_fast", 0.8858137979904217, {"done": 2, "fast": 1}),
    ("audit", 0.9550561711731478, {"done": 1, "fast": 1, "pool": 1}),
    ("stage", 0.9550561711731478, {"done": 1, "fast": 2}),
    ("audit", 1.7050561711731478, {"fast": 2, "pool": 1}),
    ("stage", 1.7050561711731478, {"fast": 2, "slow": 1}),
    ("finish_fast", 3.265066813556073, {"done": 1, "fast": 1, "slow": 1}),
    ("finish_slow", 3.3036904787247083, {"done": 2, "fast": 1}),
    ("audit", 4.015066813556073, {"done": 1, "fast": 1, "pool": 1}),
    ("stage", 4.015066813556073, {"done": 1, "fast": 1, "slow": 1}),
    ("finish_fast", 4.040466983207616, {"done": 2, "slow": 1}),
    ("audit", 4.765066813556073, {"done": 1, "pool": 1, "slow": 1}),
    ("stage", 4.765066813556073, {"done": 1, "fast": 1, "slow": 1}),
    ("finish_slow", 5.461623110616261, {"done": 2, "fast": 1}),
    ("audit", 5.515066813556073, {"done": 1, "fast": 1, "pool": 1}),
    ("stage", 5.515066813556073, {"done": 1, "fast": 1, "slow": 1}),
    ("finish_fast", 5.702150289867818, {"done": 2, "slow": 1}),
]

#: Exact rewards of replication 0 of the n = 3 consensus experiment.
GOLDEN_CONSENSUS_LATENCY = 0.6297584631047661
GOLDEN_CONSENSUS_COMPLETIONS = 40.0

#: The exact *calendar-level* event order of the golden run: every event the
#: simulator fires, as (time, priority, seq, callback name, activity name).
#: This pins behaviour one layer below GOLDEN_TRACE: the heap ordering, the
#: sequence-number assignment (i.e. the order in which the executor walks
#: activities when scheduling) and the lazy-cancellation discipline.  A
#: calendar refactor that kept reward values but reordered same-time events
#: or renumbered schedules shows up here.
GOLDEN_EVENT_ORDER = [
    (0.20505617117314784, 0, 0, "_complete_timed", "finish_fast"),
    (0.8858137979904217, 0, 2, "_complete_timed", "finish_fast"),
    (0.9550561711731478, 0, 1, "_complete_timed", "audit"),
    (1.7050561711731478, 0, 4, "_complete_timed", "audit"),
    (3.265066813556073, 0, 3, "_complete_timed", "finish_fast"),
    (3.3036904787247083, 0, 5, "_complete_timed", "finish_slow"),
    (4.015066813556073, 0, 6, "_complete_timed", "audit"),
    (4.040466983207616, 0, 7, "_complete_timed", "finish_fast"),
    (4.765066813556073, 0, 8, "_complete_timed", "audit"),
    (5.461623110616261, 0, 9, "_complete_timed", "finish_slow"),
    (5.515066813556073, 0, 10, "_complete_timed", "audit"),
    (5.702150289867818, 0, 11, "_complete_timed", "finish_fast"),
]


def build_golden_model() -> SANModel:
    model = SANModel("golden")
    model.add_place(Place("pool", 3))
    model.add_place(Place("staged", 0))
    model.add_place(Place("fast", 0))
    model.add_place(Place("slow", 0))
    model.add_place(Place("done", 0))
    model.add_activity(
        InstantaneousActivity(
            "stage",
            input_arcs=["pool"],
            cases=[
                Case.build(probability=0.6, output_arcs=["fast"], label="fast"),
                Case.build(probability=0.4, output_arcs=["slow"], label="slow"),
            ],
            rank=0,
        )
    )
    model.add_activity(
        TimedActivity(
            "finish_fast",
            Exponential(0.5),
            input_arcs=["fast"],
            cases=[Case.build(output_arcs=["done"])],
        )
    )
    model.add_activity(
        TimedActivity(
            "finish_slow",
            Uniform(1.0, 2.0),
            input_arcs=["slow"],
            cases=[Case.build(output_arcs=["done"])],
        )
    )
    model.add_activity(
        TimedActivity(
            "audit",
            Constant(0.75),
            input_arcs=["done"],
            cases=[Case.build(output_arcs=["pool"])],
        )
    )
    return model


class TraceRecorder(RewardVariable):
    """Records every completion as (activity, time, nonzero marking)."""

    name = "trace"

    def __init__(self) -> None:
        self.events: list[tuple[str, float, dict[str, int]]] = []

    def on_activity_completion(self, activity_name, marking, time) -> None:
        snapshot = dict(sorted(marking.as_dict(drop_zeros=True).items()))
        self.events.append((activity_name, time, snapshot))

    def value(self) -> float:
        return float(len(self.events))


def run_golden_trace(
    executor_class: type = SANExecutor,
) -> tuple[TraceRecorder, object]:
    sim = Simulator(seed=GOLDEN_SEED)
    recorder = TraceRecorder()
    executor = executor_class(build_golden_model(), sim, rewards=[recorder])
    outcome = executor.run(until=GOLDEN_HORIZON)
    return recorder, outcome


def test_golden_trace_is_reproduced_exactly():
    recorder, outcome = run_golden_trace()
    assert outcome.completions == len(GOLDEN_TRACE)
    assert not outcome.dead_marking
    assert [event[0] for event in recorder.events] == [e[0] for e in GOLDEN_TRACE]
    for recorded, golden in zip(recorder.events, GOLDEN_TRACE, strict=True):
        activity, time, marking = recorded
        golden_activity, golden_time, golden_marking = golden
        assert activity == golden_activity
        # Exact float equality: same seed, same streams, same arithmetic.
        assert time == golden_time, (activity, time, golden_time)
        assert marking == golden_marking, (activity, marking)


def test_golden_trace_is_independent_of_a_second_executor_in_scope():
    # Building (and running) another executor first must not perturb the
    # golden run: streams are derived from the simulator seed, not shared
    # global state.
    noise_sim = Simulator(seed=999)
    noise = SANExecutor(build_golden_model(), noise_sim, rewards=[])
    noise.run(until=3.0)
    recorder, _outcome = run_golden_trace()
    assert recorder.events[3][1] == GOLDEN_TRACE[3][1]


def test_golden_event_order_is_reproduced_exactly():
    # One layer below the completion trace: the DES calendar itself.
    sim = Simulator(seed=GOLDEN_SEED)
    fired: list[tuple[float, int, int, str, str]] = []

    def hook(event):
        activity = (
            event.args[0].name
            if event.args and hasattr(event.args[0], "name")
            else ""
        )
        fired.append(
            (
                event.time,
                event.priority,
                event.seq,
                getattr(event.callback, "__name__", "?"),
                activity,
            )
        )

    sim.add_trace_hook(hook)
    executor = SANExecutor(build_golden_model(), sim, rewards=[TraceRecorder()])
    executor.run(until=GOLDEN_HORIZON)
    assert fired == GOLDEN_EVENT_ORDER


def test_consensus_replication_zero_snapshot():
    solver = ConsensusSANExperiment(n_processes=3, seed=1).solver()
    for replication in (solver.run_replication(0), run_replication(solver, 0)):
        assert replication.stopped_by_predicate
        assert replication.rewards["latency"] == GOLDEN_CONSENSUS_LATENCY
        assert replication.rewards["completions"] == GOLDEN_CONSENSUS_COMPLETIONS


@pytest.mark.parametrize("hash_seed", ["1", "31337"])
def test_trace_is_independent_of_pythonhashseed(hash_seed):
    # The executor used to draw durations in PYTHONHASHSEED-dependent set
    # order from shared streams, making results differ between processes.
    # Per-activity streams fixed that; this guards the fix by re-running
    # the golden replication under explicit hash seeds.
    script = (
        "from tests.test_san_golden_trace import run_golden_trace;"
        "recorder, outcome = run_golden_trace();"
        "print(repr([event[1] for event in recorder.events]))"
    )
    environment = dict(os.environ)
    environment["PYTHONHASHSEED"] = hash_seed
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", os.path.dirname(os.path.dirname(__file__)),
                      environment.get("PYTHONPATH", "")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=environment,
        check=True,
    )
    times = eval(completed.stdout.strip())  # our own repr output
    assert times == [event[1] for event in GOLDEN_TRACE]
