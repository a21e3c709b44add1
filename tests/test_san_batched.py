"""Tests of the lock-step batched executor (:mod:`repro.san.batched`).

The batched draw-order contract: every row of a batch is bit-identical
to the ``SANExecutor`` test oracle run with the same seed, at any batch
size.  These tests pin that three ways -- the golden trace and calendar
order at ``B=1``, per-row equality with the oracle at ``B>1``, and
end-to-end equality of ``solve()`` with the oracle -- plus the
termination semantics (horizon, dead marking, initial stop).
"""

from __future__ import annotations

import pytest

from repro.des.simulator import Simulator
from repro.san import (
    AnalyticSolver,
    BatchedSANExecutor,
    Case,
    Marking,
    Place,
    SANModel,
    TimedActivity,
)
from repro.san.executor import SANExecutionError, SANExecutor, run_replication
from repro.san.solver import SimulativeSolver
from repro.sanmodels import ConsensusSANExperiment
from repro.stats.distributions import Constant, Exponential
from tests.test_san_golden_trace import (
    GOLDEN_CONSENSUS_COMPLETIONS,
    GOLDEN_CONSENSUS_LATENCY,
    GOLDEN_EVENT_ORDER,
    GOLDEN_HORIZON,
    GOLDEN_SEED,
    GOLDEN_TRACE,
    TraceRecorder,
    build_golden_model,
    run_golden_trace,
)


# ----------------------------------------------------------------------
# Validation way 1: bit-identical at B=1 against the golden traces
# ----------------------------------------------------------------------
def test_batched_executor_reproduces_golden_trace_at_batch_one():
    recorder, outcome = run_golden_trace(BatchedSANExecutor)
    assert outcome.completions == len(GOLDEN_TRACE)
    assert not outcome.dead_marking
    assert recorder.events == [
        (activity, time, dict(sorted(marking.items())))
        for activity, time, marking in GOLDEN_TRACE
    ]


def test_batched_event_order_matches_golden_event_order():
    # The oracle's DES calendar order, one layer below the trace: the
    # batched executor must assign the same per-row sequence numbers
    # (its tie-break between same-instant completions) to the same timed
    # completions.
    executor = BatchedSANExecutor(
        build_golden_model(), Simulator(seed=GOLDEN_SEED), rewards=[TraceRecorder()]
    )
    fired = []
    complete = executor._complete

    def spy(row, activity):
        if activity.timed:
            seq = int(executor._seqs[row.index, activity.index])
            fired.append((row.now, 0, seq, "_complete_timed", activity.name))
        return complete(row, activity)

    executor._complete = spy
    executor.run(until=GOLDEN_HORIZON)
    assert fired == GOLDEN_EVENT_ORDER


def test_batched_consensus_replication_zero_snapshot():
    solver = ConsensusSANExperiment(n_processes=3, seed=1).solver()
    replication = solver.run_batch([0])[0]
    assert replication.stopped_by_predicate
    assert replication.rewards["latency"] == GOLDEN_CONSENSUS_LATENCY
    assert replication.rewards["completions"] == GOLDEN_CONSENSUS_COMPLETIONS


def test_batched_golden_final_marking_matches_scalar():
    _recorder, oracle = run_golden_trace(SANExecutor)
    _recorder, batched = run_golden_trace(BatchedSANExecutor)
    assert batched.end_time == oracle.end_time
    assert batched.final_marking == oracle.final_marking
    assert batched.dead_marking == oracle.dead_marking
    assert batched.stopped_by_predicate == oracle.stopped_by_predicate


# ----------------------------------------------------------------------
# Validation way 2: per-row bit-identity with the oracle at B>1
# ----------------------------------------------------------------------
def test_batch_rows_are_bit_identical_to_scalar_replications():
    experiment = ConsensusSANExperiment(n_processes=3, seed=11)
    solver = experiment.solver()
    batch = solver.run_batch(range(10))
    for index, row in enumerate(batch):
        oracle = run_replication(solver, index)
        assert row == solver.run_replication(index)
        assert row.replication == oracle.replication == index
        assert row.rewards == oracle.rewards, index
        assert row.end_time == oracle.end_time, index
        assert row.stopped_by_predicate == oracle.stopped_by_predicate, index


def test_golden_batch_shares_no_state_across_rows():
    # Three rows with the same seed must produce three identical golden
    # traces: any cross-row stream sharing or marking aliasing breaks this.
    recorders = [TraceRecorder() for _ in range(3)]
    executor = BatchedSANExecutor.for_batch(
        build_golden_model(),
        [GOLDEN_SEED] * 3,
        [[recorder] for recorder in recorders],
    )
    outcomes = executor.run_batch(until=GOLDEN_HORIZON)
    expected = [
        (activity, time, dict(sorted(marking.items())))
        for activity, time, marking in GOLDEN_TRACE
    ]
    for recorder, outcome in zip(recorders, outcomes, strict=True):
        assert recorder.events == expected
        assert outcome.completions == len(GOLDEN_TRACE)


# ----------------------------------------------------------------------
# Solver threading: batching never changes results
# ----------------------------------------------------------------------
def _oracle_solve(solver, replications):
    return [run_replication(solver, index) for index in range(replications)]


def test_solver_strategy_batched_matches_scalar_fixed_count():
    experiment = ConsensusSANExperiment(n_processes=3, seed=3)
    oracle = _oracle_solve(experiment.solver(), 25)
    batched = experiment.solver().solve(replications=25)
    assert [r.rewards for r in oracle] == [
        r.rewards for r in batched.replications
    ]
    assert [r.end_time for r in oracle] == [
        r.end_time for r in batched.replications
    ]


def test_solver_batch_size_never_changes_results():
    experiment = ConsensusSANExperiment(n_processes=3, seed=3)
    reference = experiment.solver().solve(replications=13)
    for batch_size in (1, 4, 13, 64):
        other = experiment.solver().solve(
            replications=13, batch_size=batch_size
        )
        assert [r.rewards for r in other.replications] == [
            r.rewards for r in reference.replications
        ], batch_size


def test_solver_batch_size_auto_and_jobs_never_change_results():
    # The acceptance matrix of the adaptive-batching PR: "auto" sizing and
    # pooled execution (several batches per worker group) both reproduce
    # the oracle's results bit-for-bit.
    experiment = ConsensusSANExperiment(n_processes=3, seed=3)
    reference = _oracle_solve(experiment.solver(), 25)
    for kwargs in (
        {"batch_size": "auto"},
        {"batch_size": "auto", "jobs": 2},
        {"batch_size": 4, "jobs": 2},  # 7 batches over 2 workers: grouped
    ):
        other = experiment.solver().solve(replications=25, **kwargs)
        assert [r.rewards for r in other.replications] == [
            r.rewards for r in reference
        ], kwargs


def test_auto_batch_size_is_structural():
    from repro.san.solver import (
        MAX_AUTO_BATCH_SIZE,
        MIN_AUTO_BATCH_SIZE,
        auto_batch_size,
    )
    from repro.sanmodels.consensus_model import build_consensus_model

    small = auto_batch_size(build_consensus_model(3))
    # A pure function of the model structure: any instance of the same
    # structure gives the same size (so jobs/workers always agree).
    assert auto_batch_size(build_consensus_model(3)) == small
    assert MIN_AUTO_BATCH_SIZE <= small <= MAX_AUTO_BATCH_SIZE
    # Larger models get narrower batches (never wider).
    large = auto_batch_size(build_consensus_model(10))
    assert MIN_AUTO_BATCH_SIZE <= large <= small


def test_solver_precision_loop_matches_scalar_under_batched_strategy():
    experiment = ConsensusSANExperiment(n_processes=3, seed=5)

    def solve(batch_size):
        return experiment.solver().solve(
            target_reward="latency",
            relative_precision=0.25,
            min_replications=20,
            max_replications=120,
            batch_size=batch_size,
        )

    single = solve(1)
    batched = solve("auto")
    assert single.n == batched.n
    assert single.precision_achieved == batched.precision_achieved
    assert [r.rewards for r in single.replications] == [
        r.rewards for r in batched.replications
    ]
    oracle = _oracle_solve(experiment.solver(), batched.n)
    assert [r.rewards for r in oracle] == [
        r.rewards for r in batched.replications
    ]


def test_solver_rejects_unknown_strategy():
    # The executor is no longer selectable: the old knob is gone.
    solver = ConsensusSANExperiment(n_processes=3).solver()
    with pytest.raises(TypeError, match="strategy"):
        solver.solve(replications=1, strategy="scalar")  # type: ignore[call-arg]
    with pytest.raises(ValueError, match="batch_size"):
        solver.solve(replications=2, batch_size=0)


def test_solver_rejects_negative_replications():
    solver = ConsensusSANExperiment(n_processes=3).solver()
    with pytest.raises(ValueError, match="replications"):
        solver.solve(replications=-3)
    assert solver.solve(replications=0).n == 0


def test_experiment_batch_size_never_changes_results():
    configured = ConsensusSANExperiment(n_processes=3, seed=9, batch_size=4)
    default = ConsensusSANExperiment(n_processes=3, seed=9)
    reference = default.run(replications=15)
    assert configured.run(replications=15).latencies_ms == reference.latencies_ms
    # Per-call override beats the configured batch size.
    overridden = default.run(replications=15, batch_size=1)
    assert overridden.latencies_ms == reference.latencies_ms


# ----------------------------------------------------------------------
# Validation way 3: agreement with the analytic solver
# (full three-model check: tests/test_solver_compare.py runs the batched
# leg of the solvercompare sweep; this is the cheap direct version.)
# ----------------------------------------------------------------------
def test_batched_means_bracket_the_analytic_value_on_fd_pair():
    from repro.experiments.solver_compare import compare_model_spec

    spec = compare_model_spec("fd-pair")
    exact = AnalyticSolver(
        model_factory=spec.model_factory,
        reward_factory=spec.reward_factory,
        stop_predicate=spec.stop_predicate,
        max_time=spec.max_time,
    ).solve()
    sampled = SimulativeSolver(
        model_factory=spec.model_factory,
        reward_factory=spec.reward_factory,
        stop_predicate=spec.stop_predicate,
        max_time=spec.max_time,
        seed=42,
        confidence=0.95,
        reuse_model=True,
    ).solve(replications=60)
    for reward_name in spec.reward_names:
        interval = sampled.interval(reward_name)
        assert interval.contains(exact.mean(reward_name)), reward_name


# ----------------------------------------------------------------------
# Termination semantics and interface edges
# ----------------------------------------------------------------------
def _draining_model() -> SANModel:
    model = SANModel("draining")
    model.add_place(Place("fuel", 2))
    model.add_activity(
        TimedActivity(
            "burn",
            Constant(1.5),
            input_arcs=["fuel"],
            cases=[Case.build(output_arcs=["ash"])],
        )
    )
    model.add_place(Place("ash", 0))
    return model


def test_dead_marking_advances_to_the_horizon():
    executor = BatchedSANExecutor(_draining_model(), Simulator(seed=0))
    outcome = executor.run(until=10.0)
    assert outcome.dead_marking
    assert outcome.completions == 2
    assert outcome.end_time == 10.0  # clock still advances to the horizon
    assert outcome.final_marking == Marking({"fuel": 0, "ash": 2})


def test_dead_marking_without_horizon_stops_at_last_event():
    executor = BatchedSANExecutor(_draining_model(), Simulator(seed=0))
    outcome = executor.run(until=None)
    assert outcome.dead_marking
    assert outcome.end_time == 3.0  # two constant 1.5 firings


def test_horizon_before_first_completion():
    executor = BatchedSANExecutor(_draining_model(), Simulator(seed=0))
    outcome = executor.run(until=1.0)
    assert outcome.completions == 0
    assert outcome.end_time == 1.0
    assert not outcome.dead_marking
    assert outcome.final_marking["fuel"] == 2


def test_stop_predicate_true_on_initial_marking():
    executor = BatchedSANExecutor(_draining_model(), Simulator(seed=0))
    outcome = executor.run(until=10.0, stop_predicate=lambda m: m["fuel"] >= 2)
    assert outcome.stopped_by_predicate
    assert outcome.end_time == 0.0
    assert outcome.completions == 0


def test_batch_termination_matches_scalar_on_draining_model():
    for until in (None, 1.0, 1.5, 10.0):
        oracle = SANExecutor(_draining_model(), Simulator(seed=0)).run(
            until=until
        )
        batched = BatchedSANExecutor(
            _draining_model(), Simulator(seed=0)
        ).run(until=until)
        assert batched.end_time == oracle.end_time, until
        assert batched.completions == oracle.completions, until
        assert batched.dead_marking == oracle.dead_marking, until
        assert batched.final_marking == oracle.final_marking, until


def test_initial_marking_override_matches_scalar():
    initial = Marking({"fuel": 1, "bonus": 4})  # "bonus" is undeclared
    oracle = SANExecutor(
        _draining_model(), Simulator(seed=0), initial_marking=initial.copy()
    ).run(until=10.0)
    batched = BatchedSANExecutor(
        _draining_model(), Simulator(seed=0), initial_marking=initial.copy()
    ).run(until=10.0)
    assert batched.completions == oracle.completions == 1
    assert batched.final_marking == oracle.final_marking
    assert batched.final_marking["bonus"] == 4


def test_run_requires_a_single_row():
    executor = BatchedSANExecutor.for_batch(
        _draining_model(), [0, 1], [[], []]
    )
    with pytest.raises(SANExecutionError, match="use run_batch"):
        executor.run(until=1.0)


def test_constructor_requires_streams_or_simulator():
    with pytest.raises(TypeError, match="needs a Simulator"):
        BatchedSANExecutor(_draining_model())
    with pytest.raises(ValueError, match="one entry per row"):
        BatchedSANExecutor(
            _draining_model(),
            streams=[None, None],  # type: ignore[list-item]
            rewards_per_row=[[]],
        )


def test_introspection_helpers():
    executor = BatchedSANExecutor.for_batch(
        _draining_model(), [0, 1], [[], []]
    )
    assert executor.batch_size == 2
    matrix = executor.tokens_matrix()
    assert matrix.shape == (2, 2)
    assert matrix[:, 0].tolist() == [2, 2]  # fuel column, both rows
    assert executor.enabled_activity_names(0) == {"burn"}
    assert executor.scheduled_activity_names(0) == set()  # not started yet
    assert executor.completions == 0
    assert executor.marking["fuel"] == 2
