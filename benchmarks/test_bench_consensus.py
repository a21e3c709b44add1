"""Benchmark: the consensus replication hot loop and the analytic pipeline.

This is the workload the DES/SAN hot-path overhaul targets: the n = 3
consensus SAN executed over many replications (the inner loop of every
figure-7/table-1 point).  The benchmark times ``solve()`` (lock-step
batches), then times the :class:`~repro.san.executor.SANExecutor` oracle
(full re-evaluation after every completion, one replication at a time on
the DES calendar, one draw per call) on the same seeds and asserts the
required >= 2x speedup -- after checking that both produce
*bit-identical* rewards, so the speed never comes from semantic drift.

A second benchmark covers the analytic side: state-space generation plus
an exact solve of the exponentialized n = 3 model.
"""

from __future__ import annotations

import time

from repro.benchmarking import run_once
from repro.san.analytic import AnalyticSolver
from repro.san.executor import run_replication
from repro.san.statespace import generate_state_space
from repro.sanmodels import ConsensusSANExperiment
from repro.sanmodels.consensus_model import consensus_stop_predicate, latency_reward
from repro.sanmodels.exponential import exponential_consensus_model

#: Replications per timing leg (one leg is well under a second optimized).
REPLICATIONS = 100
#: Required speedup of ``solve()`` over the oracle.
REQUIRED_SPEEDUP = 2.0


def _best_of(function, attempts=3):
    """Best-of-N wall clock (damps noise from shared CI runners).

    This benchmark is also collected by the tier-1 test run, so the
    speedup assertion must not flake on a throttled runner: each leg is
    well under a second, three attempts are cheap, and the measured margin
    (several times the 2x bound) absorbs what best-of-three does not.
    """
    best = float("inf")
    result = None
    for _attempt in range(attempts):
        started = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - started)
    return result, best


def test_bench_consensus_replications(benchmark):
    solver = ConsensusSANExperiment(n_processes=3, seed=1).solver()

    # Warm both paths (model build, compiled tables) off the clock.
    solver.run_replication(0)
    run_replication(solver, 0)

    def solve():
        return solver.solve(replications=REPLICATIONS).replications

    def oracle():
        return [run_replication(solver, index) for index in range(REPLICATIONS)]

    fast_results, fast_s = _best_of(solve)
    run_once(benchmark, solve)
    slow_results, slow_s = _best_of(oracle)

    # Determinism first: solve() must match the oracle replication for
    # replication before its speed counts for anything.
    assert [result.rewards for result in fast_results] == [
        result.rewards for result in slow_results
    ]

    speedup = slow_s / fast_s if fast_s > 0 else float("inf")
    print(
        f"\nconsensus n=3, {REPLICATIONS} replications: solve() {fast_s:.3f} s "
        f"({REPLICATIONS / fast_s:.0f} reps/s), oracle {slow_s:.3f} s "
        f"({REPLICATIONS / slow_s:.0f} reps/s), speedup {speedup:.2f}x"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"expected >= {REQUIRED_SPEEDUP}x over the oracle executor, "
        f"measured {speedup:.2f}x"
    )


def test_bench_consensus_statespace(benchmark):
    def solve_analytically():
        model = exponential_consensus_model(3)
        space = generate_state_space(model, stop_predicate=consensus_stop_predicate)
        solver = AnalyticSolver(
            model_factory=lambda: exponential_consensus_model(3),
            reward_factory=lambda: [latency_reward()],
            stop_predicate=consensus_stop_predicate,
        )
        result = solver.solve()
        return space, result

    space, result = run_once(benchmark, solve_analytically)
    print(
        f"\nstatespace: {space.n_states} states, {len(space.transitions)} "
        f"transitions; analytic latency {result.mean('latency'):.6f} ms"
    )
    assert space.n_states == 345
    assert result.mean("latency") > 0
