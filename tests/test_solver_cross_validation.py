"""Cross-validation: the analytic solver as an exact oracle for the
simulative solver.

The contract (and the PR's acceptance criterion): on every exponential
validation model, the exact analytic value of every reward must fall
inside the simulative solver's 95% confidence interval, and the analytic
solution must be at least 10x faster than a 1000-replication simulation.

The validation suite spans the three layers of the paper's model stack
(:mod:`repro.sanmodels.compare_suite`):

* the failure-detector module (built from ``sanmodels.fd_model``),
* the three-stage network path (built from ``sanmodels.network_model``),
* the fully composed n = 3 consensus model (built from every
  ``sanmodels`` submodel).
"""

from __future__ import annotations

import math
import time

import pytest

from repro.san import AnalyticSolver, SimulativeSolver
from repro.sanmodels import exponential_unicast_burst_model
from repro.sanmodels.compare_suite import (
    COMPARE_MODELS,
    CompareModelSpec,
    compare_model_spec,
)
from repro.sanmodels.exponential import DELIVERED_PLACE

CROSS_VALIDATION_REPLICATIONS = 1_000
SPEEDUP_FLOOR = 10.0
#: Timed solves per leg for the speedup gate.  The legs alternate and the
#: best time of each is compared, so a load spike that hits one solve
#: (or a lazy import on the first) cannot decide the ratio.
TIMING_ROUNDS = 3


def _solve_both(spec: CompareModelSpec, replications: int, seed: int, rounds: int = 1):
    """Solve ``spec`` analytically and by simulation ``rounds`` times each.

    The two legs alternate; returns the last results and the best
    (smallest) wall time of each leg.
    """
    analytic_seconds = []
    simulative_seconds = []
    for _ in range(rounds):
        analytic = AnalyticSolver(
            model_factory=spec.model_factory,
            reward_factory=spec.reward_factory,
            stop_predicate=spec.stop_predicate,
            max_time=spec.max_time,
            confidence=0.95,
        )
        started = time.perf_counter()
        exact = analytic.solve()
        analytic_seconds.append(time.perf_counter() - started)

        simulative = SimulativeSolver(
            model_factory=spec.model_factory,
            reward_factory=spec.reward_factory,
            stop_predicate=spec.stop_predicate,
            max_time=spec.max_time,
            seed=seed,
            confidence=0.95,
        )
        started = time.perf_counter()
        sampled = simulative.solve(replications=replications)
        simulative_seconds.append(time.perf_counter() - started)
    return exact, sampled, min(analytic_seconds), min(simulative_seconds)


@pytest.mark.parametrize("spec", COMPARE_MODELS, ids=lambda spec: spec.key)
def test_analytic_agrees_with_simulative_within_95_ci_and_is_10x_faster(spec):
    exact, sampled, analytic_seconds, simulative_seconds = _solve_both(
        spec, CROSS_VALIDATION_REPLICATIONS, seed=5, rounds=TIMING_ROUNDS
    )
    for reward_name in spec.reward_names:
        value = exact.mean(reward_name)
        interval = sampled.interval(reward_name)
        assert math.isfinite(value), f"{spec.key}/{reward_name} not finite"
        assert interval.contains(value), (
            f"{spec.key}/{reward_name}: exact {value:.6g} outside the "
            f"simulative 95% CI {interval}"
        )
    speedup = simulative_seconds / analytic_seconds
    assert speedup >= SPEEDUP_FLOOR, (
        f"{spec.key}: analytic solution only {speedup:.1f}x faster than "
        f"{CROSS_VALIDATION_REPLICATIONS}-replication simulation "
        f"(best of {TIMING_ROUNDS}: {analytic_seconds:.4f}s vs "
        f"{simulative_seconds:.4f}s)"
    )


def test_validation_suite_covers_at_least_three_models():
    assert len(COMPARE_MODELS) >= 3
    # At least one model is the full composition of sanmodels submodels.
    assert any(spec.key == "consensus-n3" for spec in COMPARE_MODELS)


def test_compare_model_spec_lookup():
    assert compare_model_spec("fd-pair").key == "fd-pair"
    with pytest.raises(KeyError):
        compare_model_spec("no-such-model")


def test_seed_independence_of_the_agreement():
    # A second, independent simulative seed must also bracket the exact
    # value -- guards against the first seed passing by coincidence.
    spec = compare_model_spec("unicast-burst")
    exact, sampled, *_ = _solve_both(spec, 400, seed=777)
    for reward_name in spec.reward_names:
        assert sampled.interval(reward_name).contains(exact.mean(reward_name))


def test_lossy_burst_first_passage_is_infinite_but_flagged():
    # With message loss the "all delivered" predicate is not almost-surely
    # reached: the analytic solver reports an infinite mean and a hitting
    # probability matching the closed form (1 - loss_rate)^messages.
    loss_rate = 0.2
    messages = 3

    def lossy_model():
        return exponential_unicast_burst_model(
            messages=messages, loss_rate=loss_rate
        )

    def all_delivered(marking) -> bool:
        return marking[DELIVERED_PLACE] >= messages

    solver = AnalyticSolver(
        model_factory=lossy_model,
        reward_factory=lambda: [],
        stop_predicate=all_delivered,
    )
    with pytest.warns(UserWarning, match="probability"):
        mean, probability = solver.first_passage_time(all_delivered)
    assert mean == math.inf
    assert probability == pytest.approx((1.0 - loss_rate) ** messages)
