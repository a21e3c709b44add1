"""Tests of the analytic CTMC solver (against closed-form results)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.san import (
    ActivityCounter,
    AnalyticSolver,
    AnalyticSolverError,
    Case,
    FirstPassageTime,
    InstantOfTime,
    IntervalOfTime,
    Place,
    RewardVariable,
    SANModel,
    TimedActivity,
)
from repro.san import analytic
from repro.san.analytic import (
    UNIFORMIZATION_EPSILON,
    _poisson_pmf,
    _poisson_ppf,
    _poisson_sf,
)
from repro.stats.distributions import Exponential


def two_state_model(rate_up: float = 0.5, rate_down: float = 2.0) -> SANModel:
    """A two-state chain: off -> on at ``rate_up``, on -> off at ``rate_down``."""
    model = SANModel("two-state")
    model.add_place(Place("off", 1))
    model.add_place(Place("on", 0))
    model.add_activity(
        TimedActivity(
            "turn_on",
            Exponential(1.0 / rate_up),
            input_arcs=["off"],
            cases=[Case.build(output_arcs=["on"])],
        )
    )
    model.add_activity(
        TimedActivity(
            "turn_off",
            Exponential(1.0 / rate_down),
            input_arcs=["on"],
            cases=[Case.build(output_arcs=["off"])],
        )
    )
    return model


def birth_death_model(capacity: int = 3) -> SANModel:
    """M/M/1/c queue with arrival rate 2 and service rate 1."""
    model = SANModel("mm1c")
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


def queue_length(marking) -> float:
    return float(marking["queue"])


# ----------------------------------------------------------------------
# Steady state
# ----------------------------------------------------------------------
def test_steady_state_of_birth_death_matches_closed_form():
    solver = AnalyticSolver(birth_death_model, lambda: [])
    pi = solver.steady_state()
    space = solver.state_space
    # M/M/1/3 with rho = 2: pi_k proportional to 2^k.
    expected = {0: 1 / 15, 1: 2 / 15, 2: 4 / 15, 3: 8 / 15}
    for k, probability in expected.items():
        state = space.index_of(
            next(s for s in space.states if s["queue"] == k)
        )
        assert pi[state] == pytest.approx(probability)


def test_steady_state_of_two_state_chain():
    solver = AnalyticSolver(lambda: two_state_model(0.5, 2.0), lambda: [])
    pi = solver.steady_state()
    space = solver.state_space
    on = space.index_of(next(s for s in space.states if s["on"]))
    # pi_on = rate_up / (rate_up + rate_down).
    assert pi[on] == pytest.approx(0.5 / 2.5)


# ----------------------------------------------------------------------
# Transient (uniformization) against the closed-form two-state solution
# ----------------------------------------------------------------------
@pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 1.0, 3.0, 10.0])
def test_transient_two_state_matches_closed_form(t):
    rate_up, rate_down = 0.5, 2.0
    solver = AnalyticSolver(lambda: two_state_model(rate_up, rate_down), lambda: [])
    space = solver.state_space
    on = space.index_of(next(s for s in space.states if s["on"]))
    pi_t = solver.transient(t)
    stationary = rate_up / (rate_up + rate_down)
    expected = stationary * (1.0 - math.exp(-(rate_up + rate_down) * t))
    assert pi_t[on] == pytest.approx(expected, abs=1e-9)
    assert pi_t.sum() == pytest.approx(1.0)


def test_accumulated_occupancy_integrates_the_transient():
    rate_up, rate_down = 0.5, 2.0
    horizon = 4.0
    solver = AnalyticSolver(lambda: two_state_model(rate_up, rate_down), lambda: [])
    space = solver.state_space
    on = space.index_of(next(s for s in space.states if s["on"]))
    occupancy = solver.accumulated(horizon)
    total_rate = rate_up + rate_down
    stationary = rate_up / total_rate
    # Closed-form integral of the transient on-probability.
    expected = stationary * horizon - stationary / total_rate * (
        1.0 - math.exp(-total_rate * horizon)
    )
    assert occupancy[on] == pytest.approx(expected, abs=1e-9)
    assert occupancy.sum() == pytest.approx(horizon)


# ----------------------------------------------------------------------
# First passage and absorption rewards
# ----------------------------------------------------------------------
def fill_predicate(marking) -> bool:
    return marking["queue"] >= 3


def test_first_passage_time_matches_hand_solved_chain():
    # Expected time for the M/M/1/3 queue to fill from empty; hand-solved
    # hitting-time equations give h0 = 17/8.
    solver = AnalyticSolver(
        birth_death_model,
        lambda: [FirstPassageTime(fill_predicate, name="fill")],
        stop_predicate=fill_predicate,
    )
    result = solver.solve()
    assert result.mode == "absorbing"
    assert result.rewards["fill"] == pytest.approx(17.0 / 8.0)
    mean, probability = solver.first_passage_time(fill_predicate)
    assert mean == pytest.approx(17.0 / 8.0)
    assert probability == pytest.approx(1.0)


def test_absorbing_mode_counts_expected_completions():
    solver = AnalyticSolver(
        birth_death_model,
        lambda: [
            ActivityCounter(name="all"),
            ActivityCounter({"arrive"}, name="arrivals"),
        ],
        stop_predicate=fill_predicate,
    )
    result = solver.solve()
    # Arrivals fire at rate 2 in every transient state, so E[arrivals] is
    # twice the expected fill time (17/8); every fill path has exactly 3
    # more arrivals than services, giving E[all] = 2 * 17/4 - 3 = 5.5.
    assert result.rewards["arrivals"] == pytest.approx(17.0 / 4.0)
    assert result.rewards["all"] == pytest.approx(5.5)
    services = result.rewards["all"] - result.rewards["arrivals"]
    assert result.rewards["arrivals"] - services == pytest.approx(3.0)


def test_interval_of_time_until_absorption():
    solver = AnalyticSolver(
        birth_death_model,
        lambda: [
            IntervalOfTime(queue_length, name="queue_integral"),
            IntervalOfTime(queue_length, normalize=True, name="queue_average"),
            FirstPassageTime(fill_predicate, name="fill"),
        ],
        stop_predicate=fill_predicate,
    )
    result = solver.solve()
    assert result.rewards["queue_average"] == pytest.approx(
        result.rewards["queue_integral"] / result.rewards["fill"]
    )
    assert 0.0 < result.rewards["queue_average"] < 3.0


def test_horizon_mode_rate_and_impulse_rewards():
    horizon = 50.0
    solver = AnalyticSolver(
        birth_death_model,
        lambda: [
            IntervalOfTime(queue_length, normalize=True, name="mean_queue"),
            ActivityCounter({"serve"}, name="served"),
        ],
        max_time=horizon,
    )
    result = solver.solve()
    assert result.mode == "horizon"
    # At t = 50 the chain is near-stationary (the empty start biases the
    # time average down by ~2%): mean queue length ~2.2667, service
    # throughput = mu * P(queue > 0).
    steady_queue = sum(k * p for k, p in zip(range(4), [1 / 15, 2 / 15, 4 / 15, 8 / 15], strict=True))
    assert result.rewards["mean_queue"] == pytest.approx(steady_queue, rel=0.05)
    assert result.rewards["mean_queue"] < steady_queue  # burn-in bias is downward
    busy = 14 / 15
    assert result.rewards["served"] == pytest.approx(busy * horizon, rel=0.05)


def test_instant_of_time_reward():
    solver = AnalyticSolver(
        lambda: two_state_model(0.5, 2.0),
        lambda: [InstantOfTime(1.0, lambda marking: float(marking["on"]), name="p_on")],
        max_time=5.0,
    )
    result = solver.solve()
    expected = 0.2 * (1.0 - math.exp(-2.5))
    assert result.rewards["p_on"] == pytest.approx(expected, abs=1e-9)


def test_hitting_probability_with_a_recurrent_trap():
    # From A: rate 1 to the target, rate 1 into a B <-> C cycle that never
    # reaches it.  The closed recurrent class used to make the hitting
    # system singular and the probability collapse to 0; the correct
    # answer is 1/2.
    def trap_model():
        model = SANModel("trap")
        model.add_place(Place("a", 1))
        model.add_place(Place("b", 0))
        model.add_place(Place("c", 0))
        model.add_place(Place("target", 0))
        model.add_activity(
            TimedActivity(
                "win", Exponential(1.0), input_arcs=["a"],
                cases=[Case.build(output_arcs=["target"])],
            )
        )
        model.add_activity(
            TimedActivity(
                "trap", Exponential(1.0), input_arcs=["a"],
                cases=[Case.build(output_arcs=["b"])],
            )
        )
        model.add_activity(
            TimedActivity(
                "bc", Exponential(1.0), input_arcs=["b"],
                cases=[Case.build(output_arcs=["c"])],
            )
        )
        model.add_activity(
            TimedActivity(
                "cb", Exponential(1.0), input_arcs=["c"],
                cases=[Case.build(output_arcs=["b"])],
            )
        )
        return model

    def hit(marking) -> bool:
        return marking["target"] >= 1

    solver = AnalyticSolver(trap_model, lambda: [], stop_predicate=hit)
    with pytest.warns(UserWarning, match="probability"):
        mean, probability = solver.first_passage_time(hit)
    assert probability == pytest.approx(0.5)
    assert mean == math.inf


def test_unreachable_predicate_yields_nan():
    solver = AnalyticSolver(
        birth_death_model,
        lambda: [FirstPassageTime(lambda marking: marking["queue"] >= 99, name="never")],
    )
    result = solver.solve()
    assert math.isnan(result.rewards["never"])
    assert result.values("never") == []
    assert result.sample_size("never") == 0


def test_unsupported_reward_type_raises():
    class Exotic(RewardVariable):
        name = "exotic"

    solver = AnalyticSolver(birth_death_model, lambda: [Exotic()])
    with pytest.raises(AnalyticSolverError, match="exotic"):
        solver.solve()


# ----------------------------------------------------------------------
# Result interface (SolverResult compatibility)
# ----------------------------------------------------------------------
def test_analytic_result_reading_interface():
    solver = AnalyticSolver(
        birth_death_model,
        lambda: [FirstPassageTime(fill_predicate, name="fill")],
        stop_predicate=fill_predicate,
        confidence=0.95,
    )
    result = solver.solve()
    assert result.mean("fill") == pytest.approx(17.0 / 8.0)
    assert result.values("fill") == [result.mean("fill")]
    assert result.sample_size("fill") == 1
    interval = result.interval("fill")
    assert interval.half_width == 0.0
    assert interval.confidence == 0.95
    assert interval.contains(result.mean("fill"))
    assert result.n == 1
    assert result.n_states == solver.state_space.n_states
    assert result.solve_seconds >= 0.0
    assert math.isnan(result.mean("unknown"))


def test_transient_rejects_negative_times():
    solver = AnalyticSolver(birth_death_model, lambda: [])
    with pytest.raises(ValueError):
        solver.transient(-1.0)


def test_all_absorbing_chain_transient_is_constant():
    def dead_model():
        model = SANModel("dead")
        model.add_place(Place("p", 1))
        model.add_activity(
            TimedActivity("noop", Exponential(1.0), input_arcs=["missing"])
        )
        model.add_place(Place("missing", 0))
        return model

    solver = AnalyticSolver(dead_model, lambda: [])
    pi = solver.transient(10.0)
    assert np.allclose(pi, solver.state_space.initial_distribution)
    assert np.allclose(solver.accumulated(2.0), pi * 2.0)


# ----------------------------------------------------------------------
# The Poisson helpers reproduce scipy.stats.poisson bit for bit
# ----------------------------------------------------------------------
#: 600 seeded means over the range uniformization meets, plus edge means
#: (zero, subnormal, tiny, integral, and beyond the seeded range).
POISSON_MEANS = [
    *np.random.default_rng(20020623).uniform(0.0, 500.0, size=600).tolist(),
    0.0, 5e-324, 1e-300, 1e-12, 1e-6, 0.5, 1.0, 2.0, 500.0, 1e4,
]


def _bit_identical(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    return ours.dtype == theirs.dtype and np.array_equal(ours, theirs, equal_nan=True)


def _support(mu):
    # Every k uniformization could weight, and well into the tail.
    return np.arange(int(3 * mu) + 21)


def test_poisson_pmf_matches_scipy_stats():
    for mu in POISSON_MEANS:
        ks = _support(mu)
        assert _bit_identical(_poisson_pmf(ks, mu), stats.poisson.pmf(ks, mu)), mu


def test_poisson_sf_matches_scipy_stats():
    for mu in POISSON_MEANS:
        ks = _support(mu)
        assert _bit_identical(_poisson_sf(ks, mu), stats.poisson.sf(ks, mu)), mu


def test_poisson_ppf_matches_scipy_stats_at_truncation_and_seeded_quantiles():
    rng = np.random.default_rng(22)
    for mu in POISSON_MEANS:
        for q in [1.0 - UNIFORMIZATION_EPSILON, *rng.random(3).tolist()]:
            assert _poisson_ppf(q, mu) == float(stats.poisson.ppf(q, mu)), (q, mu)


@given(
    q=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    mu=st.one_of(
        st.sampled_from(POISSON_MEANS[-10:]),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    ),
)
@settings(max_examples=500, deadline=None)
def test_poisson_ppf_matches_scipy_stats_at_random_quantiles(q, mu):
    assert _poisson_ppf(q, mu) == float(stats.poisson.ppf(q, mu))


# ----------------------------------------------------------------------
# Dense solves: one BLAS thread, one sojourn solve, pinned bits
# ----------------------------------------------------------------------
def _consensus3_solver() -> AnalyticSolver:
    from repro.san.rewards import ActivityCounter
    from repro.sanmodels.consensus_model import consensus_stop_predicate, latency_reward
    from repro.sanmodels.exponential import exponential_consensus_model

    return AnalyticSolver(
        model_factory=lambda: exponential_consensus_model(3),
        reward_factory=lambda: [latency_reward(), ActivityCounter(name="completions")],
        stop_predicate=consensus_stop_predicate,
    )


#: Analytic values as ``float.hex``, recorded before the dense solves ran
#: on one BLAS thread; a different LU pivot order would move the last bits.
ANALYTIC_GOLDENS = {
    "fd-pair": {"suspect_fraction": "0x1.9999999999972p-4"},
    "unicast-burst": {
        "all_delivered": "0x1.baaab70db677cp-2",
        "completions": "0x1.8000000000000p+4",
    },
    "consensus-n3": {
        "latency": "0x1.f9d9120bb42cdp-2",
        "completions": "0x1.3e4058c79bc77p+5",
    },
}


def test_analytic_values_of_the_compare_models_are_bit_identical():
    from repro.sanmodels.compare_suite import COMPARE_MODELS

    for spec in COMPARE_MODELS:
        result = AnalyticSolver(
            model_factory=spec.model_factory,
            reward_factory=spec.reward_factory,
            stop_predicate=spec.stop_predicate,
            max_time=spec.max_time,
        ).solve()
        hexed = {name: float(value).hex() for name, value in result.rewards.items()}
        assert hexed == ANALYTIC_GOLDENS[spec.key], spec.key
    consensus = _consensus3_solver().solve()
    assert {
        name: float(value).hex() for name, value in consensus.rewards.items()
    } == ANALYTIC_GOLDENS["consensus-n3"]


def test_steady_state_is_bit_identical():
    from repro.sanmodels.compare_suite import fd_pair_model

    solver = AnalyticSolver(model_factory=fd_pair_model, reward_factory=lambda: [])
    assert [float(p).hex() for p in solver.steady_state()] == [
        "0x1.9999999999996p-4",
        "0x1.ccccccccccccep-1",
    ]


def test_an_absorbing_solve_solves_its_sojourn_system_once(monkeypatch):
    solved = []
    original = AnalyticSolver._solve_sojourn

    def counting(self, target_mask):
        solved.append(target_mask.tobytes())
        return original(self, target_mask)

    monkeypatch.setattr(AnalyticSolver, "_solve_sojourn", counting)
    solver = _consensus3_solver()
    first = solver.solve()
    # solve() and the latency reward's first passage target the same set.
    assert len(solved) == 1
    # A cached vector is handed out as a copy.
    solver.expected_sojourn_times(solver.state_space.absorbing)[:] = -1.0
    assert solver.solve().rewards == first.rewards
    assert len(solved) == 1


def test_dense_solves_run_on_one_blas_thread_and_restore_the_count():
    np.linalg.solve(np.eye(2), np.ones(2))  # the BLAS library is loaded
    analytic._blas_thread_controls.cache_clear()  # looked up afresh
    controls = analytic._blas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    before = [getter() for _setter, getter in controls]
    with pytest.raises(ZeroDivisionError):
        with analytic._one_blas_thread():
            assert [getter() for _setter, getter in controls] == [1] * len(controls)
            1 / 0
    assert [getter() for _setter, getter in controls] == before
