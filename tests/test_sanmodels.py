"""Tests of the SAN models of the paper (network paths, FD model, consensus)."""

from __future__ import annotations

import math

import pytest

from repro.des.simulator import Simulator
from repro.san.executor import SANExecutor
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.places import Place
from repro.sanmodels.consensus_model import (
    ConsensusSANExperiment,
    build_consensus_model,
    consensus_stop_predicate,
    latency_reward,
)
from repro.sanmodels.fd_model import FDModelSettings, add_failure_detector_pair
from repro.sanmodels.network_model import add_broadcast_path, add_unicast_path
from repro.sanmodels.parameters import BimodalFit, SANParameters
from repro.stats.descriptive import confidence_interval
from repro.stats.distributions import Constant


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------
def test_default_parameters_reproduce_the_papers_fit():
    params = SANParameters()
    dist = params.unicast_fit.distribution()
    assert dist.mean() == pytest.approx(0.8 * 0.115 + 0.2 * 0.2475)
    assert params.t_send_ms == 0.025


def test_t_net_is_end_to_end_minus_two_t_send():
    params = SANParameters(t_send_ms=0.025, t_receive_ms=0.025)
    t_net = params.t_net_unicast_distribution()
    assert t_net.mean() == pytest.approx(params.unicast_fit.distribution().mean() - 0.05, rel=1e-6)


def test_with_t_send_keeps_the_end_to_end_delay_fixed():
    params = SANParameters()
    changed = params.with_t_send(0.01)
    assert changed.t_send_ms == changed.t_receive_ms == 0.01
    total_before = params.t_net_unicast_distribution().mean() + 2 * params.t_send_ms
    total_after = changed.t_net_unicast_distribution().mean() + 2 * changed.t_send_ms
    assert total_after == pytest.approx(total_before, rel=1e-6)


def test_broadcast_fit_grows_with_the_number_of_destinations():
    params = SANParameters()
    assert (
        params.t_net_broadcast_distribution(5).mean()
        > params.t_net_broadcast_distribution(3).mean()
        > params.t_net_unicast_distribution().mean()
    )


def test_explicit_broadcast_fits_take_precedence():
    fit = BimodalFit(low1=1.0, high1=1.1, low2=1.2, high2=1.3)
    params = SANParameters(broadcast_fits=((5, fit),))
    assert params.broadcast_fit_for(5) is fit
    assert params.broadcast_fit_for(3) is not fit


def test_parameters_from_measured_delays_fits_both_kinds():
    import numpy as np

    rng = np.random.default_rng(0)
    unicast = list(rng.uniform(0.1, 0.3, size=500))
    broadcast = list(rng.uniform(0.2, 0.5, size=500))
    params = SANParameters.from_measured_delays(unicast, {5: broadcast}, t_send_ms=0.02)
    assert params.t_send_ms == 0.02
    assert params.unicast_fit.low1 >= 0.09
    assert params.broadcast_fit_for(5).high2 <= 0.55


def test_negative_t_send_rejected():
    with pytest.raises(ValueError):
        SANParameters(t_send_ms=-0.1)


# ----------------------------------------------------------------------
# Network submodel
# ----------------------------------------------------------------------
def _network_test_model():
    model = SANModel("net")
    model.add_place(Place("network", 1))
    for pid in (0, 1):
        model.add_place(Place(f"p{pid}.cpu", 1))
        model.add_place(Place(f"p{pid}.crashed", 0))
    model.add_place(Place("delivered", 0))
    return model


def test_unicast_path_delivers_exactly_one_token_and_releases_resources():
    model = _network_test_model()
    add_unicast_path(
        model, "data", 0, 1,
        t_send=Constant(0.1), t_net=Constant(0.2), t_receive=Constant(0.1),
        delivery_effect=lambda marking: marking.add("delivered"),
    )
    initial = model.initial_marking()
    initial["msg.data.0.1.sendq"] = 1
    executor = SANExecutor(model, Simulator(seed=0), initial_marking=initial)
    outcome = executor.run()
    assert outcome.final_marking["delivered"] == 1
    assert outcome.final_marking["p0.cpu"] == 1
    assert outcome.final_marking["p1.cpu"] == 1
    assert outcome.final_marking["network"] == 1
    assert outcome.end_time == pytest.approx(0.4)


def test_unicast_path_to_a_crashed_destination_stalls_before_its_cpu():
    model = _network_test_model()
    add_unicast_path(
        model, "data", 0, 1,
        t_send=Constant(0.1), t_net=Constant(0.2), t_receive=Constant(0.1),
        delivery_effect=lambda marking: marking.add("delivered"),
    )
    initial = model.initial_marking()
    initial["msg.data.0.1.sendq"] = 1
    initial["p1.crashed"] = 1
    outcome = SANExecutor(model, Simulator(seed=0), initial_marking=initial).run(until=10.0)
    assert outcome.final_marking["delivered"] == 0
    assert outcome.final_marking["msg.data.0.1.recvq"] == 1
    assert outcome.final_marking["network"] == 1  # the wire is not held forever


def test_two_messages_share_the_network_sequentially():
    model = _network_test_model()
    model.add_place(Place("p2.cpu", 1))
    model.add_place(Place("p2.crashed", 0))
    for src in (0, 1):
        add_unicast_path(
            model, "data", src, 2,
            t_send=Constant(0.0), t_net=Constant(1.0), t_receive=Constant(0.0),
            delivery_effect=lambda marking: marking.add("delivered"),
        )
    initial = model.initial_marking()
    initial["msg.data.0.2.sendq"] = 1
    initial["msg.data.1.2.sendq"] = 1
    outcome = SANExecutor(model, Simulator(seed=0), initial_marking=initial).run()
    assert outcome.final_marking["delivered"] == 2
    assert outcome.end_time == pytest.approx(2.0)  # serialized on the single wire


def test_broadcast_path_fans_out_to_every_destination():
    model = _network_test_model()
    model.add_place(Place("p2.cpu", 1))
    model.add_place(Place("p2.crashed", 0))
    received = []
    add_broadcast_path(
        model, "prop", 0, [1, 2],
        t_send=Constant(0.1), t_net_broadcast=Constant(0.3), t_receive=Constant(0.1),
        delivery_effect_for=lambda dst: (lambda marking, d=dst: received.append(d)),
    )
    initial = model.initial_marking()
    initial["msg.prop.0.sendq"] = 1
    outcome = SANExecutor(model, Simulator(seed=0), initial_marking=initial).run()
    assert sorted(received) == [1, 2]
    assert outcome.final_marking["network"] == 1
    assert outcome.end_time == pytest.approx(0.5)  # one wire occupation, parallel receive


# ----------------------------------------------------------------------
# Failure-detector submodel
# ----------------------------------------------------------------------
def test_fd_settings_validation_and_derived_quantities():
    with pytest.raises(ValueError):
        FDModelSettings(mistake_recurrence_time=1.0, mistake_duration=2.0)
    settings = FDModelSettings(mistake_recurrence_time=10.0, mistake_duration=2.0)
    assert settings.trust_sojourn_mean == pytest.approx(8.0)
    assert settings.suspicion_probability == pytest.approx(0.2)
    assert settings.trust_to_suspect_distribution().mean() == pytest.approx(8.0)
    assert settings.suspect_to_trust_distribution().mean() == pytest.approx(2.0)


def test_static_fd_pair_places_reflect_the_initial_state():
    model = SANModel("fd")
    add_failure_detector_pair(model, 0, 1, settings=None, initially_suspected=True)
    add_failure_detector_pair(model, 0, 2, settings=None)
    marking = model.initial_marking()
    assert marking["p0.susp.1"] == 1 and marking["p0.trust.1"] == 0
    assert marking["p0.susp.2"] == 0 and marking["p0.trust.2"] == 1
    assert model.activities == []


def test_dynamic_fd_pair_alternates_between_trust_and_suspect():
    from repro.san.rewards import IntervalOfTime

    model = SANModel("fd")
    settings = FDModelSettings(
        mistake_recurrence_time=10.0, mistake_duration=2.0, kind="deterministic"
    )
    add_failure_detector_pair(model, 0, 1, settings=settings)
    assert len(model.timed_activities) == 2  # ts and st of Fig. 5
    assert len(model.instantaneous_activities) == 1  # probabilistic init
    suspected_fraction = IntervalOfTime(
        lambda m: float(m["p0.susp.1"]), normalize=True, name="suspected"
    )
    executor = SANExecutor(model, Simulator(seed=1), rewards=[suspected_fraction])
    outcome = executor.run(until=500.0)
    assert outcome.completions > 10
    # Deterministic sojourns of 8 ms (trust) and 2 ms (suspect): the module
    # spends T_M / T_MR = 20% of its time suspecting.
    assert suspected_fraction.value() == pytest.approx(0.2, abs=0.03)


# ----------------------------------------------------------------------
# The composed consensus model
# ----------------------------------------------------------------------
def test_consensus_model_structure_scales_with_n():
    small = build_consensus_model(3)
    large = build_consensus_model(5)
    assert len(large.places) > len(small.places)
    assert len(large.activities) > len(small.activities)
    assert small.has_place("network") and small.has_place("decided_any")


def test_consensus_model_rejects_too_many_crashes():
    with pytest.raises(ValueError):
        build_consensus_model(3, crashed=(0, 1))


def test_failure_free_replication_decides_with_every_process_correct():
    model = build_consensus_model(3)
    reward = latency_reward()
    executor = SANExecutor(model, Simulator(seed=2), rewards=[reward])
    outcome = executor.run(until=1_000.0, stop_predicate=consensus_stop_predicate)
    assert outcome.stopped_by_predicate
    assert 0.05 < reward.value() < 10.0


def test_coordinator_crash_replication_still_decides_but_later():
    def latency_for(crashed):
        model = build_consensus_model(3, crashed=crashed)
        reward = latency_reward()
        executor = SANExecutor(model, Simulator(seed=3), rewards=[reward])
        outcome = executor.run(until=1_000.0, stop_predicate=consensus_stop_predicate)
        assert outcome.stopped_by_predicate
        return reward.value()

    assert latency_for((0,)) > latency_for(())


def test_san_experiment_reports_statistics_and_reproducibility():
    experiment = ConsensusSANExperiment(n_processes=3, seed=5)
    result = experiment.run(replications=30)
    again = ConsensusSANExperiment(n_processes=3, seed=5).run(replications=30)
    assert result.replications == 30
    assert result.undecided == 0
    assert result.latencies_ms == again.latencies_ms
    assert result.interval.lower <= result.mean_ms <= result.interval.upper
    assert not math.isnan(result.mean_ms)
    assert result.cdf().n == 30


def test_san_experiment_interval_is_computed_at_its_confidence_when_read():
    result = ConsensusSANExperiment(n_processes=3, seed=5, confidence=0.95).run(replications=20)
    assert result.confidence == 0.95
    assert result.interval == confidence_interval(result.latencies_ms, 0.95)
    assert float.hex(result.mean_ms) == float.hex(result.interval.mean)
    assert "interval" not in vars(result)  # nothing cached, nothing pickled


def test_san_experiment_without_decisions_has_a_nan_mean_and_interval():
    result = ConsensusSANExperiment(n_processes=3, seed=5, max_time_ms=1e-6).run(replications=3)
    assert result.latencies_ms == [] and result.undecided == 3
    assert math.isnan(result.mean_ms)
    interval = result.interval
    assert (interval.confidence, interval.n) == (0.90, 0)
    assert math.isnan(interval.mean) and math.isnan(interval.half_width)


def test_san_experiment_latency_grows_with_n():
    small = ConsensusSANExperiment(n_processes=3, seed=6).run(replications=40).mean_ms
    large = ConsensusSANExperiment(n_processes=5, seed=6).run(replications=40).mean_ms
    assert large > small


def test_san_experiment_with_bad_fd_has_higher_latency_than_accurate_fd():
    accurate = ConsensusSANExperiment(n_processes=3, seed=7).run(replications=40).mean_ms
    bad_fd = ConsensusSANExperiment(
        n_processes=3,
        seed=7,
        fd_settings=FDModelSettings(mistake_recurrence_time=3.0, mistake_duration=1.0),
    ).run(replications=40).mean_ms
    assert bad_fd > accurate


def test_san_experiment_precision_target_mode_runs_enough_replications():
    experiment = ConsensusSANExperiment(n_processes=3, seed=8)
    result = experiment.run(replications=10, relative_precision=0.1, min_replications=10, max_replications=200)
    assert 10 <= result.replications <= 200
