"""Tests of the Chandra-Toueg ◇S consensus protocol on the simulated cluster."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.consensus.messages import coordinator_of_round, majority_of
from repro.experiments.figure8 import measure_class3_point
from repro.experiments.settings import ExperimentSettings
from repro.failure_detectors.static import StaticFailureDetector
from repro.failure_detectors.heartbeat import HeartbeatFailureDetector


# ----------------------------------------------------------------------
# Round arithmetic
# ----------------------------------------------------------------------
def test_coordinator_rotates_over_rounds():
    assert coordinator_of_round(1, 3) == 0
    assert coordinator_of_round(2, 3) == 1
    assert coordinator_of_round(3, 3) == 2
    assert coordinator_of_round(4, 3) == 0
    assert coordinator_of_round(7, 5) == 1


def test_coordinator_of_round_validates_arguments():
    with pytest.raises(ValueError):
        coordinator_of_round(0, 3)
    with pytest.raises(ValueError):
        coordinator_of_round(1, 0)


def test_majority_formula():
    assert majority_of(1) == 1
    assert majority_of(3) == 2
    assert majority_of(4) == 3
    assert majority_of(5) == 3
    assert majority_of(11) == 6


def test_majority_validates_arguments():
    with pytest.raises(ValueError):
        majority_of(0)


# ----------------------------------------------------------------------
# Protocol integration on the simulated cluster
# ----------------------------------------------------------------------
def _consensus_cluster(n=3, seed=1, crashed=(), fd_timeout=None):
    config = ClusterConfig(n_processes=n, seed=seed)
    cluster = Cluster(config)

    def stack(sim, pid):
        consensus = ChandraTouegConsensus(sim, name=f"ct{pid}")
        if fd_timeout is None:
            fd = StaticFailureDetector(sim, crashed=crashed, name=f"fd{pid}")
        else:
            fd = HeartbeatFailureDetector(sim, timeout_ms=fd_timeout, name=f"fd{pid}")
        return [consensus, fd]

    cluster.create_processes(stack)
    for pid in crashed:
        cluster.crash_process(pid)
    cluster.start_all()
    return cluster


def _propose_all(cluster, instance=0, at=1.0):
    for process in cluster.processes:
        if process.crashed:
            continue
        consensus = process.layer(ChandraTouegConsensus)
        cluster.sim.schedule_at(at, consensus.propose, instance, f"v{process.process_id}")


def _decisions(cluster, instance=0):
    result = {}
    for process in cluster.processes:
        if process.crashed:
            continue
        decision = process.layer(ChandraTouegConsensus).decision_of(instance)
        if decision is not None:
            result[process.process_id] = decision
    return result


def test_failure_free_run_terminates_and_agrees():
    cluster = _consensus_cluster(n=3, seed=2)
    _propose_all(cluster)
    cluster.run(until=100.0)
    decisions = _decisions(cluster)
    assert set(decisions) == {0, 1, 2}  # termination: every correct process decides
    values = {d.value for d in decisions.values()}
    assert len(values) == 1  # agreement
    assert values.pop() in {"v0", "v1", "v2"}  # validity
    assert all(d.round_number == 1 for d in decisions.values())


def test_coordinator_decides_first_in_failure_free_runs():
    cluster = _consensus_cluster(n=5, seed=3)
    _propose_all(cluster)
    cluster.run(until=100.0)
    decisions = _decisions(cluster)
    first = min(decisions.values(), key=lambda d: d.global_time)
    assert first.process_id == 0


def test_failure_free_run_decides_in_round_one_and_quickly():
    cluster = _consensus_cluster(n=5, seed=4)
    _propose_all(cluster, at=1.0)
    cluster.run(until=100.0)
    decisions = _decisions(cluster)
    assert all(d.round_number == 1 for d in decisions.values())
    first = min(d.global_time for d in decisions.values())
    assert first - 1.0 < 5.0  # well under the 10 ms separation used in the paper


def test_coordinator_crash_is_resolved_in_round_two():
    cluster = _consensus_cluster(n=3, seed=5, crashed=(0,))
    _propose_all(cluster)
    cluster.run(until=200.0)
    decisions = _decisions(cluster)
    assert set(decisions) == {1, 2}
    assert len({d.value for d in decisions.values()}) == 1
    assert all(d.round_number == 2 for d in decisions.values())
    # The decided value is proposed by a correct process (validity).
    assert decisions[1].value in {"v1", "v2"}


def test_participant_crash_still_decides_in_round_one():
    cluster = _consensus_cluster(n=5, seed=6, crashed=(1,))
    _propose_all(cluster)
    cluster.run(until=200.0)
    decisions = _decisions(cluster)
    assert set(decisions) == {0, 2, 3, 4}
    assert all(d.round_number == 1 for d in decisions.values())


def test_two_crashes_out_of_five_are_tolerated():
    cluster = _consensus_cluster(n=5, seed=7, crashed=(0, 1))
    _propose_all(cluster)
    cluster.run(until=500.0)
    decisions = _decisions(cluster)
    assert set(decisions) == {2, 3, 4}
    assert len({d.value for d in decisions.values()}) == 1
    # Coordinators of rounds 1 and 2 are crashed, so the decision comes in round 3.
    assert all(d.round_number == 3 for d in decisions.values())


def test_wrong_suspicions_do_not_violate_agreement_or_validity():
    cluster = _consensus_cluster(n=3, seed=8, fd_timeout=1.0)
    _propose_all(cluster)
    cluster.run(until=2000.0)
    decisions = _decisions(cluster)
    assert decisions, "at least one process must decide despite wrong suspicions"
    assert len({d.value for d in decisions.values()}) == 1
    assert next(iter(decisions.values())).value in {"v0", "v1", "v2"}


def test_multiple_instances_are_isolated_from_each_other():
    cluster = _consensus_cluster(n=3, seed=9)
    for instance in range(5):
        _propose_all(cluster, instance=instance, at=1.0 + 10.0 * instance)
    cluster.run(until=200.0)
    for instance in range(5):
        decisions = _decisions(cluster, instance)
        assert set(decisions) == {0, 1, 2}
        assert len({d.value for d in decisions.values()}) == 1


def test_single_process_consensus_decides_immediately():
    cluster = _consensus_cluster(n=1, seed=10)
    _propose_all(cluster)
    cluster.run(until=10.0)
    decision = cluster.process(0).layer(ChandraTouegConsensus).decision_of(0)
    assert decision is not None
    assert decision.value == "v0"


def test_duplicate_propose_for_the_same_instance_is_rejected():
    cluster = _consensus_cluster(n=3, seed=11)
    consensus = cluster.process(0).layer(ChandraTouegConsensus)
    consensus.propose(0, "x")
    with pytest.raises(ValueError):
        consensus.propose(0, "y")


def test_a_coordinator_that_hears_of_an_instance_first_still_proposes():
    # The participants propose before the round-1 coordinator, whose
    # estimates therefore arrive before its own propose() and create the
    # instance lazily; that propose must join the instance, not raise.
    cluster = _consensus_cluster(n=3, seed=13)
    late = cluster.process(0).layer(ChandraTouegConsensus)
    for pid in (1, 2):
        consensus = cluster.process(pid).layer(ChandraTouegConsensus)
        cluster.sim.schedule_at(1.0, consensus.propose, 0, f"v{pid}")
    cluster.run(until=3.0)
    assert late.decision_of(0) is None
    late.propose(0, "v0")
    cluster.run(until=100.0)
    decisions = _decisions(cluster)
    assert set(decisions) == {0, 1, 2}
    assert {d.value for d in decisions.values()} == {"v0"}
    assert all(d.round_number == 1 for d in decisions.values())
    with pytest.raises(ValueError, match="already proposed"):
        late.propose(0, "again")


def test_class3_point_with_a_lagging_coordinator_clock_runs_to_the_end():
    # Regression: at this seed the coordinator's clock lags far enough that
    # a participant's estimate for instance 30 reaches it before its own
    # scheduled propose(), which used to raise "already proposed".
    point = measure_class3_point(
        ExperimentSettings.quick(), 3, 100.0, 1573999074788715929, executions=31
    )
    assert len(point.latencies_ms) == 31
    assert point.undecided == 0


def test_decision_callbacks_fire_once_per_process_and_instance():
    cluster = _consensus_cluster(n=3, seed=12)
    events = []

    def record(pid, instance, value, local_time, global_time):
        events.append((pid, instance))

    for process in cluster.processes:
        process.layer(ChandraTouegConsensus).add_decision_callback(record)
    _propose_all(cluster)
    cluster.run(until=100.0)
    assert sorted(events) == [(0, 0), (1, 0), (2, 0)]


def test_messages_sent_counter_increases_with_n():
    small = _consensus_cluster(n=3, seed=13)
    _propose_all(small)
    small.run(until=100.0)
    big = _consensus_cluster(n=7, seed=13)
    _propose_all(big)
    big.run(until=100.0)

    def total(cluster):
        return sum(
            p.layer(ChandraTouegConsensus).messages_sent for p in cluster.processes
        )

    assert total(big) > total(small)


def test_has_decided_and_decisions_accessors():
    cluster = _consensus_cluster(n=3, seed=14)
    consensus = cluster.process(0).layer(ChandraTouegConsensus)
    assert not consensus.has_decided(0)
    assert consensus.decision_of(0) is None
    _propose_all(cluster)
    cluster.run(until=100.0)
    assert consensus.has_decided(0)
    assert len(consensus.decisions) == 1


def test_crashed_process_never_decides():
    cluster = _consensus_cluster(n=3, seed=15, crashed=(1,))
    _propose_all(cluster)
    cluster.run(until=100.0)
    assert cluster.process(1).layer(ChandraTouegConsensus).decisions == []
