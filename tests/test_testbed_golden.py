"""Golden outputs of the measurement testbed: lock the DES kernel's exact behaviour.

Three fixed-seed :class:`MeasurementRunner` points -- class 1 (no
failures), class 2 (first coordinator crashed) and class 3 (heartbeat
failure detector with wrong suspicions, sequential mode) -- are pinned
against literals: every latency float, the number of calendar events
fired, the transport's per-copy counters, the heartbeats sent and the
number of failure-detector transitions.

Any change to calendar order (sequence numbers, same-time tie-breaking),
to the three FIFO resources of the seven-step transport, or to how the
``transport.stack`` stream is drawn shows up here as an exact mismatch.
A kernel optimisation must leave every value untouched.
"""

from __future__ import annotations

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.measurement import MeasurementConfig, MeasurementRunner
from repro.core.scenarios import Scenario

POINTS = {
    "class1": MeasurementConfig(
        cluster=ClusterConfig(n_processes=3, seed=11),
        scenario=Scenario.no_failures(),
        executions=20,
    ),
    "class2": MeasurementConfig(
        cluster=ClusterConfig(n_processes=5, seed=12),
        scenario=Scenario.coordinator_crash(),
        executions=8,
    ),
    "class3": MeasurementConfig(
        cluster=ClusterConfig(n_processes=3, seed=13),
        scenario=Scenario.wrong_suspicions(timeout_ms=2.0),
        executions=15,
        separation_ms=10.0,
        sequential=True,
        max_instance_time_ms=500.0,
    ),
}

GOLDEN = {
    "class1": {
        "latencies_ms": [
            0.6280000000000001, 0.7240000000000002, 0.6440000000000019,
            0.7789999999999999, 0.7749999999999986, 0.777000000000001,
            0.7980000000000018, 0.6880000000000024, 0.7240000000000038,
            0.7870000000000061, 0.722999999999999, 0.820999999999998,
            0.7390000000000043, 0.8100000000000023, 0.7669999999999959,
            0.7930000000000064, 0.8940000000000055, 0.8569999999999993,
            0.7390000000000043, 0.724000000000018,
        ],
        "undecided": 0,
        "events_processed": 1284,
        "sent": 306,
        "delivered": 306,
        "dropped": 0,
        "heartbeats_sent": 0,
        "fd_transitions": 0,
    },
    "class2": {
        "latencies_ms": [
            1.178, 1.0700000000000003, 1.1980000000000004, 1.097999999999999,
            1.1799999999999997, 1.1300000000000026, 1.0500000000000043,
            1.1410000000000053,
        ],
        "undecided": 0,
        "events_processed": 1248,
        "sent": 332,
        "delivered": 220,
        "dropped": 112,
        "heartbeats_sent": 0,
        "fd_transitions": 0,
    },
    "class3": {
        "latencies_ms": [
            0.8160000000000001, 1.273210286323966, 1.3435117499928992,
            1.507234753785589, 0.7810296010158666, 0.816735949187148,
            0.9992733406255638, 0.712143282146485, 1.7376821730933756,
            1.4344336189901412, 0.7754250589417069, 0.7175781271491815,
            1.0971474879418395, 0.7457557544579458,
        ],
        "undecided": 0,
        "events_processed": 2733,
        "sent": 578,
        "delivered": 575,
        "dropped": 0,
        "heartbeats_sent": 146,
        "fd_transitions": 445,
    },
}


def _observe(config: MeasurementConfig) -> dict:
    runner = MeasurementRunner(config)
    result = runner.run()
    transport = runner.cluster.transport
    return {
        "latencies_ms": result.latencies_ms,
        "undecided": result.undecided,
        "events_processed": runner.cluster.sim.events_processed,
        "sent": transport.messages_sent,
        "delivered": transport.messages_delivered,
        "dropped": transport.messages_dropped,
        "heartbeats_sent": result.heartbeats_sent,
        "fd_transitions": len(result.fd_history),
    }


@pytest.mark.parametrize("name", sorted(POINTS))
def test_testbed_point_matches_its_golden_outputs(name):
    assert _observe(POINTS[name]) == GOLDEN[name]
