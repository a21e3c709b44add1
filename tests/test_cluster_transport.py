"""Tests of the Ethernet hub, the transport pipeline and message tracing."""

from __future__ import annotations

import pytest

from repro.cluster import transport as transport_module
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.cluster.message import BROADCAST, Message
from repro.cluster.tracing import TraceRecord
from repro.cluster.neko import ProtocolLayer


class _Sink(ProtocolLayer):
    """Records every delivered message."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_deliver(self, message):
        self.received.append(message)


def _cluster(config):
    cluster = Cluster(config)
    cluster.create_processes(lambda sim, pid: [_Sink(sim, f"sink{pid}")])
    cluster.start_all()
    return cluster


def _send(cluster, sender, destination, msg_type="data", size=100):
    message = Message(sender=sender, destination=destination, msg_type=msg_type, size_bytes=size)
    cluster.transport.send(message)
    return message


def test_unicast_is_delivered_to_its_destination_only(cluster_config):
    cluster = _cluster(cluster_config)
    _send(cluster, 0, 2)
    cluster.run(until=10.0)
    assert len(cluster.process(2).layer(_Sink).received) == 1
    assert cluster.process(1).layer(_Sink).received == []
    assert cluster.transport.messages_delivered == 1


def test_end_to_end_delay_is_positive_and_bounded(cluster_config):
    cluster = _cluster(cluster_config)
    _send(cluster, 0, 1)
    cluster.run(until=10.0)
    record = cluster.trace.records[0]
    assert 0.05 < record.end_to_end_delay < 1.0


def test_broadcast_reaches_every_other_process(cluster_config_5):
    cluster = _cluster(cluster_config_5)
    _send(cluster, 2, BROADCAST)
    cluster.run(until=10.0)
    for pid in range(5):
        received = cluster.process(pid).layer(_Sink).received
        assert len(received) == (0 if pid == 2 else 1)
    # The copies carry the original message id as parent.
    parents = {record.parent_id for record in cluster.trace.records}
    assert len(parents) == 1


def test_broadcast_copies_are_staggered_by_sender_side_serialisation(cluster_config_5):
    cluster = _cluster(cluster_config_5)
    _send(cluster, 0, BROADCAST)
    cluster.run(until=10.0)
    deliveries = sorted(record.delivered_at for record in cluster.trace.records)
    assert len(deliveries) == 4
    assert deliveries[-1] - deliveries[0] > cluster.config.network.cpu_send_ms


def test_concurrent_senders_contend_for_the_shared_medium(cluster_config):
    config = cluster_config
    cluster = _cluster(config)
    _send(cluster, 0, 2)
    _send(cluster, 1, 2)
    cluster.run(until=10.0)
    assert cluster.hub.frames_transmitted == 2
    # Both messages also contend for the destination CPU; the second delivery
    # must be later than the first by at least the receive cost.
    times = sorted(record.delivered_at for record in cluster.trace.records)
    assert times[1] - times[0] >= config.network.cpu_receive_ms - 1e-9


def test_crashed_sender_sends_nothing(cluster_config):
    cluster = _cluster(cluster_config)
    cluster.crash_process(0)
    _send(cluster, 0, 1)
    cluster.run(until=10.0)
    assert cluster.transport.messages_delivered == 0
    assert cluster.transport.messages_dropped >= 1


def test_crashed_destination_drops_the_message(cluster_config):
    cluster = _cluster(cluster_config)
    cluster.crash_process(1)
    _send(cluster, 0, 1)
    cluster.run(until=10.0)
    assert cluster.process(1).layer(_Sink).received == []
    assert cluster.transport.messages_dropped >= 1


def test_larger_messages_occupy_the_wire_for_longer(cluster_config):
    cluster = _cluster(cluster_config)
    assert cluster.hub.frame_time(1000) > cluster.hub.frame_time(100)


def test_unknown_destination_is_rejected(cluster_config):
    cluster = _cluster(cluster_config)
    with pytest.raises(ValueError):
        _send(cluster, 0, 9)


def test_trace_filters_and_delay_lists(cluster_config):
    cluster = _cluster(cluster_config)
    _send(cluster, 0, 1, msg_type="ping")
    _send(cluster, 0, BROADCAST, msg_type="blast")
    cluster.run(until=10.0)
    assert len(cluster.trace.filter(msg_type="ping")) == 1
    assert len(cluster.trace.filter(broadcast=True)) == 2
    assert len(cluster.trace.unicast_delays(msg_type="ping")) == 1
    assert len(cluster.trace.broadcast_delays_averaged(msg_type="blast")) == 1
    assert len(cluster.trace.broadcast_delays_per_destination(msg_type="blast")) == 2


def test_trace_reads_interleaved_with_deliveries_keep_delivery_order(cluster_config):
    cluster = _cluster(cluster_config)
    first = _send(cluster, 0, 1)
    cluster.run(until=10.0)
    assert len(cluster.trace) == 1
    assert [record.msg_id for record in cluster.trace.records] == [first.msg_id]
    second = _send(cluster, 2, 1, msg_type="late")
    cluster.run(until=20.0)
    assert len(cluster.trace) == 2
    records = cluster.trace.records
    assert [record.msg_id for record in records] == [first.msg_id, second.msg_id]
    assert records[1] == TraceRecord(
        msg_id=second.msg_id, parent_id=None, msg_type="late", sender=2,
        destination=1, size_bytes=100, submitted_at=second.submitted_at,
        delivered_at=second.delivered_at,
    )
    assert cluster.trace.filter(msg_type="late") == [records[1]]
    cluster.trace.clear()
    assert len(cluster.trace) == 0 and cluster.trace.records == []


def test_message_helpers():
    message = Message(sender=0, destination=BROADCAST, msg_type="x")
    assert message.is_broadcast
    copy = message.unicast_copy(2)
    assert copy.destination == 2 and copy.parent_id == message.msg_id
    assert message.end_to_end_delay() is None
    message.submitted_at, message.delivered_at = 1.0, 1.4
    assert message.end_to_end_delay() == pytest.approx(0.4)


def test_reproducibility_same_seed_same_delays():
    def run_once():
        cluster = _cluster(ClusterConfig(n_processes=3, seed=77))
        _send(cluster, 0, 1)
        _send(cluster, 2, 1)
        cluster.run(until=10.0)
        return [record.end_to_end_delay for record in cluster.trace.records]

    assert run_once() == run_once()


# ----------------------------------------------------------------------
# Block-drawn protocol-stack latencies
# ----------------------------------------------------------------------
def _scalar_stack_latencies(rng, params, count):
    """The stack latencies drawn one ``random()``/``uniform()`` at a time."""
    latencies = []
    for _ in range(count):
        if rng.random() < params.stack_slow_probability:
            low, high = params.stack_latency_slow_low_ms, params.stack_latency_slow_high_ms
        else:
            low, high = params.stack_latency_fast_low_ms, params.stack_latency_fast_high_ms
        latencies.append(float(rng.uniform(low, high)))
    return latencies


@pytest.mark.parametrize("block", [1, 3, 7, transport_module.STACK_DRAW_BLOCK])
def test_block_drawn_stack_latencies_equal_the_scalar_draws(
    cluster_config, monkeypatch, block
):
    # With an odd block a block runs out between a copy's coin draw and its
    # uniform draw, so the refill must fall inside one latency.
    monkeypatch.setattr(transport_module, "STACK_DRAW_BLOCK", block)
    transport = Cluster(cluster_config).transport
    count = 3 * block + 300  # several refills, and both latency modes
    drawn = [transport._sample_stack_latency() for _ in range(count)]
    fresh = Cluster(cluster_config).sim.random.stream("transport.stack")
    expected = _scalar_stack_latencies(fresh, cluster_config.network, count)
    assert drawn == expected
    assert len({latency > cluster_config.network.stack_latency_fast_high_ms
                for latency in drawn}) == 2  # both modes occur
