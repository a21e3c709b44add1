"""The message transport: TCP over the shared Ethernet hub.

The paper transmits all messages over TCP/IP connections established at the
beginning of the test (§2.5) and decomposes the end-to-end delay of a
message into seven steps (Fig. 3): sending-host CPU, shared network medium,
receiving-host CPU, plus the queueing in front of each resource.  The
transport reproduces exactly that pipeline:

1. the message enters the sending host's CPU queue;
2. it occupies the sending CPU for ``cpu_send_ms`` (serialisation, protocol
   stack, network controller);
3. it queues for the shared Ethernet medium;
4. it occupies the medium for its frame time (plus hub latency);
5. it incurs a protocol-stack latency on the receiving side (interrupt
   handling, kernel-to-user wake-up) which does not occupy the CPU
   resource but does take wall-clock time -- this is the component whose
   bi-modal distribution dominates the measured end-to-end delay (§5.1);
6. it occupies the receiving CPU for ``cpu_receive_ms``;
7. it is delivered to the destination process.

Broadcasts are expanded into unicast copies sent back-to-back in increasing
process-id order, as the paper's implementation does (whereas the SAN model
treats them as single messages -- see §5.3's discussion of the n = 3
participant-crash anomaly).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Sequence

import numpy as np

from repro.des.simulator import Simulator
from repro.cluster.config import ClusterConfig
from repro.cluster.ethernet import EthernetHub
from repro.cluster.host import Host
from repro.cluster.message import Message
from repro.cluster.tracing import MessageTrace
from repro.faults.injector import FaultInjector

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.traces.events import TraceCollector

DeliverCallback = Callable[[Message], None]

#: Drop causes attributed by the transport itself (the fault injector adds
#: its own, e.g. ``"loss"`` and ``"partition"``).
CAUSE_SENDER_CRASHED = "sender-crashed"
CAUSE_RECEIVER_CRASHED = "receiver-crashed"

#: Doubles drawn from the ``transport.stack`` stream per numpy call; every
#: unicast copy uses two of them.
STACK_DRAW_BLOCK = 256


def _block_draws(rng: np.random.Generator, size: int) -> Iterator[float]:
    """The doubles of ``rng.random()``, drawn ``size`` at a time."""
    while True:
        yield from rng.random(size).tolist()


class Transport:
    """Reliable, ordered, connection-oriented message transport.

    Parameters
    ----------
    sim:
        The owning simulator.
    config:
        Cluster configuration (message sizes, CPU costs, ...).
    hosts:
        The cluster's hosts, indexed by process id.
    hub:
        The shared Ethernet segment.
    trace:
        Optional message trace receiving every delivery.
    injector:
        Optional fault injector consulted once per unicast copy entering
        the wire (loss, duplication, partitions) and once per message in
        the receiving protocol stack (reordering delay-spikes).
    collector:
        Optional event collector (:class:`repro.traces.events.TraceCollector`)
        notified of every unicast copy sent, delivered or dropped.  The
        hooks consume no randomness and default to ``None``, so the hot
        path -- and every result -- is unchanged unless tracing is
        explicitly requested.

    Drop accounting is **per unicast copy** at every stage: a broadcast by
    a crashed sender counts ``n - 1`` drops, exactly like the per-copy
    drops later in the pipeline, and every drop is attributed to a
    ``stage:cause`` key in :attr:`drops_by_cause` (stages ``send`` /
    ``wire`` / ``receive``; causes ``sender-crashed`` / ``loss`` /
    ``partition`` / ``receiver-crashed``).
    """

    def __init__(
        self,
        sim: Simulator,
        config: ClusterConfig,
        hosts: Sequence[Host],
        hub: EthernetHub,
        trace: Optional[MessageTrace] = None,
        injector: Optional[FaultInjector] = None,
        collector: Optional["TraceCollector"] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.hosts = list(hosts)
        self.hub = hub
        self.trace = trace
        self.injector = injector
        self.collector = collector
        self._receivers: Dict[int, DeliverCallback] = {}
        # ``transport.stack`` has exactly one consumer, this transport, so
        # drawing it in blocks yields the same doubles, in the same order,
        # as drawing it one ``random()`` at a time.
        self._stack_draw = _block_draws(
            sim.random.stream("transport.stack"), STACK_DRAW_BLOCK
        ).__next__
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.drops_by_cause: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_receiver(self, process_id: int, callback: DeliverCallback) -> None:
        """Register the upcall invoked when a message reaches ``process_id``."""
        self._receivers[process_id] = callback

    def close(self) -> None:
        """Drop the registered upcalls once the run is over; counters stay."""
        self._receivers.clear()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Send ``message``; broadcasts are expanded into unicast copies."""
        sender_host = self.hosts[message.sender]
        if sender_host.crashed:
            # Count per unicast copy, like every later pipeline stage does.
            if message.is_broadcast:
                for destination in self._broadcast_destinations(message.sender):
                    self._drop(message.unicast_copy(destination), "send",
                               CAUSE_SENDER_CRASHED)
            else:
                self._drop(message, "send", CAUSE_SENDER_CRASHED)
            return
        message.submitted_at = self.sim.now
        if message.is_broadcast:
            for destination in self._broadcast_destinations(message.sender):
                copy = message.unicast_copy(destination)
                copy.submitted_at = self.sim.now
                self._send_unicast(copy)
        else:
            self._send_unicast(message)

    def _broadcast_destinations(self, sender: int) -> list[int]:
        return [pid for pid in range(len(self.hosts)) if pid != sender]

    def _send_unicast(self, message: Message) -> None:
        if not 0 <= message.destination < len(self.hosts):
            raise ValueError(
                f"message {message!r} addressed to unknown process "
                f"{message.destination}"
            )
        self.messages_sent += 1
        if self.collector is not None:
            self.collector.on_send(message, self.sim.now)
        sender_host = self.hosts[message.sender]
        sender_host.use_cpu(
            self.config.network.cpu_send_ms, self._after_send_cpu, message
        )

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def _after_send_cpu(self, message: Message) -> None:
        if self.hosts[message.sender].crashed:
            self._drop(message, "send", CAUSE_SENDER_CRASHED)
            return
        if self.injector is not None:
            decision = self.injector.decide_unicast(message, self.sim.now)
            if decision.drop_cause is not None:
                self._drop(message, "wire", decision.drop_cause)
                return
            for _ in range(decision.duplicates):
                duplicate = message.duplicate_copy()
                duplicate.sent_at = self.sim.now
                self.messages_duplicated += 1
                self.hub.transmit(duplicate, self._after_wire)
        message.sent_at = self.sim.now
        self.hub.transmit(message, self._after_wire)

    def _after_wire(self, message: Message) -> None:
        sim = self.sim
        stack_latency = self._sample_stack_latency()
        if self.injector is not None:
            stack_latency += self.injector.stack_extra_delay(message, sim.now)
        # The stack delay is never cancelled, so its entry needs no handle.
        sim._push(sim.now + stack_latency, 0, self._after_stack, (message,))

    def _after_stack(self, message: Message) -> None:
        destination_host = self.hosts[message.destination]
        if destination_host.crashed:
            self._drop(message, "receive", CAUSE_RECEIVER_CRASHED)
            return
        destination_host.use_cpu(
            self.config.network.cpu_receive_ms, self._deliver, message
        )

    def _deliver(self, message: Message) -> None:
        destination_host = self.hosts[message.destination]
        if destination_host.crashed:
            self._drop(message, "receive", CAUSE_RECEIVER_CRASHED)
            return
        message.delivered_at = self.sim.now
        self.messages_delivered += 1
        if self.trace is not None:
            self.trace.record_delivery(message)
        if self.collector is not None:
            self.collector.on_deliver(message, self.sim.now)
        receiver = self._receivers.get(message.destination)
        if receiver is not None:
            receiver(message)

    # ------------------------------------------------------------------
    def _drop(self, message: Message, stage: str, cause: str) -> None:
        """Count one dropped unicast copy, attributed to ``stage:cause``."""
        self.messages_dropped += 1
        key = f"{stage}:{cause}"
        self.drops_by_cause[key] = self.drops_by_cause.get(key, 0) + 1
        if self.collector is not None:
            self.collector.on_drop(message, stage, cause, self.sim.now)

    # ------------------------------------------------------------------
    def _sample_stack_latency(self) -> float:
        # One coin draw picks the mode, one uniform draw places the latency
        # in it.  ``low + (high - low) * u`` is exactly what numpy's
        # ``Generator.uniform`` computes from the same double ``u``.
        params = self.config.network
        draw = self._stack_draw
        if draw() < params.stack_slow_probability:
            low = params.stack_latency_slow_low_ms
            high = params.stack_latency_slow_high_ms
        else:
            low = params.stack_latency_fast_low_ms
            high = params.stack_latency_fast_high_ms
        return low + (high - low) * draw()

    def __repr__(self) -> str:
        return (
            f"Transport(sent={self.messages_sent}, delivered={self.messages_delivered}, "
            f"dropped={self.messages_dropped})"
        )
