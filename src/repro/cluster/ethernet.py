"""The shared Ethernet hub.

The paper's cluster is interconnected by a *simplex 100 Base-TX Ethernet
hub* (§2.5): a repeater, not a switch, so the medium is a single collision
domain and only one frame can be in flight at a time.  The network model of
§3.3 captures this with a single shared "network" resource; the testbed
simulator does the same with a capacity-1 FIFO resource plus a per-frame
transmission time derived from the frame size and the raw bandwidth.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.des.resource import Resource
from repro.des.simulator import Simulator
from repro.cluster.config import NetworkParameters
from repro.cluster.message import Message


class EthernetHub:
    """A single-collision-domain Ethernet segment.

    Parameters
    ----------
    sim:
        The owning simulator.
    params:
        Bandwidth, frame overhead and hub latency.
    wire_time_hook:
        Optional hook ``(message, now_ms) -> extra_ms`` lengthening a
        frame's occupancy of the shared medium -- the fault-injection point
        for congestion-style delay spikes, which delay everything queued
        behind the affected frame.
    """

    def __init__(
        self,
        sim: Simulator,
        params: NetworkParameters,
        wire_time_hook: Optional[Callable[[Message, float], float]] = None,
    ) -> None:
        self.sim = sim
        self.params = params
        self.wire_time_hook = wire_time_hook
        self.medium = Resource(sim, "ethernet.medium", capacity=1)
        self.frames_transmitted = 0
        self.bytes_transmitted = 0

    # ------------------------------------------------------------------
    def transmit(self, message: Message, on_done: Callable[[Message], None]) -> None:
        """Queue ``message`` for transmission on the shared medium.

        ``on_done`` is called once the frame has fully left the wire (hub
        latency included); the receiving host's processing is *not* part of
        this stage.
        """
        wire_time = self.frame_time(message.size_bytes) + self.params.hub_latency_ms
        if self.wire_time_hook is not None:
            wire_time += max(0.0, float(self.wire_time_hook(message, self.sim.now)))
        self.medium._serve(wire_time, self._transmitted, (message, on_done))

    def frame_time(self, payload_bytes: int) -> float:
        """Time (ms) a frame with the given payload occupies the medium."""
        return self.params.frame_time_ms(payload_bytes)

    # ------------------------------------------------------------------
    @property
    def utilization_time(self) -> float:
        """Total busy time of the medium so far."""
        return self.medium.stats.busy_time

    @property
    def queue_length(self) -> int:
        """Frames currently waiting for the medium."""
        return self.medium.queue_length

    def _transmitted(self, message: Message, on_done: Callable[[Message], None]) -> None:
        self.frames_transmitted += 1
        self.bytes_transmitted += message.size_bytes
        message.transmitted_at = self.sim.now
        on_done(message)

    def __repr__(self) -> str:
        return (
            f"EthernetHub(frames={self.frames_transmitted}, "
            f"queued={self.queue_length})"
        )
