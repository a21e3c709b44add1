"""The push-style heartbeat failure detector of §2.2.

Each process periodically (every ``Th``) sends a heartbeat message to all
other processes.  Process ``p`` starts suspecting process ``q`` if it has
not received *any* message from ``q`` (heartbeat or application message)
for longer than the timeout ``T``; it stops suspecting ``q`` upon reception
of any message from ``q``, and the reception of any message from ``q``
resets the timeout timer (Figure 1 of the paper).

The detector is written as a protocol layer: it observes every message that
travels up the stack (so application messages reset the timers exactly as
in the paper), injects heartbeat messages below the consensus layer and
consumes incoming heartbeats (they are not passed further up).

Heartbeat emission is subject to the host's operating-system timer
behaviour (:class:`repro.cluster.host.OSScheduler`): a nominal period of
``Th`` is stretched by the timer granularity, wake-up jitter and occasional
preemption.  These imperfections -- together with network contention -- are
what produce *wrong* suspicions, the subject of the paper's class-3 runs.
"""

from __future__ import annotations

from typing import Optional

from repro.des.simulator import Simulator
from repro.cluster.message import BROADCAST, Message
from repro.failure_detectors.base import FailureDetectorLayer
from repro.failure_detectors.history import FailureDetectorHistory

#: Message type tag of heartbeat messages.
HEARTBEAT = "heartbeat"


class HeartbeatFailureDetector(FailureDetectorLayer):
    """Heartbeat failure detector with timeout ``T`` and period ``Th``.

    Parameters
    ----------
    sim:
        The owning simulator.
    timeout_ms:
        The suspicion timeout ``T``.
    heartbeat_period_ms:
        The heartbeat period ``Th``.  The paper fixes ``Th = 0.7 * T`` in its
        class-3 experiments (§5.4); pass ``None`` to use that default.
    history:
        Optional shared :class:`FailureDetectorHistory` receiving every
        trust/suspect transition (one history is shared by all processes of
        an experiment, as the QoS metrics are computed over all pairs).
    heartbeat_size_bytes:
        Wire size of a heartbeat message.
    """

    def __init__(
        self,
        sim: Simulator,
        timeout_ms: float,
        heartbeat_period_ms: Optional[float] = None,
        history: Optional[FailureDetectorHistory] = None,
        heartbeat_size_bytes: int = 60,
        name: str = "heartbeat-fd",
    ) -> None:
        super().__init__(sim, name)
        if timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be > 0, got {timeout_ms}")
        self.timeout_ms = float(timeout_ms)
        self.heartbeat_period_ms = (
            float(heartbeat_period_ms)
            if heartbeat_period_ms is not None
            else 0.7 * self.timeout_ms
        )
        if self.heartbeat_period_ms <= 0:
            raise ValueError("heartbeat_period_ms must be > 0")
        self.history = history
        self.heartbeat_size_bytes = heartbeat_size_bytes
        self.heartbeats_sent = 0
        self.heartbeats_received = 0
        self._running = False
        self._emit_epoch = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the heartbeat emission loop and the per-peer timeout timers.

        Starting bumps the emission epoch: a sleep scheduled by a previous
        life of this layer (e.g. before a crash, with the recovery arriving
        within one heartbeat period) carries a stale epoch and dies instead
        of resuming a second emission loop.
        """
        self._running = True
        self._emit_epoch += 1
        self._schedule_next_heartbeat()
        for peer in self._peers():
            self._arm_timeout(peer)

    def stop(self) -> None:
        """Stop emitting heartbeats and cancel all timers."""
        self._running = False
        super().stop()

    def _peers(self) -> list[int]:
        return [pid for pid in range(self.n_processes) if pid != self.process_id]

    # ------------------------------------------------------------------
    # Heartbeat emission
    # ------------------------------------------------------------------
    def _schedule_next_heartbeat(self) -> None:
        if not self._running or self.process is None or self.process.crashed:
            return
        self.process.host.sleep(
            self.heartbeat_period_ms, self._emit_heartbeat, self._emit_epoch
        )

    def _emit_heartbeat(self, epoch: int) -> None:
        if epoch != self._emit_epoch:
            return  # stale wake-up from before a stop/crash + restart
        if not self._running or self.process is None or self.process.crashed:
            return
        message = Message(
            sender=self.process_id,
            destination=BROADCAST,
            msg_type=HEARTBEAT,
            size_bytes=self.heartbeat_size_bytes,
        )
        self.heartbeats_sent += 1
        self.send_down(message)
        self._schedule_next_heartbeat()

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def on_deliver(self, message: Message) -> None:
        """Reset the sender's timer; consume heartbeats, forward the rest."""
        sender = message.sender
        if sender != self.process_id:
            self._message_received_from(sender)
        if message.msg_type == HEARTBEAT:
            self.heartbeats_received += 1
            return
        self.deliver_up(message)

    def _message_received_from(self, sender: int) -> None:
        if self.is_suspected(sender):
            self._record_transition(sender, suspected=False)
            self._set_suspected(sender, False)
        self._arm_timeout(sender)

    # ------------------------------------------------------------------
    # Timeout handling
    # ------------------------------------------------------------------
    def _arm_timeout(self, peer: int) -> None:
        self.set_timer(f"timeout:{peer}", self.timeout_ms, self._timeout_expired, peer)

    def _timeout_expired(self, peer: int) -> None:
        if not self._running or (self.process is not None and self.process.crashed):
            return
        if not self.is_suspected(peer):
            self._record_transition(peer, suspected=True)
            self._set_suspected(peer, True)
        # The peer stays suspected until a message from it arrives; no new
        # timer is needed (reception re-arms it).

    # ------------------------------------------------------------------
    def _record_transition(self, peer: int, suspected: bool) -> None:
        if self.history is not None:
            self.history.record(
                monitor=self.process_id,
                monitored=peer,
                time=self.sim.now,
                suspected=suspected,
            )
