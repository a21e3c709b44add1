"""The Chandra-Toueg ◇S consensus protocol layer.

The algorithm proceeds in asynchronous rounds under the rotating-coordinator
paradigm (§2.1 of the paper).  In round ``r`` with coordinator ``c``:

* **Phase 1** -- every process sends its current estimate (tagged with the
  round in which it was last updated) to ``c``.
* **Phase 2** -- ``c`` waits for estimates from a majority of processes
  (its own included), selects the estimate with the highest tag and sends
  it to all processes as the round's *proposal*.
* **Phase 3** -- every process waits for the proposal of round ``r``.  If it
  arrives, the process adopts it as its new estimate and replies with a
  positive acknowledgement; if instead the local failure detector suspects
  ``c`` while waiting, the process replies with a negative acknowledgement.
  Either way the process then moves to round ``r + 1``.
* **Phase 4** -- ``c`` collects the replies.  A majority of positive
  acknowledgements lets it *decide* and reliably broadcast the decision; a
  single negative acknowledgement sends it to round ``r + 1``.

A process decides when it delivers the decision message (the coordinator
delivers its own broadcast locally, so it is normally the first process to
decide -- which is what the paper's latency metric measures, §2.3).

The implementation supports many *instances* of consensus in one run (the
paper averages over thousands of sequential executions, §4): every message
carries an instance number and per-instance state is kept separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.des.simulator import Simulator
from repro.cluster.message import BROADCAST, Message
from repro.cluster.neko import ProtocolLayer
from repro.consensus.messages import (
    ACK,
    DECIDE,
    ESTIMATE,
    NACK,
    PROPOSE,
    coordinator_of_round,
    majority_of,
)
from repro.failure_detectors.base import FailureDetectorLayer

#: Callback invoked on decision: (process_id, instance, value, local_time, global_time).
DecisionCallback = Callable[[int, int, Any, float, float], None]

#: Safety bound on the number of rounds of a single instance; reaching it
#: indicates a configuration in which the run cannot terminate (e.g. no
#: majority of correct processes) or a bug, so it raises rather than spins.
MAX_ROUNDS = 100_000


@dataclass(frozen=True)
class Decision:
    """A decision event observed on one process."""

    process_id: int
    instance: int
    value: Any
    round_number: int
    local_time: float
    global_time: float


@dataclass
class _InstanceState:
    """Per-instance protocol state of one process."""

    instance: int
    estimate: Any
    estimate_ts: int = 0
    round_number: int = 1
    phase: str = "idle"
    decided: bool = False
    decision: Any = None
    decided_round: int = 0
    # Coordinator-side bookkeeping, keyed by round.
    estimates: Dict[int, Dict[int, Tuple[Any, int]]] = field(default_factory=dict)
    replies: Dict[int, Dict[int, bool]] = field(default_factory=dict)
    # Participant-side buffered proposals, keyed by round.
    proposals: Dict[int, Any] = field(default_factory=dict)
    nacked_rounds: Set[int] = field(default_factory=set)
    # False while the state exists only because a message of the instance
    # arrived before this process's own propose().
    proposed: bool = True


class ChandraTouegConsensus(ProtocolLayer):
    """Protocol layer implementing ◇S consensus.

    Parameters
    ----------
    sim:
        The owning simulator.
    message_size_bytes:
        Wire size of consensus messages ("around 100 bytes", §2.5).
    relay_decision:
        If ``True`` (default), a process re-broadcasts the decision message
        the first time it delivers one, implementing the reliable broadcast
        the algorithm requires for the decision.
    """

    def __init__(
        self,
        sim: Simulator,
        message_size_bytes: int = 100,
        relay_decision: bool = True,
        name: str = "ct-consensus",
    ) -> None:
        super().__init__(sim, name)
        self.message_size_bytes = message_size_bytes
        self.relay_decision = relay_decision
        self._instances: Dict[int, _InstanceState] = {}
        self._active_instances: Set[int] = set()
        self._decision_callbacks: List[DecisionCallback] = []
        self._decisions: List[Decision] = []
        self._fd: Optional[FailureDetectorLayer] = None
        self.messages_sent = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def add_decision_callback(self, callback: DecisionCallback) -> None:
        """Register a callback invoked whenever this process decides."""
        self._decision_callbacks.append(callback)

    @property
    def decisions(self) -> List[Decision]:
        """All decisions taken by this process so far."""
        return list(self._decisions)

    def decision_of(self, instance: int) -> Optional[Decision]:
        """The decision of a given instance, if this process decided it."""
        for decision in self._decisions:
            if decision.instance == instance:
                return decision
        return None

    def has_decided(self, instance: int) -> bool:
        """``True`` if this process has decided the given instance."""
        state = self._instances.get(instance)
        return bool(state is not None and state.decided)

    def propose(self, instance: int, value: Any) -> None:
        """Propose ``value`` for consensus instance ``instance`` and start it."""
        if self.process is None:
            raise RuntimeError("consensus layer is not attached to a process")
        if self.process.crashed:
            return
        state = self._instances.get(instance)
        if state is None:
            state = _InstanceState(instance=instance, estimate=value, estimate_ts=0)
            self._instances[instance] = state
            self._active_instances.add(instance)
        elif state.proposed:
            raise ValueError(f"instance {instance} was already proposed")
        else:
            # Joined lazily on an earlier message.  Until it leaves round 1
            # (or decides) the process has sent no estimate yet, so it starts
            # round 1 now with its own value; otherwise it already takes
            # part in a later round and the proposal only marks it proposed.
            state.proposed = True
            if state.decided or state.round_number > 1:
                return
            state.estimate = value
        self._start_round(state)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Locate the failure-detector layer and register for suspicions."""
        self._fd = self._find_failure_detector()
        if self._fd is not None:
            self._fd.add_listener(self._on_suspicion_change)

    def close(self) -> None:
        """Also drop the failure detector and the decision callbacks."""
        super().close()
        self._fd = None
        self._decision_callbacks.clear()

    def _find_failure_detector(self) -> Optional[FailureDetectorLayer]:
        if self.process is None:
            return None
        for layer in self.process.layers:
            if isinstance(layer, FailureDetectorLayer):
                return layer
        return None

    # ------------------------------------------------------------------
    # Round machinery
    # ------------------------------------------------------------------
    @property
    def _majority(self) -> int:
        return majority_of(self.n_processes)

    def _coordinator(self, round_number: int) -> int:
        return coordinator_of_round(round_number, self.n_processes)

    def _start_round(self, state: _InstanceState) -> None:
        if state.decided:
            return
        if state.round_number > MAX_ROUNDS:
            raise RuntimeError(
                f"consensus instance {state.instance} exceeded {MAX_ROUNDS} rounds"
            )
        round_number = state.round_number
        coordinator = self._coordinator(round_number)
        # Phase 1: send the current estimate to the coordinator.
        if coordinator == self.process_id:
            self._record_estimate(
                state, round_number, self.process_id, state.estimate, state.estimate_ts
            )
            state.phase = "collect_estimates"
            self._try_propose(state)
        else:
            self._send(
                coordinator,
                ESTIMATE,
                instance=state.instance,
                round_number=round_number,
                value=state.estimate,
                ts=state.estimate_ts,
            )
            state.phase = "wait_proposal"
            self._try_handle_proposal(state)

    def _advance_round(self, state: _InstanceState) -> None:
        if state.decided:
            return
        state.round_number += 1
        self._start_round(state)

    # ------------------------------------------------------------------
    # Coordinator side
    # ------------------------------------------------------------------
    def _record_estimate(
        self,
        state: _InstanceState,
        round_number: int,
        sender: int,
        value: Any,
        ts: int,
    ) -> None:
        state.estimates.setdefault(round_number, {})[sender] = (value, ts)

    def _try_propose(self, state: _InstanceState) -> None:
        """Phase 2: once a majority of estimates is in, broadcast a proposal."""
        if state.decided or state.phase != "collect_estimates":
            return
        round_number = state.round_number
        estimates = state.estimates.get(round_number, {})
        if len(estimates) < self._majority:
            return
        # Select the estimate with the highest timestamp (ties: lowest pid).
        best_pid = min(estimates, key=lambda pid: (-estimates[pid][1], pid))
        proposal = estimates[best_pid][0]
        self._send(
            BROADCAST,
            PROPOSE,
            instance=state.instance,
            round_number=round_number,
            value=proposal,
        )
        # The coordinator executes phase 3 locally: it adopts its own
        # proposal and registers its own positive acknowledgement.
        state.estimate = proposal
        state.estimate_ts = round_number
        state.replies.setdefault(round_number, {})[self.process_id] = True
        state.phase = "collect_replies"
        self._try_decide(state)

    def _try_decide(self, state: _InstanceState) -> None:
        """Phase 4: decide on a majority of acks; abort the round on a nack."""
        if state.decided or state.phase != "collect_replies":
            return
        round_number = state.round_number
        replies = state.replies.get(round_number, {})
        if any(not positive for positive in replies.values()):
            self._advance_round(state)
            return
        acks = sum(1 for positive in replies.values() if positive)
        if acks >= self._majority:
            self._send(
                BROADCAST,
                DECIDE,
                instance=state.instance,
                round_number=round_number,
                value=state.estimate,
            )
            self._decide(state, state.estimate, round_number)

    # ------------------------------------------------------------------
    # Participant side
    # ------------------------------------------------------------------
    def _try_handle_proposal(self, state: _InstanceState) -> None:
        """Phase 3: ack a received proposal or nack a suspected coordinator."""
        if state.decided or state.phase != "wait_proposal":
            return
        round_number = state.round_number
        coordinator = self._coordinator(round_number)
        if round_number in state.proposals:
            proposal = state.proposals[round_number]
            state.estimate = proposal
            state.estimate_ts = round_number
            self._send(
                coordinator,
                ACK,
                instance=state.instance,
                round_number=round_number,
            )
            self._advance_round(state)
            return
        if self._fd is not None and self._fd.is_suspected(coordinator):
            self._nack(state, round_number, coordinator)

    def _nack(self, state: _InstanceState, round_number: int, coordinator: int) -> None:
        if round_number in state.nacked_rounds:
            return
        state.nacked_rounds.add(round_number)
        self._send(
            coordinator,
            NACK,
            instance=state.instance,
            round_number=round_number,
        )
        self._advance_round(state)

    def _on_suspicion_change(self, process_id: int, suspected: bool) -> None:
        """FD listener: a suspicion may release a participant stuck in phase 3."""
        if not suspected:
            return
        for instance in sorted(self._active_instances):
            state = self._instances[instance]
            if state.decided or state.phase != "wait_proposal":
                continue
            coordinator = self._coordinator(state.round_number)
            if coordinator == process_id:
                self._nack(state, state.round_number, coordinator)

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def _decide(self, state: _InstanceState, value: Any, round_number: int) -> None:
        if state.decided:
            return
        state.decided = True
        state.decision = value
        state.decided_round = round_number
        state.phase = "decided"
        self._active_instances.discard(state.instance)
        local_time = self.process.local_time() if self.process is not None else self.now
        decision = Decision(
            process_id=self.process_id,
            instance=state.instance,
            value=value,
            round_number=round_number,
            local_time=local_time,
            global_time=self.now,
        )
        self._decisions.append(decision)
        for callback in list(self._decision_callbacks):
            callback(self.process_id, state.instance, value, local_time, self.now)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_deliver(self, message: Message) -> None:
        """Dispatch consensus messages; forward anything else upward."""
        if message.msg_type not in (ESTIMATE, PROPOSE, ACK, NACK, DECIDE):
            self.deliver_up(message)
            return
        payload = message.payload
        instance = payload["instance"]
        state = self._instances.get(instance)
        if state is None:
            # A message for an instance this process has not started yet:
            # create the state lazily with the message value as estimate so
            # that late starters still participate (does not happen in the
            # paper's experiments, where all processes propose at t0).
            state = _InstanceState(
                instance=instance, estimate=payload.get("value"), proposed=False
            )
            self._instances[instance] = state
            self._active_instances.add(instance)
            state.phase = "wait_proposal"
        handler = {
            ESTIMATE: self._handle_estimate,
            PROPOSE: self._handle_propose,
            ACK: self._handle_ack,
            NACK: self._handle_nack,
            DECIDE: self._handle_decide,
        }[message.msg_type]
        handler(state, message)

    def _handle_estimate(self, state: _InstanceState, message: Message) -> None:
        payload = message.payload
        round_number = payload["round_number"]
        self._record_estimate(
            state, round_number, message.sender, payload["value"], payload["ts"]
        )
        if (
            not state.decided
            and state.round_number == round_number
            and self._coordinator(round_number) == self.process_id
        ):
            self._try_propose(state)

    def _handle_propose(self, state: _InstanceState, message: Message) -> None:
        payload = message.payload
        round_number = payload["round_number"]
        state.proposals[round_number] = payload["value"]
        if not state.decided and state.round_number == round_number:
            self._try_handle_proposal(state)

    def _handle_ack(self, state: _InstanceState, message: Message) -> None:
        self._record_reply(state, message, positive=True)

    def _handle_nack(self, state: _InstanceState, message: Message) -> None:
        self._record_reply(state, message, positive=False)

    def _record_reply(
        self, state: _InstanceState, message: Message, positive: bool
    ) -> None:
        round_number = message.payload["round_number"]
        state.replies.setdefault(round_number, {})[message.sender] = positive
        if (
            not state.decided
            and state.round_number == round_number
            and self._coordinator(round_number) == self.process_id
        ):
            self._try_decide(state)

    def _handle_decide(self, state: _InstanceState, message: Message) -> None:
        if state.decided:
            return
        value = message.payload["value"]
        round_number = message.payload["round_number"]
        if self.relay_decision:
            self._send(
                BROADCAST,
                DECIDE,
                instance=state.instance,
                round_number=round_number,
                value=value,
            )
        self._decide(state, value, round_number)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _send(self, destination: int, msg_type: str, **payload: Any) -> None:
        message = Message(
            sender=self.process_id,
            destination=destination,
            msg_type=msg_type,
            payload=payload,
            size_bytes=self.message_size_bytes,
        )
        self.messages_sent += 1
        self.send_down(message)
