"""The normalized per-replication event model and its collectors.

Three existing trace surfaces feed one :class:`EventLog`:

* the **transport pipeline** reports every unicast copy it sends,
  delivers or drops through the optional collector hook threaded into
  :class:`~repro.cluster.transport.Transport` (``on_send`` /
  ``on_deliver`` / ``on_drop``);
* the **fault injector**'s time-stamped :class:`~repro.faults.injector.FaultEvent`
  trace contributes crash / recovery events (:meth:`TraceCollector.add_fault_events`);
* the **failure-detector history**'s trust/suspect
  :class:`~repro.failure_detectors.history.Transition` records become
  ``timer`` events (:meth:`TraceCollector.add_fd_transitions`).

Every event carries its process and -- for message events -- the message
identity (``msg_id`` / ``parent_id`` / type / endpoints), so the
happens-before layer (:mod:`repro.traces.hb`) can reconstruct Lamport
causality without re-running the simulation.

Collection never draws from any random stream and is attached only when
explicitly requested, so enabling it cannot perturb simulation results.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.cluster.message import Message
    from repro.failure_detectors.history import Transition
    from repro.faults.injector import FaultEvent

#: The normalized event kinds.
SEND = "send"
RECEIVE = "receive"
DROP = "drop"
CRASH = "crash"
RECOVER = "recover"
TIMER = "timer"

#: All kinds, in a stable report order.
KINDS = (SEND, RECEIVE, DROP, CRASH, RECOVER, TIMER)


class TraceEvent(NamedTuple):
    """One normalized event of a replication's event log.

    A :class:`~typing.NamedTuple` rather than a dataclass: a traced
    replication holds thousands of events, and a pickled
    :class:`EventLog` rebuilds them without a Python call per event, so
    loading a cached replication stays cheap.

    Attributes
    ----------
    kind:
        One of :data:`KINDS`.
    time_ms:
        Simulation time of the event.
    process:
        The process at which the event occurs: the sender for ``send``
        (and send-stage drops), the destination for ``receive`` (and
        wire/receive-stage drops), the crashed/recovered process for
        ``crash``/``recover``, the *monitor* for ``timer``.
    msg_id / parent_id / msg_type / sender / destination:
        Message identity for ``send``/``receive``/``drop`` events
        (``parent_id`` links a unicast copy back to its broadcast).
    peer:
        For ``timer`` events: the monitored process whose liveness the
        transition is about.
    detail:
        Free-form qualifier: ``"stage:cause"`` for drops,
        ``"suspect"``/``"trust"`` for timer transitions.
    """

    kind: str
    time_ms: float
    process: int
    msg_id: Optional[int] = None
    parent_id: Optional[int] = None
    msg_type: Optional[str] = None
    sender: Optional[int] = None
    destination: Optional[int] = None
    peer: Optional[int] = None
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (``None`` fields omitted)."""
        record: Dict[str, Any] = {
            "kind": self.kind,
            "time_ms": self.time_ms,
            "process": self.process,
        }
        for name in ("msg_id", "parent_id", "msg_type", "sender", "destination", "peer"):
            value = getattr(self, name)
            if value is not None:
                record[name] = value
        if self.detail:
            record["detail"] = self.detail
        return record


class EventLog:
    """An append-only, time-sortable log of :class:`TraceEvent` entries.

    Transport events are appended in simulation order; fault and
    failure-detector events are merged in afterwards.  :meth:`events`
    returns the merged view sorted stably by time, so equal-time events
    keep their append order (transport before crash before timer).

    A log loaded from a pickle keeps its plain rows until ``entries`` is
    first read, so loading (and measuring) a cached log builds no events.
    """

    def __init__(self, entries: Optional[List[TraceEvent]] = None) -> None:
        self._entries: List[TraceEvent] = [] if entries is None else entries
        #: Pickled rows not yet turned into events (see :func:`_log_from_rows`).
        self._rows: Optional[List[Tuple[Any, ...]]] = None

    @property
    def entries(self) -> List[TraceEvent]:
        """The events in append order."""
        if self._rows is not None:
            # tuple.__new__ turns each row into a TraceEvent in C, with no
            # Python call per event.
            self._entries = list(map(tuple.__new__, repeat(TraceEvent), self._rows))
            self._rows = None
        return self._entries

    def __reduce__(self) -> Tuple[Any, Tuple[List[Tuple[Any, ...]]]]:
        """Pickle the entries as plain row tuples (see :func:`_log_from_rows`)."""
        rows = self._rows if self._rows is not None else list(map(tuple, self._entries))
        return _log_from_rows, (rows,)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"EventLog(entries={self.entries!r})"

    def append(self, event: TraceEvent) -> None:
        """Append one event (any time order; sorting happens on read)."""
        self.entries.append(event)

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Append many events."""
        self.entries.extend(events)

    def events(self) -> List[TraceEvent]:
        """All events sorted stably by time."""
        return sorted(self.entries, key=attrgetter("time_ms"))

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """The events of one kind, in time order."""
        return [event for event in self.events() if event.kind == kind]

    def for_process(self, process: int) -> List[TraceEvent]:
        """The events at one process, in time order."""
        return [event for event in self.events() if event.process == process]

    def counts_by_kind(self) -> Dict[str, int]:
        """How many events of each kind the log holds (all kinds present)."""
        counts = {kind: 0 for kind in KINDS}
        for event in self.entries:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def to_records(self) -> List[Dict[str, Any]]:
        """JSON-ready representation of the sorted log."""
        return [event.to_dict() for event in self.events()]

    def __len__(self) -> int:
        return len(self._rows) if self._rows is not None else len(self._entries)


def _log_from_rows(rows: List[Tuple[Any, ...]]) -> EventLog:
    """Rebuild an :class:`EventLog` from its pickled rows, decoded on first use."""
    log = EventLog()
    log._rows = rows
    return log


def _drop_process(message: "Message", stage: str) -> int:
    """The process a drop is charged to: sender at the send stage,
    destination once the copy has left the sending host."""
    return message.sender if stage == "send" else message.destination


class TraceCollector:
    """Adapts the cluster's trace hook points into one :class:`EventLog`.

    An instance is handed to :class:`~repro.cluster.cluster.Cluster`
    (``collector=``), which threads it into the transport; after the run,
    :meth:`add_fault_events` and :meth:`add_fd_transitions` merge the
    post-hoc traces.  The collector holds no simulator reference -- the
    transport passes the current time into every hook.
    """

    def __init__(self) -> None:
        self.log = EventLog()

    # -- transport hook points (called during the simulation) ----------
    def on_send(self, message: "Message", now: float) -> None:
        """One unicast copy entering the sending host's CPU queue."""
        self.log.append(
            TraceEvent(
                kind=SEND,
                time_ms=now,
                process=message.sender,
                msg_id=message.msg_id,
                parent_id=message.parent_id,
                msg_type=message.msg_type,
                sender=message.sender,
                destination=message.destination,
            )
        )

    def on_deliver(self, message: "Message", now: float) -> None:
        """One unicast copy delivered to its destination process."""
        self.log.append(
            TraceEvent(
                kind=RECEIVE,
                time_ms=now,
                process=message.destination,
                msg_id=message.msg_id,
                parent_id=message.parent_id,
                msg_type=message.msg_type,
                sender=message.sender,
                destination=message.destination,
            )
        )

    def on_drop(self, message: "Message", stage: str, cause: str, now: float) -> None:
        """One unicast copy dropped at ``stage`` for ``cause``."""
        self.log.append(
            TraceEvent(
                kind=DROP,
                time_ms=now,
                process=_drop_process(message, stage),
                msg_id=message.msg_id,
                parent_id=message.parent_id,
                msg_type=message.msg_type,
                sender=message.sender,
                destination=message.destination,
                detail=f"{stage}:{cause}",
            )
        )

    # -- post-hoc merges ------------------------------------------------
    def add_fault_events(self, events: Iterable["FaultEvent"]) -> None:
        """Merge the injector's crash/recovery trace entries.

        Loss, partition and duplication injections already surface as
        transport ``drop``/``send`` events; only the liveness transitions
        (``crash`` / ``recovery``) carry information the transport cannot
        see, so only those are normalized.
        """
        for event in events:
            if event.kind == "crash":
                kind = CRASH
            elif event.kind == "recovery":
                kind = RECOVER
            else:
                continue
            if event.process is None:
                continue
            self.log.append(
                TraceEvent(
                    kind=kind,
                    time_ms=event.time_ms,
                    process=event.process,
                    detail=event.detail,
                )
            )

    def add_fd_transitions(self, transitions: Iterable["Transition"]) -> None:
        """Merge trust/suspect transitions as ``timer`` events.

        The event sits at the *monitor* (whose timeout fired); ``peer``
        names the monitored process the verdict is about.
        """
        for transition in transitions:
            self.log.append(
                TraceEvent(
                    kind=TIMER,
                    time_ms=transition.time,
                    process=transition.monitor,
                    peer=transition.monitored,
                    detail="suspect" if transition.suspected else "trust",
                )
            )
