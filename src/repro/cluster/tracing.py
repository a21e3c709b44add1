"""Message tracing.

Every message delivered by the transport is recorded here.  The trace is the
raw material of Figure 6 (end-to-end delay distributions of unicast and
broadcast messages) and is also handy when debugging protocol behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.cluster.message import Message
from repro.stats.cdf import EmpiricalCDF


@dataclass(frozen=True)
class TraceRecord:
    """One delivered message, with its timing decomposition."""

    msg_id: int
    parent_id: Optional[int]
    msg_type: str
    sender: int
    destination: int
    size_bytes: int
    submitted_at: float
    delivered_at: float
    injected_duplicate: bool = False

    @property
    def end_to_end_delay(self) -> float:
        """Delivery time minus submission time."""
        return self.delivered_at - self.submitted_at

    @property
    def from_broadcast(self) -> bool:
        """``True`` if this record is one destination of a broadcast."""
        return self.parent_id is not None


class MessageTrace:
    """Accumulates :class:`TraceRecord` entries during a run.

    Deliveries are stored as plain tuples, which are cheap to make on the
    transport's hot path; each becomes a :class:`TraceRecord` the first time
    the trace is read.
    """

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []
        self._unread: List[tuple] = []

    # ------------------------------------------------------------------
    def record_delivery(self, message: Message) -> None:
        """Record a delivered message (called by the transport)."""
        if message.submitted_at is None or message.delivered_at is None:
            raise ValueError("cannot trace a message without timestamps")
        self._unread.append(
            (
                message.msg_id,
                message.parent_id,
                message.msg_type,
                message.sender,
                message.destination,
                message.size_bytes,
                message.submitted_at,
                message.delivered_at,
                message.injected_duplicate,
            )
        )

    def clear(self) -> None:
        """Drop all records."""
        self._records.clear()
        self._unread.clear()

    def _all(self) -> List[TraceRecord]:
        if self._unread:
            self._records.extend(TraceRecord(*row) for row in self._unread)
            self._unread.clear()
        return self._records

    # ------------------------------------------------------------------
    @property
    def records(self) -> List[TraceRecord]:
        """All records, in delivery order."""
        return list(self._all())

    def __len__(self) -> int:
        return len(self._records) + len(self._unread)

    def filter(
        self,
        msg_type: Optional[str] = None,
        sender: Optional[int] = None,
        destination: Optional[int] = None,
        broadcast: Optional[bool] = None,
    ) -> List[TraceRecord]:
        """Records matching the given criteria (``None`` means "any")."""
        result = []
        for record in self._all():
            if msg_type is not None and record.msg_type != msg_type:
                continue
            if sender is not None and record.sender != sender:
                continue
            if destination is not None and record.destination != destination:
                continue
            if broadcast is not None and record.from_broadcast != broadcast:
                continue
            result.append(record)
        return result

    # ------------------------------------------------------------------
    def unicast_delays(self, msg_type: Optional[str] = None) -> List[float]:
        """End-to-end delays of messages that were sent as plain unicasts."""
        return [
            record.end_to_end_delay
            for record in self.filter(msg_type=msg_type, broadcast=False)
        ]

    def broadcast_delays_per_destination(
        self, msg_type: Optional[str] = None
    ) -> List[float]:
        """End-to-end delays of each destination copy of broadcast messages."""
        return [
            record.end_to_end_delay
            for record in self.filter(msg_type=msg_type, broadcast=True)
        ]

    def broadcast_delays_averaged(self, msg_type: Optional[str] = None) -> List[float]:
        """Per-broadcast delays averaged over the destinations.

        This is the quantity plotted in Figure 6 ("averaged over the
        destinations"): one value per broadcast message.
        """
        by_parent: Dict[int, List[float]] = {}
        for record in self.filter(msg_type=msg_type, broadcast=True):
            by_parent.setdefault(record.parent_id or -1, []).append(
                record.end_to_end_delay
            )
        return [sum(values) / len(values) for values in by_parent.values()]  # repro: ignore[DET001] keyed in trace-record order, deterministic for a fixed-seed run

    def delay_cdf(self, delays: Iterable[float]) -> EmpiricalCDF:
        """Convenience: the empirical CDF of a list of delays."""
        return EmpiricalCDF(delays)
