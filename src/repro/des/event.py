"""Scheduled events.

An :class:`Event` is the handle of one calendar entry: it couples a firing
time with a callback and lets its holder :meth:`~Event.cancel` the entry.
The simulator builds one only for a caller that receives it (the public
``schedule*`` calls) or, for an entry scheduled without one, for a trace
hook that watches it fire.  Events are orderable in the calendar's own
order: by time, then priority, then a monotonically increasing sequence
number which guarantees deterministic FIFO tie-breaking for events
scheduled at the same instant.
"""

from __future__ import annotations

import enum
from typing import Any, Callable


class EventState(enum.Enum):
    """Lifecycle of a scheduled event."""

    PENDING = "pending"
    FIRED = "fired"
    CANCELLED = "cancelled"


class Event:
    """A callback scheduled at a point in simulated time.

    Instances are created by :meth:`repro.des.simulator.Simulator.schedule`
    and friends; user code normally only holds on to an event in order to
    :meth:`cancel` it.  Cancelling only marks the event; the simulator
    discards its calendar entry when the entry reaches the front.

    Parameters
    ----------
    time:
        Absolute simulation time at which the event fires.
    priority:
        Events scheduled at the same time fire in increasing priority order
        (lower value means earlier).  The default priority is ``0``.
    seq:
        Monotonic sequence number used as the final tie-breaker; assigned by
        the simulator.
    callback:
        Callable invoked when the event fires.
    args:
        Positional arguments passed to ``callback``.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "state", "on_cancel")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple[Any, ...] = (),
    ) -> None:
        self.time = float(time)
        self.priority = int(priority)
        self.seq = int(seq)
        self.callback = callback
        self.args = args
        self.state = EventState.PENDING
        #: Optional observer invoked exactly once when the event is
        #: cancelled; the owning simulator uses it to keep its live-event
        #: counter accurate even for events cancelled directly via
        #: ``event.cancel()``.
        self.on_cancel: Callable[["Event"], None] | None = None

    @property
    def pending(self) -> bool:
        """``True`` while the event has neither fired nor been cancelled."""
        return self.state is EventState.PENDING

    @property
    def cancelled(self) -> bool:
        """``True`` once :meth:`cancel` has been called."""
        return self.state is EventState.CANCELLED

    @property
    def fired(self) -> bool:
        """``True`` once the callback has been invoked."""
        return self.state is EventState.FIRED

    def cancel(self) -> bool:
        """Cancel the event if it is still pending.

        Returns
        -------
        bool
            ``True`` if the event was pending and is now cancelled,
            ``False`` if it had already fired or been cancelled.
        """
        if self.state is EventState.PENDING:
            self.state = EventState.CANCELLED
            if self.on_cancel is not None:
                self.on_cancel(self)
            return True
        return False

    def _sort_key(self) -> tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self._sort_key() < other._sort_key()

    def __le__(self, other: "Event") -> bool:
        return self._sort_key() <= other._sort_key()

    def __repr__(self) -> str:
        name = getattr(self.callback, "__name__", repr(self.callback))
        return (
            f"Event(time={self.time!r}, priority={self.priority}, "
            f"seq={self.seq}, callback={name}, state={self.state.value})"
        )
