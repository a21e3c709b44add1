"""Convenience base class for simulated entities.

A :class:`SimProcess` is anything that owns state, reacts to events and
schedules further events: a host, a protocol layer, a failure detector, a
SAN activity executor.  The base class only provides a reference to the
simulator, a name, and small helpers for timers, but having a common type
makes traces and tests uniform.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.des.event import Event
from repro.des.simulator import Simulator


class SimProcess:
    """Base class for entities living inside a :class:`Simulator`.

    Parameters
    ----------
    sim:
        The owning simulator.
    name:
        Human-readable name used in traces.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._timers: dict[str, Event] = {}

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(
        self,
        key: str,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> Event:
        """(Re)arm a named timer.

        If a timer with the same key is already pending it is cancelled
        first -- this matches the heartbeat failure detector's behaviour of
        resetting its timeout whenever a message arrives.
        """
        self.cancel_timer(key)
        event = self.sim.schedule(delay, self._fire_timer, key, callback, args)
        self._timers[key] = event
        return event

    def cancel_timer(self, key: str) -> bool:
        """Cancel the named timer if pending.  Returns ``True`` on success."""
        event = self._timers.pop(key, None)
        if event is not None and event.pending:
            event.cancel()
            return True
        return False

    def timer_pending(self, key: str) -> bool:
        """``True`` if the named timer is armed and has not fired."""
        event = self._timers.get(key)
        return event is not None and event.pending

    def cancel_all_timers(self) -> int:
        """Cancel every pending timer; returns the number cancelled."""
        cancelled = 0
        for key in list(self._timers):
            if self.cancel_timer(key):
                cancelled += 1
        return cancelled

    def _fire_timer(
        self, key: str, callback: Callable[..., Any], args: tuple[Any, ...]
    ) -> None:
        # Only forget the timer if it has not been re-armed meanwhile.
        event = self._timers.get(key)
        if event is not None and event.fired:
            del self._timers[key]
        callback(*args)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (shortcut for ``self.sim.now``)."""
        return self.sim.now

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
