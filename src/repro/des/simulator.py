"""The discrete-event simulation loop.

The :class:`Simulator` owns a virtual clock and a priority queue of
:class:`~repro.des.event.Event` objects.  Time only advances when the next
event is dequeued; callbacks run instantaneously in virtual time and may
schedule further events.

Calendar representation
-----------------------
The heap holds ``(time, priority, seq, event)`` tuples rather than bare
:class:`Event` objects: tuple comparison happens entirely in C, so the
``heappush``/``heappop`` traffic of the hot loop never calls back into
``Event.__lt__``.  The ordering is identical (time, then priority, then the
monotonically increasing sequence number).  Cancellation stays O(1): a
cancelled event is only marked, and its heap entry is discarded lazily when
it reaches the front of the queue.

Contract of the fast paths
--------------------------
The hot path is kept lean without moving a single calendar entry.
:meth:`Simulator.schedule` and :meth:`Simulator.schedule_at` hand their
positional arguments straight to one push, with the past-time check and
the ``(time, priority, seq, event)`` heap tuple described above.  A
:class:`~repro.des.resource.Resource` that is idle with an empty queue
starts a request directly, but still makes exactly one ``schedule`` call
per service start, at the same moment the queued path would, so sequence
numbers -- and with them the order of same-time events -- are unchanged.  A random stream may be drawn in blocks
(``rng.random(k)``) only if it has exactly one consumer: that consumer then
sees the same doubles in the same order as scalar draws, and nobody else
can observe that the generator ran ahead.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.des.event import Event, EventState
from repro.des.random import RandomStreams


class SimulationError(RuntimeError):
    """Raised on misuse of the simulation kernel (e.g. scheduling in the past)."""


class Simulator:
    """Event-driven simulator with a floating-point virtual clock.

    Parameters
    ----------
    seed:
        Master seed for the simulator's :class:`~repro.des.random.RandomStreams`.
        Two simulators constructed with the same seed and fed the same
        sequence of scheduling calls produce identical trajectories.
    time_unit:
        Purely informational label for the unit of the clock (the repository
        uses milliseconds throughout, matching the paper's figures).
    """

    def __init__(self, seed: Optional[int] = None, time_unit: str = "ms") -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._live_events = 0
        self.time_unit = time_unit
        self.random = RandomStreams(seed)
        self._trace_hooks: list[Callable[[Event], None]] = []
        # Bound once here rather than once per scheduled event.
        self._on_cancel = self._note_cancelled

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events whose callbacks have been executed."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events currently scheduled and not yet cancelled.

        Maintained as a live counter updated on schedule/cancel/fire, so
        reading it is O(1) instead of a scan of the queue (hot paths poll
        it after every stepped run).
        """
        return self._live_events

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now."""
        return self._push(self._now + delay, priority, callback, args)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run at absolute time ``time``."""
        return self._push(time, priority, callback, args)

    def call_now(
        self, callback: Callable[..., Any], *args: Any, priority: int = 0
    ) -> Event:
        """Schedule ``callback`` at the current time (after pending same-time events)."""
        return self._push(self._now, priority, callback, args)

    def cancel(self, event: Event) -> bool:
        """Cancel a previously scheduled event.  Returns ``True`` on success."""
        return event.cancel()

    def add_trace_hook(self, hook: Callable[[Event], None]) -> None:
        """Register a hook called with every event just before it fires."""
        self._trace_hooks.append(hook)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        self._discard_cancelled()
        if not self._queue:
            return None
        return self._queue[0][0]

    def step(self) -> bool:
        """Execute the next pending event.

        Returns
        -------
        bool
            ``True`` if an event was executed, ``False`` if the queue was
            empty.
        """
        self._discard_cancelled()
        if not self._queue:
            return False
        event = heapq.heappop(self._queue)[3]
        self._now = event.time
        event.state = EventState.FIRED
        self._live_events -= 1
        self._events_processed += 1
        for hook in self._trace_hooks:
            hook(event)
        event.callback(*event.args)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would advance beyond this time.  The clock is
            left at ``until`` (or at the time of the last executed event if the
            queue drains earlier).
        max_events:
            Safety valve: stop after this many events have been executed in
            this call.

        Returns
        -------
        float
            The simulation time at which the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        executed = 0
        # The loop below is `while peek(): step()` flattened into one body:
        # local aliases and direct tuple access keep the per-event overhead
        # down to a heappop and the callback itself.
        queue = self._queue
        hooks = self._trace_hooks
        heappop = heapq.heappop
        pending = EventState.PENDING
        fired = EventState.FIRED
        try:
            while not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                while queue and queue[0][3].state is not pending:
                    heappop(queue)
                if not queue:
                    break
                if until is not None and queue[0][0] > until:
                    self._now = until
                    break
                event = heappop(queue)[3]
                self._now = event.time
                event.state = fired
                self._live_events -= 1
                self._events_processed += 1
                if hooks:
                    for hook in hooks:
                        hook(event)
                event.callback(*event.args)
                executed += 1
            if until is not None and not self._stopped and self.peek() is None:
                self._now = max(self._now, until)
        finally:
            self._running = False
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def reset(self) -> None:
        """Discard all pending events and rewind the clock to zero.

        Resets every piece of per-run state: the event queue, the clock,
        the sequence counter used for same-time FIFO tie-breaking (so a
        reset simulator orders simultaneous events exactly like a fresh
        one), and the registered trace hooks (so a reused simulator does
        not keep firing a previous run's observers).

        The random streams are *not* reset; create a new simulator for a
        statistically independent replication.
        """
        for _time, _priority, _seq, event in self._queue:
            # Mark the discarded events cancelled directly (bypassing
            # Event.cancel and its on_cancel hook) so a stale handle
            # cancelled later cannot corrupt the live-event counter.
            event.state = EventState.CANCELLED
        self._queue.clear()
        self._now = 0.0
        self._seq = 0
        self._stopped = False
        self._events_processed = 0
        self._live_events = 0
        self._trace_hooks.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _push(
        self,
        time: float,
        priority: int,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
    ) -> Event:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self._now}"
            )
        event = Event(time, priority, self._seq, callback, args)
        event.on_cancel = self._on_cancel
        self._seq += 1
        heapq.heappush(
            self._queue, (event.time, event.priority, event.seq, event)
        )
        self._live_events += 1
        return event

    def _note_cancelled(self, _event: Event) -> None:
        self._live_events -= 1

    def _discard_cancelled(self) -> None:
        queue = self._queue
        while queue and queue[0][3].state is not EventState.PENDING:
            heapq.heappop(queue)

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self._now!r}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )
