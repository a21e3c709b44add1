"""The discrete-event simulation loop.

The :class:`Simulator` owns a virtual clock and a calendar of scheduled
callbacks.  Time only advances when the next entry is dequeued; callbacks
run instantaneously in virtual time and may schedule further entries.

Calendar representation
-----------------------
The calendar is a heap of ``(time, priority, seq, callback, args, handle)``
tuples: each entry stores what fires, not an object wrapping it.  Tuple
comparison runs entirely in C and never looks past ``seq``, which is unique,
so the order is time, then priority, then the monotonically increasing
sequence number handed out by the one private push, ``_push``, in the order
entries are pushed.

``handle`` is an :class:`~repro.des.event.Event` only for entries whose
caller receives one: :meth:`Simulator.schedule`, :meth:`Simulator.schedule_at`
and :meth:`Simulator.call_now` (hence ``SimProcess.set_timer`` and the SAN
executor oracle).  The kernel's own traffic pushes ``None``: a
:class:`~repro.des.resource.Resource` service start, the transport's
protocol-stack delay and ``Host.sleep``.  An entry without a handle cannot
be cancelled, so it is always live.  A cancelled handle is only marked, and
its entry is discarded lazily when it reaches the front of the heap.  A
trace hook sees every entry fire: an entry without a handle is shown to it
as an :class:`Event` built at that moment in state ``FIRED``.

Contract of the fast paths
--------------------------
No fast path moves a calendar entry.  Every entry, with or without a handle,
takes its ``seq`` from the same counter at the moment it is pushed, and a
caller pushes it at the same moment and with the same ``(time, priority)``
as the public ``schedule`` call it replaces would, so the order of
same-time entries -- and ``events_processed`` -- are those of a calendar
made only of ``schedule`` calls.  A :class:`~repro.des.resource.Resource`
makes exactly one push per service start, whether the request found it
idle or waited in its queue.  ``pending_events`` is derived from three
counters (pushes, fired entries, cancelled handles) rather than updated per
entry.  A random stream may be drawn in blocks (``rng.random(k)``) only if
it has exactly one consumer: that consumer then sees the same doubles in the
same order as scalar draws, and nobody else can observe that the generator
ran ahead.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.des.event import Event, EventState
from repro.des.random import RandomStreams

#: One calendar entry: ``(time, priority, seq, callback, args, handle)``.
Entry = tuple[float, int, int, Callable[..., Any], tuple[Any, ...], Optional[Event]]


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

    Attributes
    ----------
    now:
        Current simulation time.  A plain attribute, so the hot paths read
        it without a call; only the event loop and :meth:`reset` write it.
    """

    def __init__(self, seed: Optional[int] = None, time_unit: str = "ms") -> None:
        self.now = 0.0
        self._queue: list[Entry] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._closed = False
        self._events_processed = 0
        self._cancelled = 0
        self.time_unit = time_unit
        self.random = RandomStreams(seed)
        self._trace_hooks: list[Callable[[Event], None]] = []
        # Bound once here rather than once per scheduled event.
        self._on_cancel: Optional[Callable[[Event], None]] = self._note_cancelled

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of events whose callbacks have been executed."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events currently scheduled and not yet cancelled.

        Every push takes one sequence number, so this is the pushes minus
        the entries fired and the handles cancelled since the last reset:
        O(1) to read, with no counter of its own to keep up to date.
        """
        return self._seq - self._events_processed - self._cancelled

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
        return self._push_handle(self.now + delay, priority, callback, args)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run at absolute time ``time``."""
        return self._push_handle(time, priority, callback, args)

    def call_now(
        self, callback: Callable[..., Any], *args: Any, priority: int = 0
    ) -> Event:
        """Schedule ``callback`` at the current time (after pending same-time events)."""
        return self._push_handle(self.now, priority, callback, args)

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
        if self._closed:
            raise SimulationError("simulator is closed")
        self._discard_cancelled()
        if not self._queue:
            return False
        self._fire(heappop(self._queue))
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
        if self._closed:
            raise SimulationError("simulator is closed")
        self._running = True
        self._stopped = False
        executed = 0
        # The loop below is `while peek(): step()` flattened into one body:
        # local aliases and one tuple unpacking keep the per-entry overhead
        # down to a heappop and the callback itself.  An entry beyond the
        # horizon is pushed back unchanged; its (time, priority, seq) key
        # puts it back at the front.
        queue = self._queue
        hooks = self._trace_hooks
        horizon = float("inf") if until is None else until
        limit = sys.maxsize if max_events is None else max_events
        pending = EventState.PENDING
        fired = EventState.FIRED
        try:
            while queue and executed < limit and not self._stopped:
                entry = heappop(queue)
                time, _priority, _seq, callback, args, handle = entry
                if handle is not None and handle.state is not pending:
                    continue
                if time > horizon:
                    heappush(queue, entry)
                    self.now = horizon
                    break
                self.now = time
                if handle is not None:
                    handle.state = fired
                self._events_processed += 1
                if hooks:
                    event = handle if handle is not None else _fired_event(entry)
                    for hook in hooks:
                        hook(event)
                callback(*args)
                executed += 1
            if until is not None and not self._stopped and self.peek() is None:
                self.now = max(self.now, until)
        finally:
            self._running = False
        return self.now

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
        for entry in self._queue:
            # Mark the discarded handles cancelled directly (bypassing
            # Event.cancel and its on_cancel hook) so a stale handle
            # cancelled later cannot corrupt the pending-event counter.
            handle = entry[5]
            if handle is not None:
                handle.state = EventState.CANCELLED
        self._queue.clear()
        self.now = 0.0
        self._seq = 0
        self._stopped = False
        self._events_processed = 0
        self._cancelled = 0
        self._trace_hooks.clear()

    def close(self) -> None:
        """Discard all pending events and the trace hooks of a finished run.

        Unlike :meth:`reset`, the clock and the counters keep their values,
        and a closed simulator does not run again.  A pending entry holds a
        callback into the model, which holds this simulator, so without
        closing a finished run's calendar keeps the whole model alive until
        the next full garbage collection.  The discarded handles are marked
        cancelled and count as cancelled.
        """
        for entry in self._queue:
            handle = entry[5]
            if handle is not None:
                handle.state = EventState.CANCELLED
        self._queue.clear()
        self._cancelled = self._seq - self._events_processed
        self._trace_hooks.clear()
        # The cached bound method is the simulator's one reference to itself.
        self._on_cancel = None
        self._closed = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _push(
        self,
        time: float,
        priority: int,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
        handle: Optional[Event] = None,
    ) -> None:
        """Enter ``callback(*args)`` into the calendar at ``time``.

        The one push of the calendar, and the only place a sequence number
        is taken.  The kernel's own traffic (resource services, the
        transport's stack delay, host sleeps) calls it directly with a
        float ``time`` and no handle.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (time, priority, seq, callback, args, handle))

    def _push_handle(
        self,
        time: float,
        priority: int,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
    ) -> Event:
        # The handle carries the sequence number _push is about to take; a
        # push that raises takes none and the handle is dropped.
        event = Event(time, priority, self._seq, callback, args)
        event.on_cancel = self._on_cancel
        self._push(event.time, event.priority, callback, args, event)
        return event

    def _fire(self, entry: Entry) -> None:
        time, _priority, _seq, callback, args, handle = entry
        self.now = time
        if handle is not None:
            handle.state = EventState.FIRED
        self._events_processed += 1
        if self._trace_hooks:
            event = handle if handle is not None else _fired_event(entry)
            for hook in self._trace_hooks:
                hook(event)
        callback(*args)

    def _note_cancelled(self, _event: Event) -> None:
        self._cancelled += 1

    def _discard_cancelled(self) -> None:
        queue = self._queue
        pending = EventState.PENDING
        while queue:
            handle = queue[0][5]
            if handle is None or handle.state is pending:
                return
            heappop(queue)

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now!r}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )


def _fired_event(entry: Entry) -> Event:
    """The :class:`Event` a trace hook sees for an entry without a handle."""
    time, priority, seq, callback, args, _handle = entry
    event = Event(time, priority, seq, callback, args)
    event.state = EventState.FIRED
    return event
