"""Tests of the discrete-event simulation loop."""

from __future__ import annotations

from dataclasses import astuple
from typing import Any, Callable, List, Optional

import numpy as np
import pytest

from repro.des.event import EventState
from repro.des.resource import Resource, ResourceStats
from repro.des.simulator import SimulationError, Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_and_run_executes_callbacks_in_time_order(sim):
    order = []
    sim.schedule(5.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(9.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_events_fire_in_fifo_order(sim):
    order = []
    for label in ("first", "second", "third"):
        sim.schedule(2.0, order.append, label)
    sim.run()
    assert order == ["first", "second", "third"]


def test_priority_breaks_ties_before_fifo(sim):
    order = []
    sim.schedule(1.0, order.append, "late", priority=5)
    sim.schedule(1.0, order.append, "early", priority=-5)
    sim.run()
    assert order == ["early", "late"]


def test_run_until_stops_the_clock_at_the_horizon(sim):
    fired = []
    sim.schedule(3.0, fired.append, "x")
    sim.schedule(10.0, fired.append, "y")
    sim.run(until=5.0)
    assert fired == ["x"]
    assert sim.now == 5.0
    sim.run()
    assert fired == ["x", "y"]


def test_schedule_at_absolute_time(sim):
    times = []
    sim.schedule_at(4.5, lambda: times.append(sim.now))
    sim.run()
    assert times == [4.5]


def test_scheduling_in_the_past_raises(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancel_prevents_execution(sim):
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    assert sim.cancel(event)
    sim.run()
    assert fired == []
    assert not sim.cancel(event)  # already cancelled


def test_callbacks_can_schedule_further_events(sim):
    seen = []

    def chain(count):
        seen.append(sim.now)
        if count > 0:
            sim.schedule(1.0, chain, count - 1)

    sim.schedule(1.0, chain, 3)
    sim.run()
    assert seen == [1.0, 2.0, 3.0, 4.0]


def test_stop_interrupts_the_run(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, lambda: sim.stop())
    sim.schedule(3.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    # A subsequent run resumes with the remaining events.
    sim.run()
    assert fired == ["a", "b"]


def test_max_events_limits_execution(sim):
    fired = []
    for index in range(10):
        sim.schedule(index + 1.0, fired.append, index)
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_events_processed_and_pending_counts(sim):
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0
    assert sim.events_processed == 2


def test_call_now_runs_at_current_time(sim):
    times = []
    sim.schedule(2.0, lambda: sim.call_now(lambda: times.append(sim.now)))
    sim.run()
    assert times == [2.0]


def test_run_until_with_empty_queue_advances_clock(sim):
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_reset_clears_pending_events(sim):
    sim.schedule(1.0, lambda: None)
    sim.reset()
    assert sim.pending_events == 0
    assert sim.now == 0.0


def test_reentrant_run_raises(sim):
    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_trace_hook_sees_every_event(sim):
    seen = []
    sim.add_trace_hook(lambda event: seen.append(event.time))
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert seen == [1.0, 2.0]


def test_peek_returns_next_event_time(sim):
    assert sim.peek() is None
    sim.schedule(3.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    assert sim.peek() == 1.0


# ----------------------------------------------------------------------
# reset() regressions: a reset simulator must behave like a fresh one
# ----------------------------------------------------------------------
def test_reset_restores_the_sequence_counter(sim):
    """Regression: reset() used to keep ``_seq``, so events scheduled after
    a reset carried different tie-breaker sequence numbers than the same
    events on a fresh simulator."""
    sim.schedule(1.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    sim.reset()
    fresh = Simulator(seed=12345)
    reset_events = [sim.schedule(2.0, lambda: None) for _ in range(3)]
    fresh_events = [fresh.schedule(2.0, lambda: None) for _ in range(3)]
    assert [e.seq for e in reset_events] == [e.seq for e in fresh_events] == [0, 1, 2]


def test_reset_clears_trace_hooks(sim):
    """Regression: reset() used to keep the trace hooks, so a reused
    simulator kept firing observers registered for the previous run."""
    seen = []
    sim.add_trace_hook(lambda event: seen.append(event.time))
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert seen == [1.0]
    sim.reset()
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert seen == [1.0]  # the stale hook did not fire again


def test_reset_invalidates_stale_event_handles(sim):
    event = sim.schedule(1.0, lambda: None)
    sim.reset()
    assert sim.pending_events == 0
    assert not event.cancel()  # already discarded; must not corrupt counters
    assert sim.pending_events == 0


def test_close_discards_pending_events_and_keeps_clock_and_counters(sim):
    sim.schedule(1.0, lambda: None)
    later = sim.schedule(5.0, lambda: None)
    sim.add_trace_hook(lambda event: None)
    sim.run(until=2.0)
    sim.close()
    assert (sim.now, sim.events_processed, sim.pending_events) == (2.0, 1, 0)
    assert later.cancelled
    assert not later.cancel()  # already discarded; must not corrupt counters
    assert sim.pending_events == 0
    with pytest.raises(SimulationError):
        sim.run()
    with pytest.raises(SimulationError):
        sim.step()


# ----------------------------------------------------------------------
# pending_events live counter
# ----------------------------------------------------------------------
def test_pending_events_tracks_direct_and_simulator_cancellations(sim):
    events = [sim.schedule(index + 1.0, lambda: None) for index in range(3)]
    assert sim.pending_events == 3
    events[0].cancel()  # direct cancellation, bypassing sim.cancel()
    assert sim.pending_events == 2
    assert sim.cancel(events[1])
    assert sim.pending_events == 1
    assert not events[1].cancel()  # double-cancel must not decrement again
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0


def test_pending_events_counter_survives_a_reset_cycle(sim):
    sim.schedule(1.0, lambda: None)
    event = sim.schedule(2.0, lambda: None)
    event.cancel()
    sim.reset()
    assert sim.pending_events == 0
    sim.schedule(1.0, lambda: None)
    assert sim.pending_events == 1


# ----------------------------------------------------------------------
# Entries without a handle, under observation
# ----------------------------------------------------------------------
def test_trace_hook_sees_handle_free_entries_as_fired_events(sim):
    resource = Resource(sim, "cpu")
    done: list = []
    seen = []
    sim.add_trace_hook(
        lambda event: seen.append(
            (event.time, event.priority, event.seq, event.callback, event.args,
             event.state)
        )
    )
    timer = sim.schedule(0.5, done.append, "timer", priority=2)
    resource.request(1.0, done.append, "a")  # idle: service starts now
    resource.request(2.0, done.append, "b")  # queued until "a" completes
    sim.run()
    fired = EventState.FIRED
    assert seen == [
        (0.5, 2, 0, done.append, ("timer",), fired),
        (1.0, 0, 1, resource._complete, (1.0, done.append, ("a",)), fired),
        (3.0, 0, 2, resource._complete, (2.0, done.append, ("b",)), fired),
    ]
    assert done == ["timer", "a", "b"]
    assert timer.fired
    assert sim.events_processed == 3
    assert sim.pending_events == 0


def test_reset_with_handle_free_entries_pending_leaves_nothing_pending(sim):
    resource = Resource(sim, "cpu", capacity=2)
    for _ in range(3):
        resource.request(1.0, lambda: None)
    timer = sim.schedule(5.0, lambda: None)
    cancelled = sim.schedule(6.0, lambda: None)
    cancelled.cancel()
    # Two service starts (no handle) and the timer; the third request
    # waits in the resource's queue, not in the calendar.
    assert sim.pending_events == 3
    sim.reset()
    assert sim.pending_events == 0
    assert sim.peek() is None
    # Stale handles: neither the pending one nor the cancelled one may
    # move the counter.
    assert not timer.cancel()
    assert not cancelled.cancel()
    assert sim.pending_events == 0
    sim.schedule(1.0, lambda: None)
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0
    assert sim.events_processed == 1


# ----------------------------------------------------------------------
# Calendar contract: the simulator against a plain sorted-list calendar
# ----------------------------------------------------------------------
class _ReferenceEntry:
    """An entry of the reference calendar; it is also its own handle."""

    def __init__(self, calendar, time, priority, seq, callback, args):
        self.calendar = calendar
        self.time = float(time)
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.state = EventState.PENDING

    def cancel(self) -> bool:
        if self.state is not EventState.PENDING:
            return False
        self.state = EventState.CANCELLED
        self.calendar.entries.remove(self)
        return True


class _ReferenceCalendar:
    """The calendar contract written as plainly as possible.

    Pending entries live in a list sorted by ``(time, priority, seq)``;
    ``seq`` is taken from one counter when an entry is pushed; a cancelled
    entry leaves the list at once; ``run`` is ``step`` in a loop.
    """

    def __init__(self) -> None:
        self.entries: List[_ReferenceEntry] = []
        self.hooks: List[Callable[[Any], None]] = []
        self.reset()

    def reset(self) -> None:
        for entry in self.entries:
            entry.state = EventState.CANCELLED
        self.entries = []
        self.hooks = []
        self.now = 0.0
        self.seq = 0
        self.events_processed = 0
        self.stopped = False

    @property
    def pending_events(self) -> int:
        return len(self.entries)

    def add_trace_hook(self, hook: Callable[[Any], None]) -> None:
        self.hooks.append(hook)

    def push(self, time, priority, callback, args) -> _ReferenceEntry:
        if time < self.now:
            raise SimulationError("in the past")
        entry = _ReferenceEntry(self, time, priority, self.seq, callback, args)
        self.seq += 1
        self.entries.append(entry)
        self.entries.sort(key=lambda e: (e.time, e.priority, e.seq))
        return entry

    def schedule(self, delay, callback, *args, priority=0):
        return self.push(self.now + delay, priority, callback, args)

    def schedule_at(self, time, callback, *args, priority=0):
        return self.push(time, priority, callback, args)

    def call_now(self, callback, *args, priority=0):
        return self.push(self.now, priority, callback, args)

    def peek(self) -> Optional[float]:
        return self.entries[0].time if self.entries else None

    def step(self) -> bool:
        if not self.entries:
            return False
        entry = self.entries.pop(0)
        self.now = entry.time
        entry.state = EventState.FIRED
        self.events_processed += 1
        for hook in self.hooks:
            hook(entry)
        entry.callback(*entry.args)
        return True

    def run(self, until=None, max_events=None) -> float:
        self.stopped = False
        executed = 0
        while not self.stopped:
            if max_events is not None and executed >= max_events:
                break
            if not self.entries:
                break
            if until is not None and self.entries[0].time > until:
                self.now = until
                break
            self.step()
            executed += 1
        if until is not None and not self.stopped and not self.entries:
            self.now = max(self.now, until)
        return self.now

    def stop(self) -> None:
        self.stopped = True


class _ReferenceServer:
    """A queue-then-dispatch FIFO server on the reference calendar.

    Its service entries carry what :class:`Resource` puts in the calendar:
    ``_complete`` with ``(service_time, callback, args)``, pushed when the
    service starts.
    """

    class _Request:
        def __init__(self, service_time, callback, args, submitted_at):
            self.service_time = service_time
            self.callback = callback
            self.args = args
            self.submitted_at = submitted_at
            self.started = False
            self.cancelled = False

        def cancel(self) -> None:
            if not self.started:
                self.cancelled = True

    def __init__(self, calendar, name, capacity) -> None:
        self.calendar = calendar
        self.capacity = capacity
        self.queue: List[Any] = []
        self.in_service = 0
        self.stats = ResourceStats()

    @property
    def queue_length(self) -> int:
        return sum(1 for request in self.queue if not request.cancelled)

    def request(self, service_time, callback, *args):
        request = self._Request(float(service_time), callback, args, self.calendar.now)
        self.stats.requests += 1
        self.queue.append(request)
        self.stats.max_queue_length = max(self.stats.max_queue_length, len(self.queue))
        self._dispatch()
        return request

    def _dispatch(self) -> None:
        while self.in_service < self.capacity and self.queue:
            request = self.queue.pop(0)
            if request.cancelled:
                continue
            request.started = True
            self.stats.total_wait += self.calendar.now - request.submitted_at
            self.in_service += 1
            self.calendar.schedule(
                request.service_time, self._complete,
                request.service_time, request.callback, request.args,
            )

    def _complete(self, service_time, callback, args) -> None:
        self.in_service -= 1
        self.stats.completed += 1
        self.stats.busy_time += service_time
        callback(*args)
        self._dispatch()


def _plain(value: Any) -> Any:
    """A fired entry's callback and arguments, with callables by name."""
    if isinstance(value, tuple):
        return tuple(_plain(item) for item in value)
    if callable(value):
        return value.__name__
    return value


_OPERATIONS = (
    "schedule", "schedule_at", "schedule_past", "call_now", "cancel", "timer",
    "cancel_timer", "request", "cancel_request", "step", "peek", "run_until",
    "run_max", "run_stop", "run", "reset",
)
_WEIGHTS = np.array([6, 3, 1, 2, 2, 3, 1, 7, 2, 3, 1, 3, 2, 1, 1, 1], dtype=float)


def _script(seed: int, length: int = 160):
    """A seeded random script: operations plus what each callback does.

    Times sit on a 0.5 grid and priorities in {-1, 0, 1}, so equal times
    and priorities are common.  Every callback label gets a nested action
    (none, a further entry, a resource request, a timer cancel or a stop)
    run from inside the firing callback; nested labels get none, so every
    calendar drains.
    """
    rng = np.random.default_rng(seed)
    actions: List[Any] = []

    def label(nested: bool) -> int:
        action: Any = None
        if nested:
            kind = int(rng.integers(0, 6))
            if kind == 1:
                action = ("schedule", 0.5 * int(rng.integers(0, 3)),
                          int(rng.integers(-1, 2)), label(False))
            elif kind == 2:
                action = ("request", int(rng.integers(0, 3)),
                          0.5 * int(rng.integers(0, 4)), label(False))
            elif kind == 3:
                action = ("cancel_timer", int(rng.integers(0, 3)))
            elif kind == 4:
                action = ("stop",)
            elif kind == 5:
                action = ("call_now", int(rng.integers(-1, 2)), label(False))
        actions.append(action)
        return len(actions) - 1

    operations = []
    for _ in range(length):
        name = _OPERATIONS[int(rng.choice(len(_OPERATIONS), p=_WEIGHTS / _WEIGHTS.sum()))]
        delay = 0.5 * int(rng.integers(0, 6))
        priority = int(rng.integers(-1, 2))
        operations.append((name, delay, priority, int(rng.integers(0, 1 << 16)),
                           label(True)))
    return operations, actions


class _ScriptRunner:
    """Applies a script to one calendar and snapshots it after every step."""

    def __init__(self, calendar, make_server, actions) -> None:
        self.calendar = calendar
        self.make_server = make_server
        self.actions = actions
        self.fired: List[tuple] = []
        self.handles: List[Any] = []
        self.requests: List[Any] = []
        self.timers: dict = {}
        self._start()

    def _start(self) -> None:
        self.calendar.add_trace_hook(self._observe)
        self.servers = [
            self.make_server(self.calendar, f"server{capacity}", capacity)
            for capacity in (1, 2, 3)
        ]

    def _observe(self, event) -> None:
        assert event.state is EventState.FIRED
        self.fired.append(
            (event.time, event.priority, event.seq, _plain(event.callback),
             _plain(event.args))
        )

    def fire(self, label: int) -> None:
        action = self.actions[label]
        calendar = self.calendar
        if action is None:
            return
        if action[0] == "schedule":
            _, delay, priority, nested = action
            self.handles.append(calendar.schedule(delay, self.fire, nested, priority=priority))
        elif action[0] == "request":
            _, server, service_time, nested = action
            self.requests.append(self.servers[server].request(service_time, self.fire, nested))
        elif action[0] == "cancel_timer":
            timer = self.timers.get(action[1])
            if timer is not None:
                timer.cancel()
        elif action[0] == "stop":
            calendar.stop()
        elif action[0] == "call_now":
            _, priority, nested = action
            self.handles.append(calendar.call_now(self.fire, nested, priority=priority))

    def apply(self, operation) -> tuple:
        name, delay, priority, pick, label = operation
        calendar = self.calendar
        result: Any = None
        if name == "schedule":
            self.handles.append(calendar.schedule(delay, self.fire, label, priority=priority))
        elif name == "schedule_at":
            self.handles.append(
                calendar.schedule_at(calendar.now + delay, self.fire, label, priority=priority)
            )
        elif name == "schedule_past":
            try:
                calendar.schedule_at(calendar.now - 0.5, self.fire, label)
            except SimulationError:
                result = "past"
        elif name == "call_now":
            self.handles.append(calendar.call_now(self.fire, label, priority=priority))
        elif name == "cancel" and self.handles:
            result = self.handles[pick % len(self.handles)].cancel()
        elif name == "timer":  # re-arm: cancel the previous timer of the key
            key = pick % 3
            if key in self.timers:
                self.timers[key].cancel()
            self.timers[key] = calendar.schedule(delay, self.fire, label, priority=priority)
        elif name == "cancel_timer" and pick % 3 in self.timers:
            result = self.timers[pick % 3].cancel()
        elif name == "request":
            server = self.servers[pick % 3]
            self.requests.append(server.request(delay / 2, self.fire, label))
        elif name == "cancel_request" and self.requests:
            self.requests[pick % len(self.requests)].cancel()
        elif name == "step":
            result = calendar.step()
        elif name == "peek":
            result = calendar.peek()
        elif name == "run_until":
            result = calendar.run(until=calendar.now + delay)
        elif name == "run_max":
            result = calendar.run(max_events=pick % 6)
        elif name == "run_stop":
            calendar.schedule(delay, calendar.stop, priority=priority)
            result = calendar.run()
        elif name == "run":
            result = calendar.run()
        elif name == "reset":
            calendar.reset()
            self._start()
        return (
            result,
            tuple(self.fired),
            calendar.pending_events,
            calendar.events_processed,
            calendar.now,
            tuple((astuple(server.stats), server.queue_length) for server in self.servers),
        )


@pytest.mark.parametrize("seed", range(12))
def test_calendar_matches_a_sorted_list_reference(seed):
    operations, actions = _script(seed)
    simulator = _ScriptRunner(Simulator(seed=0), Resource, actions)
    reference = _ScriptRunner(_ReferenceCalendar(), _ReferenceServer, actions)
    for index, operation in enumerate(operations):
        expected = reference.apply(operation)
        actual = simulator.apply(operation)
        assert actual == expected, f"script {seed}, operation {index}: {operation}"
    assert len(reference.fired) > 40  # the script did exercise the calendar
    assert any(entry[3] == "_complete" for entry in reference.fired)
