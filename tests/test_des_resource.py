"""Tests of the FIFO resource used for CPUs and the shared network medium."""

from __future__ import annotations

from collections import deque
from dataclasses import astuple

import numpy as np
import pytest

from repro.des.resource import Resource, ResourceStats
from repro.des.simulator import Simulator


def test_single_request_is_served_after_its_service_time(sim):
    resource = Resource(sim, "cpu")
    done = []
    resource.request(2.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [2.0]


def test_requests_are_served_fifo_and_serialised(sim):
    resource = Resource(sim, "cpu")
    done = []
    resource.request(2.0, lambda: done.append(("a", sim.now)))
    resource.request(3.0, lambda: done.append(("b", sim.now)))
    resource.request(1.0, lambda: done.append(("c", sim.now)))
    sim.run()
    assert done == [("a", 2.0), ("b", 5.0), ("c", 6.0)]


def test_capacity_two_serves_two_concurrently(sim):
    resource = Resource(sim, "dual", capacity=2)
    done = []
    for label in ("a", "b", "c"):
        resource.request(2.0, lambda label=label: done.append((label, sim.now)))
    sim.run()
    assert done == [("a", 2.0), ("b", 2.0), ("c", 4.0)]


def test_requests_submitted_later_queue_behind_in_progress_work(sim):
    resource = Resource(sim, "cpu")
    done = []
    resource.request(5.0, lambda: done.append(("a", sim.now)))
    sim.schedule(1.0, lambda: resource.request(1.0, lambda: done.append(("b", sim.now))))
    sim.run()
    assert done == [("a", 5.0), ("b", 6.0)]


def test_queue_length_and_busy_flags(sim):
    resource = Resource(sim, "cpu")
    resource.request(1.0, lambda: None)
    resource.request(1.0, lambda: None)
    assert resource.busy
    assert resource.in_service == 1
    assert resource.queue_length == 1
    sim.run()
    assert not resource.busy
    assert resource.queue_length == 0


def test_cancel_queued_request(sim):
    resource = Resource(sim, "cpu")
    done = []
    resource.request(2.0, lambda: done.append("a"))
    second = resource.request(2.0, lambda: done.append("b"))
    second.cancel()
    sim.run()
    assert done == ["a"]


def test_cancel_in_service_request_has_no_effect(sim):
    resource = Resource(sim, "cpu")
    done = []
    first = resource.request(2.0, lambda: done.append("a"))
    first.cancel()  # already started: completes anyway
    sim.run()
    assert done == ["a"]


def test_stats_track_busy_time_and_waits(sim):
    resource = Resource(sim, "cpu")
    resource.request(2.0, lambda: None)
    resource.request(2.0, lambda: None)
    sim.run()
    assert resource.stats.completed == 2
    assert resource.stats.busy_time == pytest.approx(4.0)
    assert resource.stats.mean_wait() == pytest.approx(1.0)  # (0 + 2) / 2
    assert 0.0 < resource.stats.utilization(elapsed=sim.now) <= 1.0


def test_zero_capacity_rejected(sim):
    with pytest.raises(ValueError):
        Resource(sim, "bad", capacity=0)


def test_negative_service_time_rejected(sim):
    resource = Resource(sim, "cpu")
    with pytest.raises(ValueError):
        resource.request(-1.0, lambda: None)


def test_callbacks_may_issue_new_requests(sim):
    resource = Resource(sim, "cpu")
    done = []

    def chain(remaining):
        done.append(sim.now)
        if remaining:
            resource.request(1.0, chain, remaining - 1)

    resource.request(1.0, chain, 2)
    sim.run()
    assert done == [1.0, 2.0, 3.0]


# ----------------------------------------------------------------------
# The idle fast path: same calendar, same statistics
# ----------------------------------------------------------------------
def test_idle_and_busy_arrivals_keep_fifo_order_and_exact_stats(sim):
    resource = Resource(sim, "dual", capacity=2)
    done = []

    def submit(label, service_time):
        return resource.request(service_time, lambda: done.append((label, sim.now)))

    submit("a", 3.0)  # idle: starts at once
    submit("b", 2.0)  # one unit free: starts at once
    submit("c", 1.0)  # both units busy: queued
    submit("d", 1.0)
    submit("e", 5.0).cancel()  # queued, then cancelled: never served
    sim.schedule(1.0, submit, "f", 1.0)  # queued behind c, d and the cancelled e
    sim.schedule(10.0, submit, "g", 1.0)  # idle again: starts at once
    sim.run()
    assert done == [
        ("b", 2.0), ("a", 3.0), ("c", 3.0), ("d", 4.0), ("f", 4.0), ("g", 11.0)
    ]
    assert resource.stats == ResourceStats(
        requests=7,
        completed=6,
        busy_time=9.0,
        total_wait=7.0,  # c waits 2, d waits 3, f waits 2
        max_queue_length=4,  # c, d, the cancelled e and f
    )
    assert not resource.busy and resource.queue_length == 0


def test_a_resource_only_ever_idle_reports_a_queue_of_one(sim):
    resource = Resource(sim, "cpu")
    resource.request(1.0, lambda: None)
    sim.schedule(2.0, resource.request, 1.0, lambda: None)
    sim.run()
    assert resource.stats == ResourceStats(
        requests=2, completed=2, busy_time=2.0, total_wait=0.0, max_queue_length=1
    )


class _QueueThenDispatch:
    """The textbook FIFO server the fast path must match exactly.

    Every request joins the queue and the head of the queue is served
    whenever a unit is free; there is no shortcut for an idle server.
    """

    class _Entry:
        def __init__(self, service_time, callback, args, submitted_at):
            self.service_time = service_time
            self.callback = callback
            self.args = args
            self.submitted_at = submitted_at
            self.started = False
            self.cancelled = False

        def cancel(self):
            if not self.started:
                self.cancelled = True

    def __init__(self, sim, capacity):
        self.sim = sim
        self.capacity = capacity
        self.queue = deque()
        self.in_service = 0
        self.stats = ResourceStats()

    def request(self, service_time, callback, *args):
        entry = self._Entry(float(service_time), callback, args, self.sim.now)
        self.stats.requests += 1
        self.queue.append(entry)
        self.stats.max_queue_length = max(self.stats.max_queue_length, len(self.queue))
        self._dispatch()
        return entry

    def _dispatch(self):
        while self.in_service < self.capacity and self.queue:
            entry = self.queue.popleft()
            if entry.cancelled:
                continue
            entry.started = True
            self.stats.total_wait += self.sim.now - entry.submitted_at
            self.in_service += 1
            self.sim.schedule(entry.service_time, self._complete, entry)

    def _complete(self, entry):
        self.in_service -= 1
        self.stats.completed += 1
        self.stats.busy_time += entry.service_time
        entry.callback(*entry.args)
        self._dispatch()


def _random_workload(make_server, capacity, seed):
    """Drive a server with random arrivals, chained requests and cancels.

    Returns the fired calendar (time and sequence number of every event),
    the completions in order, and the server's statistics.
    """
    sim = Simulator(seed=0)
    server = make_server(sim, capacity)
    rng = np.random.default_rng(seed)
    calendar, completions, handles = [], [], []
    sim.add_trace_hook(lambda event: calendar.append((event.time, event.seq)))

    def finished(label, chain):
        completions.append((label, sim.now))
        if chain:  # issued while the finishing request's unit is free
            submit(f"{label}+", 0.0)
            # A later calendar entry pins when the chained request started.
            sim.schedule(0.25, completions.append, (f"{label}:after", sim.now))

    def submit(label, chain_draw):
        service_time = float(rng.choice([0.0, 0.5, 1.0, 1.5]))
        handles.append(server.request(service_time, finished, label, chain_draw > 0.7))

    for index in range(60):
        # Integer-ish arrival times make same-instant ties common.
        sim.schedule_at(float(rng.integers(0, 20)) * 0.5, submit, f"r{index}",
                        float(rng.random()))
    for _ in range(15):
        victim = int(rng.integers(0, 60))
        sim.schedule_at(float(rng.integers(0, 20)) * 0.5 + 0.25,
                        lambda v=victim: handles[v].cancel() if v < len(handles) else None)
    sim.run()
    return calendar, completions, astuple(server.stats)


@pytest.mark.parametrize("capacity", [1, 2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_resource_reproduces_the_queue_then_dispatch_calendar(capacity, seed):
    expected = _random_workload(_QueueThenDispatch, capacity, seed)
    actual = _random_workload(
        lambda sim, capacity: Resource(sim, "server", capacity=capacity), capacity, seed
    )
    assert actual == expected
    assert len(expected[1]) > 30  # the workload did serve requests
