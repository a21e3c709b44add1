"""FIFO resources with deterministic service order.

The paper's network model (§3.3) decomposes the end-to-end delay of a
message into the use of three resources: the sender's CPU, the shared
network medium and the receiver's CPU.  :class:`Resource` models exactly
that kind of single-queue, fixed-capacity server: requests are served in
arrival order, each holding one unit of capacity for a caller-specified
service time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional

from repro.des.simulator import Simulator


@dataclass
class ResourceStats:
    """Aggregate utilisation statistics for a :class:`Resource`."""

    requests: int = 0
    completed: int = 0
    busy_time: float = 0.0
    total_wait: float = 0.0
    max_queue_length: int = 0

    def mean_wait(self) -> float:
        """Mean time a request spent queued before service began."""
        if self.completed == 0:
            return 0.0
        return self.total_wait / self.completed

    def utilization(self, elapsed: float, capacity: int = 1) -> float:
        """Fraction of ``elapsed`` time the resource spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * capacity))


class Request:
    """A single pending or in-service request on a :class:`Resource`."""

    __slots__ = (
        "service_time", "callback", "args", "submitted_at", "started_at", "cancelled"
    )

    def __init__(
        self,
        service_time: float,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
        submitted_at: float,
    ) -> None:
        self.service_time = service_time
        self.callback = callback
        self.args = args
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.cancelled = False

    def cancel(self) -> None:
        """Cancel the request if it has not started service yet.

        Cancelling an in-service request has no effect (the service completes
        normally); cancelling a queued request removes it from the queue the
        next time the resource looks for work.
        """
        if self.started_at is None:
            self.cancelled = True

    def __repr__(self) -> str:
        return (
            f"Request(service_time={self.service_time!r}, "
            f"submitted_at={self.submitted_at!r}, started_at={self.started_at!r}, "
            f"cancelled={self.cancelled})"
        )


_Waiting = tuple[float, Callable[..., Any], tuple[Any, ...], float, Optional[Request]]


class Resource:
    """A fixed-capacity FIFO server.

    Parameters
    ----------
    sim:
        The owning simulator.
    name:
        Human-readable name used in traces and error messages.
    capacity:
        Number of requests that may be in service simultaneously.
    """

    def __init__(self, sim: Simulator, name: str, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        # Waiting services: ``(service_time, callback, args, submitted_at,
        # request)``, where ``request`` is ``None`` unless a caller of
        # :meth:`request` holds it.
        self._queue: Deque[_Waiting] = deque()
        self._in_service = 0
        self.stats = ResourceStats()

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """``True`` while at least one request is in service."""
        return self._in_service > 0

    @property
    def queue_length(self) -> int:
        """Number of requests waiting (not yet in service)."""
        return sum(
            1 for *_, request in self._queue if request is None or not request.cancelled
        )

    @property
    def in_service(self) -> int:
        """Number of requests currently being served."""
        return self._in_service

    # ------------------------------------------------------------------
    def request(
        self,
        service_time: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> Request:
        """Queue a request for ``service_time`` units of this resource.

        ``callback(*args)`` is invoked when the service completes.  The
        request starts immediately if capacity is available, otherwise it
        waits in FIFO order.  The returned :class:`Request` may be
        cancelled while it waits.
        """
        request = Request(float(service_time), callback, args, self.sim.now)
        self._serve(request.service_time, callback, args, request)
        return request

    def _serve(
        self,
        service_time: float,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
        request: Optional[Request] = None,
    ) -> None:
        """Queue ``service_time`` units of service, then ``callback(*args)``.

        The one queue of the resource, shared by :meth:`request` and by the
        kernel's own callers (host CPUs, the Ethernet medium), which need no
        :class:`Request` and pass a float ``service_time`` and ``request=None``.
        """
        if service_time < 0:
            raise ValueError(f"service_time must be >= 0, got {service_time}")
        stats = self.stats
        stats.requests += 1
        queue = self._queue
        if not queue and self._in_service < self.capacity:
            # Idle resource, nothing queued: start service directly.  This is
            # the same single calendar entry the queued path pushes, so
            # sequence numbers do not move; the request counts as having
            # been queued (length 1) for zero time.
            if stats.max_queue_length < 1:
                stats.max_queue_length = 1
            sim = self.sim
            if request is not None:
                request.started_at = sim.now
            self._in_service += 1
            sim._push(
                sim.now + service_time, 0, self._complete, (service_time, callback, args)
            )
            return
        queue.append((service_time, callback, args, self.sim.now, request))
        if len(queue) > stats.max_queue_length:
            stats.max_queue_length = len(queue)
        if self._in_service < self.capacity:
            # Only reachable from inside a completion callback, which runs
            # after the finished request has released its unit.
            self._dispatch()

    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        queue = self._queue
        sim = self.sim
        while self._in_service < self.capacity and queue:
            service_time, callback, args, submitted_at, request = queue.popleft()
            now = sim.now
            if request is not None:
                if request.cancelled:
                    continue
                request.started_at = now
            self.stats.total_wait += now - submitted_at
            self._in_service += 1
            sim._push(now + service_time, 0, self._complete, (service_time, callback, args))

    def _complete(
        self, service_time: float, callback: Callable[..., Any], args: tuple[Any, ...]
    ) -> None:
        self._in_service -= 1
        stats = self.stats
        stats.completed += 1
        stats.busy_time += service_time
        callback(*args)
        if self._queue:
            self._dispatch()

    def close(self) -> None:
        """Drop the waiting services of a finished run; they never start.

        Their callbacks lead back to the model that owns this resource.
        """
        self._queue.clear()

    def __repr__(self) -> str:
        return (
            f"Resource(name={self.name!r}, capacity={self.capacity}, "
            f"in_service={self._in_service}, queued={self.queue_length})"
        )
