"""Happens-before reconstruction over normalized event logs.

Given an :class:`~repro.traces.events.EventLog`, :func:`build_hb_graph`
reconstructs the Lamport happens-before partial order:

* **program order** -- consecutive events at the same process;
* **message order** -- each ``send`` precedes the ``receive`` (or the
  post-send ``drop``) of the same ``msg_id``;
* **liveness order** -- a ``crash``/``recover`` of process *p* precedes
  every later ``timer`` verdict *about* *p* (the failure detector's
  transition is a delayed observation of that liveness change; pure
  message causality cannot represent the *absence* of heartbeats, so
  this explicit state edge is what lets a causal slice reach the
  injected fault behind a detection-time outlier).

Each node is annotated with a vector clock (one component per process,
computed on first use), and :meth:`HappensBeforeGraph.causal_past`
computes the backward causal slice from any anchor event -- e.g. the
first wrong suspicion or a latency outlier's deciding receive.

Duplicated copies injected by the fault layer carry fresh ``msg_id``\\ s
with no matching ``send``; they receive no message edge (their
``parent_id`` still names the original message for reporting).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.traces.events import (
    CRASH,
    DROP,
    RECEIVE,
    RECOVER,
    SEND,
    TIMER,
    EventLog,
    TraceEvent,
)


@dataclass
class HappensBeforeGraph:
    """The happens-before DAG of one replication's event log.

    Attributes
    ----------
    events:
        The log's events sorted stably by time; node *i* is ``events[i]``
        and every edge points from a lower to a higher index.
    predecessors / successors:
        Adjacency lists of the direct happens-before edges.
    n_processes:
        Number of vector-clock components.
    """

    events: List[TraceEvent]
    predecessors: List[List[int]]
    successors: List[List[int]]
    n_processes: int

    @cached_property
    def vector_clocks(self) -> List[Tuple[int, ...]]:
        """One clock per node, computed on first use.

        Component *p* counts the events at process *p* in the node's
        causal past (inclusive).  Clocks are built in index order, since
        every edge points forward.
        """
        zero = (0,) * self.n_processes
        clocks: List[Tuple[int, ...]] = []
        for index, event in enumerate(self.events):
            clock = list(zero)
            for pred in self.predecessors[index]:
                for component, value in enumerate(clocks[pred]):
                    if value > clock[component]:
                        clock[component] = value
            if 0 <= event.process < self.n_processes:
                clock[event.process] += 1
            clocks.append(tuple(clock))
        return clocks

    # ------------------------------------------------------------------
    def causal_past(self, anchor: int) -> List[int]:
        """The backward causal slice from ``anchor`` (anchor included).

        Returns the indices of every event that happens-before the
        anchor, sorted ascending -- the minimal prefix of the execution
        that can have influenced the anchored observation.
        """
        if not 0 <= anchor < len(self.events):
            raise IndexError(f"anchor {anchor} out of range (log has {len(self.events)})")
        seen: Set[int] = {anchor}
        stack = [anchor]
        while stack:
            node = stack.pop()
            for pred in self.predecessors[node]:
                if pred not in seen:
                    seen.add(pred)
                    stack.append(pred)
        return sorted(seen)

    def happens_before(self, first: int, second: int) -> bool:
        """``True`` iff node ``first`` happens-before node ``second``."""
        if first == second:
            return False
        a, b = self.vector_clocks[first], self.vector_clocks[second]
        return all(x <= y for x, y in zip(a, b, strict=True)) and a != b

    def concurrent(self, first: int, second: int) -> bool:
        """``True`` iff neither node happens-before the other."""
        return (
            first != second
            and not self.happens_before(first, second)
            and not self.happens_before(second, first)
        )

    def find_last(
        self,
        kind: Optional[str] = None,
        process: Optional[int] = None,
        detail: Optional[str] = None,
    ) -> Optional[int]:
        """The index of the last event matching the given filters."""
        for index in range(len(self.events) - 1, -1, -1):
            event = self.events[index]
            if kind is not None and event.kind != kind:
                continue
            if process is not None and event.process != process:
                continue
            if detail is not None and event.detail != detail:
                continue
            return index
        return None

    def find_first(
        self,
        kind: Optional[str] = None,
        process: Optional[int] = None,
        detail: Optional[str] = None,
    ) -> Optional[int]:
        """The index of the first event matching the given filters."""
        for index, event in enumerate(self.events):
            if kind is not None and event.kind != kind:
                continue
            if process is not None and event.process != process:
                continue
            if detail is not None and event.detail != detail:
                continue
            return index
        return None


def _infer_n_processes(events: Sequence[TraceEvent]) -> int:
    highest = 0
    for event in events:
        highest = max(highest, event.process)
        if event.peer is not None:
            highest = max(highest, event.peer)
        if event.sender is not None:
            highest = max(highest, event.sender)
        if event.destination is not None:
            highest = max(highest, event.destination)
    return highest + 1


def build_hb_graph(log: EventLog, n_processes: Optional[int] = None) -> HappensBeforeGraph:
    """Build the happens-before DAG of ``log``.

    ``n_processes`` sizes the vector clocks; when omitted it is inferred
    from the highest process id appearing in the log.
    """
    events = log.events()
    n = len(events)
    if n_processes is None:
        n_processes = _infer_n_processes(events) if events else 1
    predecessors: List[List[int]] = [[] for _ in range(n)]
    successors: List[List[int]] = [[] for _ in range(n)]

    def add_edge(source: int, target: int) -> None:
        if source >= target:  # defensive: edges always point forward in time
            return
        if source not in predecessors[target]:
            predecessors[target].append(source)
            successors[source].append(target)

    # Program order + indices for the message and liveness edges.
    last_at_process: Dict[int, int] = {}
    send_by_msg_id: Dict[int, int] = {}
    liveness: Dict[int, List[Tuple[float, int]]] = {}
    for index, event in enumerate(events):
        previous = last_at_process.get(event.process)
        if previous is not None:
            add_edge(previous, index)
        last_at_process[event.process] = index
        if event.kind == SEND and event.msg_id is not None:
            send_by_msg_id[event.msg_id] = index
        if event.kind in (CRASH, RECOVER):
            liveness.setdefault(event.process, []).append((event.time_ms, index))

    for index, event in enumerate(events):
        # Message order: send -> receive (and send -> post-send drop).
        if event.kind in (RECEIVE, DROP) and event.msg_id is not None:
            source = send_by_msg_id.get(event.msg_id)
            if source is not None and source != index:
                add_edge(source, index)
        # Liveness order: the latest crash/recover of the monitored
        # process precedes the timer verdict about it.
        if event.kind == TIMER and event.peer is not None:
            history = liveness.get(event.peer)
            if history:
                position = bisect_right(history, (event.time_ms, index)) - 1
                if position >= 0:
                    add_edge(history[position][1], index)

    return HappensBeforeGraph(
        events=events,
        predecessors=predecessors,
        successors=successors,
        n_processes=n_processes,
    )
