"""The failure-detector interface consumed by the consensus algorithm.

Each process has a local failure detector module maintaining a list of
processes currently suspected to have crashed (§2.1).  The consensus layer
needs two things from it: a synchronous query ("is the coordinator currently
suspected?") and an asynchronous notification ("the coordinator just became
suspected while I was waiting for its proposal").  Both are provided here.
"""

from __future__ import annotations

from typing import Callable, List, Set

from repro.des.simulator import Simulator
from repro.cluster.neko import ProtocolLayer

#: Callback invoked as ``listener(monitored_pid, suspected)`` whenever the
#: suspicion status of ``monitored_pid`` changes.
SuspicionListener = Callable[[int, bool], None]


class FailureDetectorLayer(ProtocolLayer):
    """Base class for failure-detector protocol layers.

    Concrete detectors update :attr:`_suspected` through
    :meth:`_set_suspected`, which notifies listeners exactly once per
    status change.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._suspected: Set[int] = set()
        self._listeners: List[SuspicionListener] = []

    # ------------------------------------------------------------------
    # Query interface (used by the consensus algorithm)
    # ------------------------------------------------------------------
    def is_suspected(self, process_id: int) -> bool:
        """``True`` if ``process_id`` is currently suspected by this module."""
        return process_id in self._suspected

    def suspected_processes(self) -> Set[int]:
        """The set of currently suspected processes (a copy)."""
        return set(self._suspected)

    def add_listener(self, listener: SuspicionListener) -> None:
        """Register a callback for suspicion-status changes (idempotent).

        Layers re-register on every ``start()`` -- including restarts after
        a crash-recovery fault -- so double registration must not double
        the callbacks.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: SuspicionListener) -> None:
        """Remove a previously registered callback (no-op if absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def close(self) -> None:
        """Also drop the suspicion listeners (see :meth:`ProtocolLayer.close`)."""
        super().close()
        self._listeners.clear()

    # ------------------------------------------------------------------
    # For subclasses
    # ------------------------------------------------------------------
    def _set_suspected(self, process_id: int, suspected: bool) -> bool:
        """Update the suspicion status; returns ``True`` if it changed."""
        currently = process_id in self._suspected
        if suspected == currently:
            return False
        if suspected:
            self._suspected.add(process_id)
        else:
            self._suspected.discard(process_id)
        for listener in list(self._listeners):
            listener(process_id, suspected)
        return True
