"""Failure-detector histories.

The QoS parameters of a failure detector are estimated "from its history
during the experiment, i.e., from the state transitions trust-to-suspect and
suspect-to-trust, and the time when these transitions occur" (§4).  A
:class:`FailureDetectorHistory` records exactly those transitions for every
(monitor, monitored) pair, over the full duration of the experiment
(which spans many consensus executions, as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Transition:
    """One trust/suspect transition of a failure-detector module."""

    monitor: int
    monitored: int
    time: float
    suspected: bool  # True = trust->suspect, False = suspect->trust


class FailureDetectorHistory:
    """Trust/suspect transition log for all (monitor, monitored) pairs."""

    def __init__(self) -> None:
        self._transitions: List[Transition] = []
        self._current: Dict[Tuple[int, int], bool] = {}
        #: Each pair's transitions in append order, so reading one pair's
        #: history does not scan every pair's.
        self._by_pair: Dict[Tuple[int, int], List[Transition]] = {}

    # ------------------------------------------------------------------
    def record(self, monitor: int, monitored: int, time: float, suspected: bool) -> None:
        """Record a transition (ignored if the state did not actually change)."""
        key = (monitor, monitored)
        if self._current.get(key, False) == suspected:
            return
        self._current[key] = suspected
        transition = Transition(
            monitor=monitor, monitored=monitored, time=time, suspected=suspected
        )
        self._transitions.append(transition)
        self._by_pair.setdefault(key, []).append(transition)

    # ------------------------------------------------------------------
    @property
    def transitions(self) -> List[Transition]:
        """All recorded transitions, in time order."""
        return list(self._transitions)

    def __len__(self) -> int:
        return len(self._transitions)

    def pairs(self) -> List[Tuple[int, int]]:
        """All (monitor, monitored) pairs that ever had a transition."""
        return sorted(self._by_pair)

    def pair_transitions(self, monitor: int, monitored: int) -> List[Transition]:
        """Transitions of one specific failure-detector module."""
        return list(self._by_pair.get((monitor, monitored), ()))

    # ------------------------------------------------------------------
    def suspicion_intervals(
        self, monitor: int, monitored: int, end_time: float
    ) -> List[Tuple[float, float]]:
        """The closed intervals during which ``monitor`` suspected ``monitored``.

        An interval still open at ``end_time`` is truncated there.
        """
        intervals: List[Tuple[float, float]] = []
        start: float | None = None
        for transition in self.pair_transitions(monitor, monitored):
            if transition.suspected and start is None:
                start = transition.time
            elif not transition.suspected and start is not None:
                intervals.append((start, transition.time))
                start = None
        if start is not None:
            intervals.append((start, end_time))
        return intervals

    def time_suspected(self, monitor: int, monitored: int, end_time: float) -> float:
        """Total time ``monitor`` spent suspecting ``monitored`` up to ``end_time``."""
        return sum(
            end - start
            for start, end in self.suspicion_intervals(monitor, monitored, end_time)
        )

    def transition_counts(self, monitor: int, monitored: int) -> Tuple[int, int]:
        """``(n_trust_to_suspect, n_suspect_to_trust)`` for one pair."""
        pair = self.pair_transitions(monitor, monitored)
        n_ts = sum(1 for t in pair if t.suspected)
        n_st = sum(1 for t in pair if not t.suspected)
        return n_ts, n_st
