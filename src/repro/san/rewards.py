"""Reward variables.

UltraSAN evaluates *performance variables* defined as reward structures on
the model.  The paper's key variable is the consensus latency: the time
from the start of the execution until the first process decides -- a
first-passage-time reward.  This module provides that plus the other two
classical kinds (instant-of-time and interval-of-time rewards) and an
activity-completion counter.

A reward variable observes the executor: it is notified of every marking
change and every activity completion, and produces a scalar value at the
end of a replication.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.san.marking import Marking

MarkingPredicate = Callable[[Marking], bool]
MarkingRate = Callable[[Marking], float]


class RewardVariable:
    """Base class: observers notified of every completion by the SAN executors."""

    name: str = "reward"

    def reset(self, marking: Marking, time: float) -> None:
        """Called at the start of a replication with the initial marking."""

    def on_marking_change(self, marking: Marking, time: float) -> None:
        """Called after every activity completion (marking already updated)."""

    def on_activity_completion(
        self, activity_name: str, marking: Marking, time: float
    ) -> None:
        """Called after an activity completes (before ``on_marking_change``)."""

    def finalize(self, marking: Marking, time: float) -> None:
        """Called when the replication ends (end time reached or model dead)."""

    def value(self) -> float:
        """The scalar value of this reward for the finished replication."""
        raise NotImplementedError


class FirstPassageTime(RewardVariable):
    """Time at which a marking predicate first becomes true.

    This is the paper's latency variable: the predicate is "some process has
    decided".  If the predicate never becomes true during the replication
    the value is ``nan`` (and :attr:`reached` is ``False``).
    """

    def __init__(self, predicate: MarkingPredicate, name: str = "first_passage") -> None:
        self.name = name
        self._predicate = predicate
        self._start = 0.0
        self._hit_time: Optional[float] = None

    @property
    def predicate(self) -> MarkingPredicate:
        """The watched predicate (read by the analytic solver)."""
        return self._predicate

    @property
    def reached(self) -> bool:
        """``True`` if the predicate became true during the replication."""
        return self._hit_time is not None

    def reset(self, marking: Marking, time: float) -> None:
        self._start = time
        self._hit_time = None
        if self._predicate(marking):
            self._hit_time = time

    def on_marking_change(self, marking: Marking, time: float) -> None:
        if self._hit_time is None and self._predicate(marking):
            self._hit_time = time

    def value(self) -> float:
        if self._hit_time is None:
            return math.nan
        return self._hit_time - self._start


class InstantOfTime(RewardVariable):
    """The value of a marking function at a fixed instant.

    The executor evaluates the function at the first marking whose time is
    >= ``at_time`` (or at the final marking if the replication ends first).
    """

    def __init__(
        self, at_time: float, function: MarkingRate, name: str = "instant_of_time"
    ) -> None:
        self.name = name
        self.at_time = float(at_time)
        self._function = function
        self._value: Optional[float] = None
        self._last_marking: Optional[Marking] = None

    @property
    def function(self) -> MarkingRate:
        """The marking function (read by the analytic solver)."""
        return self._function

    def reset(self, marking: Marking, time: float) -> None:
        self._value = None
        self._last_marking = marking.copy()
        if time >= self.at_time:
            self._value = float(self._function(marking))

    def on_marking_change(self, marking: Marking, time: float) -> None:
        if self._value is None and time >= self.at_time:
            # The marking *before* this change was in force at ``at_time``.
            self._value = float(self._function(self._last_marking))
        self._last_marking = marking.copy()

    def finalize(self, marking: Marking, time: float) -> None:
        if self._value is None:
            self._value = float(self._function(marking))

    def value(self) -> float:
        return math.nan if self._value is None else self._value


class IntervalOfTime(RewardVariable):
    """Integral of a marking-dependent rate over the replication.

    With ``normalize=True`` the integral is divided by the elapsed time,
    yielding a time-average (e.g. the fraction of time a failure detector
    spends in the *suspect* state, which is how the FD quality-of-service is
    expressed as a reward).
    """

    def __init__(
        self,
        rate: MarkingRate,
        normalize: bool = False,
        name: str = "interval_of_time",
    ) -> None:
        self.name = name
        self._rate = rate
        self._normalize = normalize
        self._accumulated = 0.0
        self._start = 0.0
        self._last_time = 0.0
        self._last_rate = 0.0

    @property
    def rate(self) -> MarkingRate:
        """The integrated rate function (read by the analytic solver)."""
        return self._rate

    @property
    def normalize(self) -> bool:
        """``True`` if the integral is divided by the elapsed time."""
        return self._normalize

    def reset(self, marking: Marking, time: float) -> None:
        self._accumulated = 0.0
        self._start = time
        self._last_time = time
        self._last_rate = float(self._rate(marking))

    def on_marking_change(self, marking: Marking, time: float) -> None:
        self._accumulated += self._last_rate * (time - self._last_time)
        self._last_time = time
        self._last_rate = float(self._rate(marking))

    def finalize(self, marking: Marking, time: float) -> None:
        self._accumulated += self._last_rate * (time - self._last_time)
        self._last_time = time

    def value(self) -> float:
        if not self._normalize:
            return self._accumulated
        elapsed = self._last_time - self._start
        if elapsed <= 0:
            return 0.0
        return self._accumulated / elapsed


class ActivityCounter(RewardVariable):
    """Counts completions of a set of activities (impulse reward)."""

    def __init__(self, activity_names: set[str] | None = None, name: str = "completions") -> None:
        self.name = name
        self._activity_names = set(activity_names) if activity_names else None
        self._count = 0

    @property
    def activity_names(self) -> Optional[frozenset[str]]:
        """The counted activities (``None`` = all; read by the analytic solver)."""
        return frozenset(self._activity_names) if self._activity_names else None

    def reset(self, marking: Marking, time: float) -> None:
        self._count = 0

    def on_activity_completion(
        self, activity_name: str, marking: Marking, time: float
    ) -> None:
        if self._activity_names is None or activity_name in self._activity_names:
            self._count += 1

    def value(self) -> float:
        return float(self._count)
