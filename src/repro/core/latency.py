"""Latency recording.

The paper's performance measure is the consensus latency: all processes
propose at the same time ``t0`` and ``t1`` is the time at which the *first*
process decides; the latency is ``t1 - t0`` (§2.3).  The measurements read
the hosts' local (NTP-synchronised) clocks, so the measured latency includes
a small clock-synchronisation error -- the recorder reproduces that by
keeping both the local-clock and the global (simulator) timestamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.stats.cdf import EmpiricalCDF
from repro.stats.descriptive import SampleSummary, summarize


@dataclass
class _DecisionRecord:
    process_id: int
    local_time: float
    global_time: float
    value: object


@dataclass
class InstanceLatency:
    """Latency of one consensus execution (one instance)."""

    instance: int
    start_nominal: float
    first_decision_local: Optional[float] = None
    first_decision_global: Optional[float] = None
    first_decider: Optional[int] = None
    deciders: int = 0

    @property
    def decided(self) -> bool:
        """``True`` if at least one process decided this instance."""
        return self.first_decision_local is not None

    @property
    def latency(self) -> float:
        """Measured latency (local clock of the first decider minus t0)."""
        if self.first_decision_local is None:
            return math.nan
        return self.first_decision_local - self.start_nominal

    @property
    def latency_global(self) -> float:
        """Latency measured on the global simulation clock (no clock error)."""
        if self.first_decision_global is None:
            return math.nan
        return self.first_decision_global - self.start_nominal


class LatencyRecorder:
    """Collects decisions from every process and derives per-instance latencies.

    Use :meth:`register_start` when an instance is scheduled (with its
    nominal start time ``t0``) and :meth:`decision_callback` as the decision
    callback of every process's consensus layer.
    """

    def __init__(self) -> None:
        self._instances: Dict[int, InstanceLatency] = {}
        self._decisions: Dict[int, List[_DecisionRecord]] = {}

    # ------------------------------------------------------------------
    def register_start(self, instance: int, start_nominal: float) -> None:
        """Declare that ``instance`` starts (nominally) at ``start_nominal``."""
        if instance not in self._instances:
            self._instances[instance] = InstanceLatency(
                instance=instance, start_nominal=start_nominal
            )
        else:
            self._instances[instance].start_nominal = start_nominal

    def decision_callback(
        self,
        process_id: int,
        instance: int,
        value: object,
        local_time: float,
        global_time: float,
    ) -> None:
        """Record one process's decision (signature matches the consensus layer)."""
        record = _DecisionRecord(
            process_id=process_id,
            local_time=local_time,
            global_time=global_time,
            value=value,
        )
        self._decisions.setdefault(instance, []).append(record)
        entry = self._instances.get(instance)
        if entry is None:
            entry = InstanceLatency(instance=instance, start_nominal=0.0)
            self._instances[instance] = entry
        entry.deciders += 1
        if (
            entry.first_decision_local is None
            or local_time < entry.first_decision_local
        ):
            entry.first_decision_local = local_time
            entry.first_decision_global = global_time
            entry.first_decider = process_id

    # ------------------------------------------------------------------
    @property
    def instances(self) -> List[InstanceLatency]:
        """Per-instance latency records, ordered by instance number."""
        return [self._instances[key] for key in sorted(self._instances)]

    def decisions(self, instance: int) -> List[_DecisionRecord]:
        """All decision records of one instance."""
        return list(self._decisions.get(instance, []))

    def decided_instances(self) -> List[InstanceLatency]:
        """Only the instances for which at least one process decided."""
        return [entry for entry in self.instances if entry.decided]

    def undecided_instances(self) -> List[int]:
        """Instance numbers that never reached a decision."""
        return [entry.instance for entry in self.instances if not entry.decided]

    # ------------------------------------------------------------------
    def latencies(self, use_local_clock: bool = True) -> List[float]:
        """The list of per-instance latencies (decided instances only)."""
        if use_local_clock:
            return [entry.latency for entry in self.decided_instances()]
        return [entry.latency_global for entry in self.decided_instances()]

    def cdf(self, use_local_clock: bool = True) -> EmpiricalCDF:
        """Empirical CDF of the latencies."""
        return EmpiricalCDF(self.latencies(use_local_clock))

    def summary(
        self, confidence: float = 0.90, use_local_clock: bool = True
    ) -> SampleSummary:
        """Summary statistics of the latencies."""
        return summarize(self.latencies(use_local_clock), confidence)

    def check_agreement(self) -> bool:
        """Verify the consensus *agreement* property on every instance.

        Returns ``True`` if, for every instance, all deciding processes
        decided the same value.  (Used by integration tests: a violation
        would indicate a bug in the algorithm implementation.)
        """
        for records in self._decisions.values():
            values = {repr(record.value) for record in records}
            if len(values) > 1:
                return False
        return True
