"""Hosts of the simulated cluster.

A host bundles the per-machine resources the paper's network model
identifies (§3.3): one CPU resource used by every sent and received message,
a local clock, and operating-system scheduling behaviour affecting timers
(the heartbeat failure detector's sender and timeout threads).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.des.resource import Resource
from repro.des.simulator import Simulator
from repro.cluster.clock import HostClock
from repro.cluster.config import ClusterConfig, SchedulerParameters


class OSScheduler:
    """Timer behaviour of the host operating system.

    The Linux 2.2 kernel of the paper's cluster schedules threads with a
    10 ms basic time unit (§5.4).  A thread sleeping for ``d`` milliseconds
    therefore wakes up after ``d`` rounded up to the timer granularity, plus
    a small dispatch latency, plus -- occasionally, when another thread is
    running -- a further delay of a fraction of the quantum.  This is the
    mechanism behind both the wrong suspicions at small timeouts and the
    measurement artefact around T = 10 ms (Fig. 9a).
    """

    def __init__(self, params: SchedulerParameters, rng: np.random.Generator) -> None:
        self.params = params
        self._rng = rng

    def effective_sleep(self, requested_ms: float) -> float:
        """The actual duration of a nominal sleep of ``requested_ms``."""
        params = self.params
        granularity = params.timer_granularity_ms
        if granularity > 0:
            ticks = np.ceil(requested_ms / granularity)
            base = float(ticks) * granularity
        else:
            base = requested_ms
        jitter = float(self._rng.exponential(params.wakeup_jitter_ms))
        extra = 0.0
        if self._rng.random() < params.preemption_probability:
            extra = float(
                self._rng.uniform(0.0, params.preemption_max_fraction * params.quantum_ms)
            )
        return base + jitter + extra


class Host:
    """One machine of the cluster.

    Parameters
    ----------
    sim:
        The owning simulator.
    index:
        Host index (the process with the same index runs on this host).
    config:
        The cluster configuration.
    """

    def __init__(self, sim: Simulator, index: int, config: ClusterConfig) -> None:
        self.sim = sim
        self.index = index
        self.config = config
        self.name = f"host{index}"
        self.cpu = Resource(sim, f"{self.name}.cpu", capacity=1)
        clock_rng = sim.random.stream(f"{self.name}.clock")
        self.clock = HostClock.synchronized(
            clock_rng,
            precision_ms=config.clock_sync_precision_ms,
            drift_ppm=config.clock_drift_ppm,
            resolution_ms=config.clock_resolution_ms,
        )
        self.scheduler = OSScheduler(
            config.scheduler, sim.random.stream(f"{self.name}.scheduler")
        )
        self.crashed = False
        #: Optional fault-injection hook ``now_ms -> multiplier`` scaling
        #: every CPU occupancy on this host (CPU load bursts).
        self.cpu_load: Optional[Callable[[float], float]] = None

    # ------------------------------------------------------------------
    def local_time(self) -> float:
        """Current local clock reading."""
        return self.clock.local_time(self.sim.now)

    def crash(self) -> None:
        """Crash the host: it stops processing and sending anything."""
        self.crashed = True

    def recover(self) -> None:
        """Recover a crashed host: it accepts and sends messages again."""
        self.crashed = False

    def use_cpu(
        self, duration: float, callback: Callable[..., None], *args: object
    ) -> None:
        """Occupy this host's CPU for ``duration`` ms, then call ``callback``."""
        if self.cpu_load is not None:
            duration *= float(self.cpu_load(self.sim.now))
        # Nobody receives the request, so the CPU queues it without one.
        self.cpu._serve(duration, callback, args)

    def sleep(
        self, requested_ms: float, callback: Callable[..., None], *args: object
    ) -> None:
        """Schedule ``callback`` after a nominal sleep subject to OS effects."""
        actual = self.scheduler.effective_sleep(requested_ms)
        # A sleep is never cancelled, so its calendar entry needs no handle.
        sim = self.sim
        sim._push(sim.now + actual, 0, callback, args)

    def __repr__(self) -> str:
        state = "crashed" if self.crashed else "up"
        return f"Host(index={self.index}, {state})"
