"""Discrete-event simulation kernel.

This package provides the low-level machinery shared by every simulator in
the repository:

* :class:`~repro.des.simulator.Simulator` -- the event loop, simulation
  clock and scheduling primitives.
* :class:`~repro.des.event.Event` -- a scheduled callback with cancellation
  support and deterministic tie-breaking.
* :class:`~repro.des.resource.Resource` -- a FIFO server with a fixed
  capacity, used to model CPUs and the shared network medium.
* :class:`~repro.des.random.RandomStreams` -- named, reproducible random
  number streams derived from a single master seed.
* :class:`~repro.des.process.SimProcess` -- a small convenience base class
  for entities that live inside a simulation.

The kernel is deliberately callback based rather than coroutine based: both
the SAN executor (:mod:`repro.san`) and the cluster testbed simulator
(:mod:`repro.cluster`) are specified naturally as state machines reacting to
events, and callbacks keep the kernel easy to test and reason about.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.des.event import Event, EventState
    from repro.des.process import SimProcess
    from repro.des.random import RandomStreams
    from repro.des.resource import Request, Resource, ResourceStats
    from repro.des.simulator import Simulator, SimulationError

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.des.event": ("Event", "EventState"),
    "repro.des.process": ("SimProcess",),
    "repro.des.random": ("RandomStreams",),
    "repro.des.resource": ("Request", "Resource", "ResourceStats"),
    "repro.des.simulator": ("Simulator", "SimulationError"),
})

__all__ = [
    "Event",
    "EventState",
    "Request",
    "Resource",
    "ResourceStats",
    "RandomStreams",
    "SimProcess",
    "SimulationError",
    "Simulator",
]
