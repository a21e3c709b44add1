"""A Neko-like process and protocol-layer framework.

The paper's algorithms were implemented in Java on top of the Neko
development framework (§2.5), in which a distributed algorithm is written
once as a stack of protocol layers and can then be run either on a real
network or in simulation.  This module provides the same abstraction for the
simulated cluster: a :class:`NekoProcess` hosts a stack of
:class:`ProtocolLayer` objects; messages travel *down* the stack when sent
and *up* the stack when delivered by the transport.

The consensus algorithm (:mod:`repro.consensus`) and the heartbeat failure
detector (:mod:`repro.failure_detectors.heartbeat`) are both written as
protocol layers, so they are oblivious to the fact that the "cluster" is
simulated -- mirroring Neko's simulation/execution duality.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.des.process import SimProcess
from repro.des.simulator import Simulator
from repro.cluster.host import Host
from repro.cluster.message import Message
from repro.cluster.transport import Transport


class ProtocolLayer(SimProcess):
    """One layer of a process's protocol stack.

    Subclasses override :meth:`on_send` (a message travelling down from the
    layer above) and :meth:`on_deliver` (a message travelling up from the
    layer below).  The default implementations forward unchanged, so a layer
    only has to intercept what it cares about.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.process: Optional["NekoProcess"] = None
        self._upper: Optional["ProtocolLayer"] = None
        self._lower: Optional["ProtocolLayer"] = None

    # ------------------------------------------------------------------
    # Wiring (done by NekoProcess)
    # ------------------------------------------------------------------
    def attach(
        self,
        process: "NekoProcess",
        upper: Optional["ProtocolLayer"],
        lower: Optional["ProtocolLayer"],
    ) -> None:
        """Attach this layer to its process and neighbours."""
        self.process = process
        self._upper = upper
        self._lower = lower

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Called once when the process starts; override to arm timers etc."""

    def stop(self) -> None:
        """Called when the process shuts down; cancels this layer's timers."""
        self.cancel_all_timers()

    def close(self) -> None:
        """Cancel the timers and unlink from the process and neighbours.

        Called by :meth:`~repro.cluster.cluster.Cluster.close` once the run
        is over.  Layers that keep callbacks to other objects drop them
        here too.
        """
        self.cancel_all_timers()
        self.process = self._upper = self._lower = None

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send_down(self, message: Message) -> None:
        """Pass ``message`` to the layer below (or to the transport)."""
        if self.process is None:
            raise RuntimeError(f"layer {self.name!r} is not attached to a process")
        if self._lower is not None:
            self._lower.on_send(message)
        else:
            self.process.transport_send(message)

    def deliver_up(self, message: Message) -> None:
        """Pass ``message`` to the layer above (if any)."""
        if self._upper is not None:
            self._upper.on_deliver(message)

    def on_send(self, message: Message) -> None:
        """Handle a message travelling down; default: forward unchanged."""
        self.send_down(message)

    def on_deliver(self, message: Message) -> None:
        """Handle a message travelling up; default: forward unchanged."""
        self.deliver_up(message)

    # ------------------------------------------------------------------
    @property
    def process_id(self) -> int:
        """The id of the owning process."""
        if self.process is None:
            raise RuntimeError(f"layer {self.name!r} is not attached to a process")
        return self.process.process_id

    @property
    def n_processes(self) -> int:
        """Total number of processes in the cluster."""
        if self.process is None:
            raise RuntimeError(f"layer {self.name!r} is not attached to a process")
        return self.process.n_processes


class NekoProcess(SimProcess):
    """A process of the distributed algorithm, running on one host.

    Parameters
    ----------
    sim:
        The owning simulator.
    process_id:
        The process id (0-based; process *i* runs on host *i*).
    host:
        The host this process runs on.
    transport:
        The cluster transport.
    layers:
        Protocol layers ordered **top to bottom** (application first).
    n_processes:
        Total number of processes in the cluster.
    """

    def __init__(
        self,
        sim: Simulator,
        process_id: int,
        host: Host,
        transport: Transport,
        layers: Sequence[ProtocolLayer],
        n_processes: int,
    ) -> None:
        super().__init__(sim, f"process{process_id}")
        if not layers:
            raise ValueError("a NekoProcess needs at least one protocol layer")
        self.process_id = process_id
        self.host = host
        self.transport = transport
        self.n_processes = n_processes
        self.layers: List[ProtocolLayer] = list(layers)
        self._started = False
        self._wire_layers()
        transport.register_receiver(process_id, self._receive_from_transport)

    # ------------------------------------------------------------------
    def _wire_layers(self) -> None:
        for index, layer in enumerate(self.layers):
            upper = self.layers[index - 1] if index > 0 else None
            lower = self.layers[index + 1] if index < len(self.layers) - 1 else None
            layer.attach(self, upper, lower)

    # ------------------------------------------------------------------
    @property
    def top_layer(self) -> ProtocolLayer:
        """The application layer (top of the stack)."""
        return self.layers[0]

    @property
    def bottom_layer(self) -> ProtocolLayer:
        """The lowest layer (closest to the transport)."""
        return self.layers[-1]

    @property
    def crashed(self) -> bool:
        """``True`` if the underlying host has crashed."""
        return self.host.crashed

    def layer(self, layer_type: type) -> ProtocolLayer:
        """The first layer of the given type (raises if absent)."""
        for candidate in self.layers:
            if isinstance(candidate, layer_type):
                return candidate
        raise KeyError(f"process {self.process_id} has no layer of type {layer_type!r}")

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every layer (bottom-up).  Crashed processes do not start."""
        if self._started:
            return
        self._started = True
        if self.crashed:
            return
        for layer in reversed(self.layers):
            layer.start()

    def stop(self) -> None:
        """Stop every layer (top-down)."""
        for layer in self.layers:
            layer.stop()
        self._started = False

    def crash(self) -> None:
        """Crash the process (and its host).

        Layers are stopped, not just stripped of their named timers:
        ``stop()`` also clears layer-internal running flags, so a callback
        scheduled directly on the simulator before the crash (e.g. a
        heartbeat emission sleeping in the OS scheduler) finds its layer
        stopped and does not resume a second loop after a quick recovery.
        """
        self.host.crash()
        for layer in self.layers:
            layer.stop()

    def recover(self) -> None:
        """Recover a crashed process: restart its layers (crash-recovery).

        The layers lost all timers at crash time, so restarting them
        bottom-up re-arms heartbeats and other periodic behaviour; the
        transport delivers messages to this process again as soon as the
        host is up.
        """
        if not self.host.crashed:
            return
        self.host.recover()
        if self._started:
            for layer in reversed(self.layers):
                layer.start()

    # ------------------------------------------------------------------
    def transport_send(self, message: Message) -> None:
        """Hand a message to the cluster transport (called by the bottom layer)."""
        if self.crashed:
            return
        self.transport.send(message)

    def _receive_from_transport(self, message: Message) -> None:
        if self.crashed:
            return
        self.bottom_layer.on_deliver(message)

    # ------------------------------------------------------------------
    def local_time(self) -> float:
        """Current local clock reading of this process's host."""
        return self.host.local_time()

    def __repr__(self) -> str:
        state = "crashed" if self.crashed else ("started" if self._started else "idle")
        return f"NekoProcess(id={self.process_id}, {state}, layers={len(self.layers)})"
