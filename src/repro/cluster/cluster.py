"""The simulated cluster: hosts, hub, transport and processes.

:class:`Cluster` is the facade used by experiments: it builds the simulator,
the hosts, the shared Ethernet hub and the transport from a
:class:`~repro.cluster.config.ClusterConfig`, creates
:class:`~repro.cluster.neko.NekoProcess` instances from protocol-layer
factories, and runs the simulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.des.simulator import Simulator
from repro.cluster.config import ClusterConfig
from repro.cluster.ethernet import EthernetHub
from repro.cluster.host import Host
from repro.cluster.neko import NekoProcess, ProtocolLayer
from repro.cluster.tracing import MessageTrace
from repro.cluster.transport import Transport
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultLoad

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.traces.events import TraceCollector

#: A layer factory receives ``(simulator, process_id)`` and returns the
#: protocol stack for that process, ordered top to bottom.
LayerStackFactory = Callable[[Simulator, int], Sequence[ProtocolLayer]]


class Cluster:
    """A complete simulated cluster.

    Parameters
    ----------
    config:
        The cluster configuration (process count, network parameters,
        scheduler parameters, seed).
    fault_load:
        Optional composable fault load (:mod:`repro.faults`).  When given,
        a :class:`~repro.faults.injector.FaultInjector` is threaded through
        the transport (loss, duplication, partitions, reordering spikes),
        the Ethernet hub (congestion spikes) and the hosts (CPU load
        bursts), and crash-recovery faults are scheduled on the simulator.
    collector:
        Optional :class:`~repro.traces.events.TraceCollector` receiving
        every transport send/deliver/drop event.  Purely observational
        (no randomness consumed), so attaching one never changes results.

    Examples
    --------
    >>> from repro.cluster import Cluster, ClusterConfig
    >>> cluster = Cluster(ClusterConfig(n_processes=3, seed=1))
    >>> len(cluster.hosts)
    3
    """

    def __init__(
        self,
        config: ClusterConfig,
        fault_load: Optional[FaultLoad] = None,
        collector: Optional["TraceCollector"] = None,
    ) -> None:
        self.config = config
        self.sim = Simulator(seed=config.seed)
        self.trace = MessageTrace()
        self.collector = collector
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(self.sim, fault_load) if fault_load else None
        )
        self.hosts: List[Host] = [
            Host(self.sim, index, config) for index in range(config.n_processes)
        ]
        self.hub = EthernetHub(
            self.sim,
            config.network,
            wire_time_hook=(
                self.fault_injector.medium_extra_delay if self.fault_injector else None
            ),
        )
        self.transport = Transport(
            self.sim, config, self.hosts, self.hub, trace=self.trace,
            injector=self.fault_injector, collector=collector,
        )
        self.processes: List[NekoProcess] = []
        if self.fault_injector is not None:
            for host in self.hosts:
                host.cpu_load = self.fault_injector.cpu_load_model(host.index)
            self.fault_injector.install(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def create_processes(self, stack_factory: LayerStackFactory) -> List[NekoProcess]:
        """Create one process per host using ``stack_factory``.

        The factory is called once per process id and must return the
        protocol layers top to bottom.
        """
        if self.processes:
            raise RuntimeError("processes have already been created for this cluster")
        for process_id in range(self.config.n_processes):
            layers = list(stack_factory(self.sim, process_id))
            process = NekoProcess(
                sim=self.sim,
                process_id=process_id,
                host=self.hosts[process_id],
                transport=self.transport,
                layers=layers,
                n_processes=self.config.n_processes,
            )
            self.processes.append(process)
        return list(self.processes)

    def crash_process(self, process_id: int) -> None:
        """Crash a process (and its host) immediately."""
        self.hosts[process_id].crash()
        if process_id < len(self.processes):
            self.processes[process_id].crash()

    def recover_process(self, process_id: int) -> None:
        """Recover a crashed process (crash-recovery fault loads)."""
        if process_id < len(self.processes):
            self.processes[process_id].recover()
        else:
            self.hosts[process_id].recover()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start_all(self) -> None:
        """Start every (non-crashed) process."""
        for process in self.processes:
            process.start()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the simulation; returns the final simulation time."""
        return self.sim.run(until=until, max_events=max_events)

    def close(self) -> None:
        """Release a finished run's objects, keeping its results readable.

        Processes, layers, the transport, the resource queues and the
        calendar refer to one another (a layer to its process and back, a
        pending event to the layer it calls back), so a finished cluster
        would otherwise stay in memory until the next full garbage
        collection, however soon its owner lets go.  Closing discards the
        pending events and waiting services and takes those links apart;
        the clock, the counters, the message trace and the fault log stay
        readable.  Nothing can run on a closed cluster.
        """
        for process in self.processes:
            for layer in process.layers:
                layer.close()
        self.transport.close()
        for host in self.hosts:
            host.cpu.close()
        self.hub.medium.close()
        self.sim.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_processes(self) -> int:
        """Number of processes in the cluster."""
        return self.config.n_processes

    def correct_processes(self) -> List[int]:
        """Ids of the processes that have not crashed."""
        return [host.index for host in self.hosts if not host.crashed]

    def process(self, process_id: int) -> NekoProcess:
        """The process with the given id."""
        return self.processes[process_id]

    def __repr__(self) -> str:
        return (
            f"Cluster(n={self.config.n_processes}, "
            f"processes={len(self.processes)}, now={self.sim.now:.3f}ms)"
        )
