"""Simulated PC-cluster testbed.

The paper's "measurement" half ran on a cluster of 12 PCs (Pentium III,
128 MB RAM, 100 Base-TX Ethernet hub, Linux 2.2, Java on the Neko
framework, TCP) -- hardware we do not have.  This package substitutes a
discrete-event *testbed simulator* that reproduces the performance-relevant
behaviour of that environment:

* **Hosts** with a CPU resource that every sent and received message must
  occupy (network controller + communication-layer processing, §3.3), a
  drifting clock synchronised NTP-style to within tens of microseconds
  (§4), and operating-system scheduling effects (the 10 ms Linux scheduling
  quantum the paper blames for the peak around T = 10 ms in Fig. 9a).
* A **shared Ethernet hub**: a single transmission resource used by one
  frame at a time, so concurrent senders queue -- the contention the paper
  insists real models must capture (§1, §3.3).
* A **TCP-like transport** providing reliable, ordered, connection-oriented
  unicast with per-message protocol-stack latency.
* A **Neko-like process/protocol-layer framework** on which the consensus
  algorithm and the heartbeat failure detector run unchanged
  (:mod:`repro.cluster.neko`).
* **Message tracing** to measure end-to-end delays (Figure 6) and consensus
  latencies (Figures 7, 9; Table 1).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cluster.cluster import Cluster
    from repro.cluster.config import ClusterConfig, NetworkParameters, SchedulerParameters
    from repro.cluster.clock import HostClock
    from repro.cluster.ethernet import EthernetHub
    from repro.cluster.host import Host
    from repro.cluster.message import BROADCAST, Message
    from repro.cluster.neko import NekoProcess, ProtocolLayer
    from repro.cluster.tracing import MessageTrace, TraceRecord
    from repro.cluster.transport import Transport

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cluster.cluster": ("Cluster",),
    "repro.cluster.config": ("ClusterConfig", "NetworkParameters", "SchedulerParameters"),
    "repro.cluster.clock": ("HostClock",),
    "repro.cluster.ethernet": ("EthernetHub",),
    "repro.cluster.host": ("Host",),
    "repro.cluster.message": ("BROADCAST", "Message"),
    "repro.cluster.neko": ("NekoProcess", "ProtocolLayer"),
    "repro.cluster.tracing": ("MessageTrace", "TraceRecord"),
    "repro.cluster.transport": ("Transport",),
})

__all__ = [
    "BROADCAST",
    "Cluster",
    "ClusterConfig",
    "EthernetHub",
    "Host",
    "HostClock",
    "Message",
    "MessageTrace",
    "NekoProcess",
    "NetworkParameters",
    "ProtocolLayer",
    "SchedulerParameters",
    "TraceRecord",
    "Transport",
]
