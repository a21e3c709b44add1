"""Trace intelligence: normalized event logs and their analyses.

The DES core and the cluster transport have always *produced* traces
(message deliveries, fault injections, failure-detector transitions);
this package is the layer that *consumes* them:

* :mod:`repro.traces.events` -- the normalized per-replication event
  model (send / receive / drop / crash / recover / timer) and the
  :class:`~repro.traces.events.TraceCollector` adapting the existing
  hook points into one :class:`~repro.traces.events.EventLog`;
* :mod:`repro.traces.hb` -- the happens-before DAG (program order +
  send->receive edges, vector clocks) and causal slices backward from a
  QoS violation;
* :mod:`repro.traces.cluster` -- featurization of replication outcomes
  and dependency-free density clustering (DBSCAN) surfacing distinct
  failure modes with a ranked exemplar per cluster;
* :mod:`repro.traces.diff` -- diffing an anomalous replication's event
  log against a nominal exemplar into a minimal ordered explanation.

Collection is strictly opt-in: with no collector attached the hot paths
are unchanged and rewards/latencies stay bit-identical.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.traces.events import (
        CRASH,
        DROP,
        RECEIVE,
        RECOVER,
        SEND,
        TIMER,
        EventLog,
        TraceCollector,
        TraceEvent,
    )
    from repro.traces.hb import HappensBeforeGraph, build_hb_graph
    from repro.traces.cluster import (
        ClusterInfo,
        ClusterResult,
        cluster_features,
        feature_matrix,
        featurize_measurement,
    )
    from repro.traces.diff import TraceDiff, diff_logs

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.traces.events": (
        "CRASH",
        "DROP",
        "RECEIVE",
        "RECOVER",
        "SEND",
        "TIMER",
        "EventLog",
        "TraceCollector",
        "TraceEvent",
    ),
    "repro.traces.hb": ("HappensBeforeGraph", "build_hb_graph"),
    "repro.traces.cluster": (
        "ClusterInfo",
        "ClusterResult",
        "cluster_features",
        "feature_matrix",
        "featurize_measurement",
    ),
    "repro.traces.diff": ("TraceDiff", "diff_logs"),
})

__all__ = [
    "CRASH",
    "DROP",
    "RECEIVE",
    "RECOVER",
    "SEND",
    "TIMER",
    "ClusterInfo",
    "ClusterResult",
    "EventLog",
    "HappensBeforeGraph",
    "TraceCollector",
    "TraceDiff",
    "TraceEvent",
    "build_hb_graph",
    "cluster_features",
    "diff_logs",
    "feature_matrix",
    "featurize_measurement",
]
