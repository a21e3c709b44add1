"""Failure detectors.

The consensus algorithm of the paper relies on unreliable failure detectors
of class ◇S (§2.1).  This package provides:

* :class:`~repro.failure_detectors.base.FailureDetectorLayer` -- the
  interface the consensus layer consumes (suspicion queries + listeners).
* :class:`~repro.failure_detectors.static.StaticFailureDetector` -- a
  complete and accurate detector suspecting exactly a fixed crash set; this
  is the detector implied by the paper's class-1 and class-2 runs (§2.4).
* :class:`~repro.failure_detectors.heartbeat.HeartbeatFailureDetector` --
  the push-style heartbeat detector of §2.2 (heartbeat period ``Th``,
  timeout ``T``), whose wrong suspicions drive the class-3 runs.
* :class:`~repro.failure_detectors.history.FailureDetectorHistory` -- the
  record of trust/suspect transitions from which QoS metrics are estimated.
* :mod:`~repro.failure_detectors.qos` -- the Chen-Toueg-Aguilera QoS metrics
  (detection time ``T_D``, mistake recurrence time ``T_MR``, mistake
  duration ``T_M``) estimated exactly as in §4 of the paper.
* :class:`~repro.failure_detectors.abstract.QoSDrivenFailureDetector` -- the
  abstract two-state detector driven by ``T_M``/``T_MR`` that the SAN model
  uses (§3.4), also usable directly on the simulated cluster.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.failure_detectors.abstract import QoSDrivenFailureDetector
    from repro.failure_detectors.base import FailureDetectorLayer, SuspicionListener
    from repro.failure_detectors.heartbeat import HeartbeatFailureDetector
    from repro.failure_detectors.history import FailureDetectorHistory, Transition
    from repro.failure_detectors.qos import PairQoS, QoSEstimate, estimate_qos
    from repro.failure_detectors.static import StaticFailureDetector

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.failure_detectors.abstract": ("QoSDrivenFailureDetector",),
    "repro.failure_detectors.base": ("FailureDetectorLayer", "SuspicionListener"),
    "repro.failure_detectors.heartbeat": ("HeartbeatFailureDetector",),
    "repro.failure_detectors.history": ("FailureDetectorHistory", "Transition"),
    "repro.failure_detectors.qos": ("PairQoS", "QoSEstimate", "estimate_qos"),
    "repro.failure_detectors.static": ("StaticFailureDetector",),
})

__all__ = [
    "FailureDetectorHistory",
    "FailureDetectorLayer",
    "HeartbeatFailureDetector",
    "PairQoS",
    "QoSDrivenFailureDetector",
    "QoSEstimate",
    "StaticFailureDetector",
    "SuspicionListener",
    "Transition",
    "estimate_qos",
]
