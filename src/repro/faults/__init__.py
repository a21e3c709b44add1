"""Composable fault-load models and their runtime injection.

See :mod:`repro.faults.spec` for the declarative fault vocabulary and
:mod:`repro.faults.injector` for the runtime hooks the cluster threads
through its transport, Ethernet hub and hosts.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.faults.injector import (
        CAUSE_LOSS,
        CAUSE_PARTITION,
        FaultEvent,
        FaultInjector,
        FaultStats,
        UnicastDecision,
    )
    from repro.faults.spec import (
        CpuLoadBurst,
        CrashRecovery,
        DelaySpike,
        FaultLoad,
        FaultSpec,
        MessageDuplication,
        MessageLoss,
        NetworkPartition,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faults.injector": (
        "CAUSE_LOSS",
        "CAUSE_PARTITION",
        "FaultEvent",
        "FaultInjector",
        "FaultStats",
        "UnicastDecision",
    ),
    "repro.faults.spec": (
        "CpuLoadBurst",
        "CrashRecovery",
        "DelaySpike",
        "FaultLoad",
        "FaultSpec",
        "MessageDuplication",
        "MessageLoss",
        "NetworkPartition",
    ),
})

__all__ = [
    "CAUSE_LOSS",
    "CAUSE_PARTITION",
    "CpuLoadBurst",
    "CrashRecovery",
    "DelaySpike",
    "FaultEvent",
    "FaultInjector",
    "FaultLoad",
    "FaultSpec",
    "FaultStats",
    "MessageDuplication",
    "MessageLoss",
    "NetworkPartition",
    "UnicastDecision",
]
