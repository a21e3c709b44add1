"""The Chandra-Toueg ◇S consensus algorithm.

This package implements the consensus algorithm the paper analyzes (§2.1):
the rotating-coordinator algorithm of Chandra and Toueg for the asynchronous
model augmented with a ◇S failure detector, requiring a majority of correct
processes.  The algorithm is written as a protocol layer for the Neko-like
stack of :mod:`repro.cluster`, so the very same code runs in every
experiment class (no failures, initial crash, wrong suspicions).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.consensus.chandra_toueg import ChandraTouegConsensus, Decision
    from repro.consensus.messages import (
        ACK,
        DECIDE,
        ESTIMATE,
        NACK,
        PROPOSE,
        coordinator_of_round,
        majority_of,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.consensus.chandra_toueg": ("ChandraTouegConsensus", "Decision"),
    "repro.consensus.messages": (
        "ACK",
        "DECIDE",
        "ESTIMATE",
        "NACK",
        "PROPOSE",
        "coordinator_of_round",
        "majority_of",
    ),
})

__all__ = [
    "ACK",
    "ChandraTouegConsensus",
    "DECIDE",
    "Decision",
    "ESTIMATE",
    "NACK",
    "PROPOSE",
    "coordinator_of_round",
    "majority_of",
]
