"""Pieces shared by the workloads: failure accounting, timed rounds, digests."""

from __future__ import annotations

import copy
import hashlib
import heapq
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Seed whose output digests are stored in ``reference.json``.
REFERENCE_SEED = 0

#: Wall-clock fields of a run manifest and of its per-point timings.
MANIFEST_WALL_CLOCK = ("wall_clock_seconds", "started_at")
POINT_WALL_CLOCK = ("seconds",)
#: Wall-clock fields of each model record in the ``solvercompare`` artifact.
SOLVERCOMPARE_WALL_CLOCK = (
    "analytic_seconds",
    "simulative_seconds",
    "batched_seconds",
    "speedup",
    "batched_speedup",
)


@dataclass
class Tally:
    """Attempted and failed operations, plus the output checks that failed.

    An operation fails if it raises or if its output fails a check; either
    way the run goes on.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def run(self, ops: int, label: str, call: Callable[[], Any]) -> Optional[Any]:
        """Run a unit of ``ops`` operations; ``None`` (and counted failed) if it raises."""
        self.attempted += ops
        try:
            return call()
        except Exception:
            self.failed += ops
            print(f"[perfbench] {label} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, ok: bool, message: str, ops: int = 0) -> bool:
        """Record a failed output check; ``ops`` operations count as failed."""
        if not ok:
            self.failed += ops
            self.problems.append(message)
            print(f"[perfbench] check failed: {message}", file=sys.stderr)
        return ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


#: Seconds :func:`calibration_chunk` takes on the reference machine (one
#: 2-CPU x86-64 VM core running CPython 3.11).  Timings are expressed at
#: this speed; the constant cancels out of any comparison.
CALIBRATION_REFERENCE_S = 0.0035


def _calibration_kernel(steps: int = 4_000) -> float:
    """Fixed pure-Python work of the simulators' kind: a heap, a dict, floats."""
    heap: List[Tuple[float, int]] = []
    table: Dict[int, int] = {}
    total = 0.0
    for i in range(steps):
        heapq.heappush(heap, ((i * 7_919) % 1_000 / 7.0, i))
        table[i & 255] = table.get(i & 255, 0) + 1
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    return total


def calibration_chunk() -> float:
    """Seconds one run of the calibration kernel takes right now."""
    started = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - started


@dataclass
class Round:
    """One timed round: per leg ``[operations completed, seconds spent]``.

    ``chunks`` holds, per leg, calibration chunks timed between that leg's
    operations (off the legs' clocks).  On a shared VM, core speed drifts
    by tens of percent within a minute; scaling a leg's rate by its
    chunks' mean over :data:`CALIBRATION_REFERENCE_S` cancels most of it.
    """

    legs: Dict[str, List[float]] = field(
        default_factory=lambda: {"cold": [0, 0.0], "warm": [0, 0.0]}
    )
    chunks: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))

    def calibrate(self, leg: str) -> None:
        self.chunks[leg].append(calibration_chunk())

    def add(self, leg: str, ops: int, seconds: float) -> None:
        self.legs[leg][0] += ops
        self.legs[leg][1] += seconds

    def slowdown(self, leg: str) -> float:
        """A leg's chunk time over its reference (above 1: machine slower)."""
        return statistics.mean(self.chunks[leg]) / CALIBRATION_REFERENCE_S

    def rate(self, leg: str, calibrated: bool = True) -> float:
        ops, seconds = self.legs[leg]
        return ops / seconds * (self.slowdown(leg) if calibrated else 1.0)


def timed_rounds(round_fn: Callable[[], Round], seconds: float,
                 min_rounds: int = 3) -> List[Round]:
    """Call ``round_fn`` until ``seconds`` have passed and ``min_rounds`` ran."""
    rounds: List[Round] = []
    started = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - started < seconds:
        rounds.append(round_fn())
    return rounds


def median_rate(rounds: Iterable[Round], leg: str, calibrated: bool = True) -> float:
    """Median over rounds of a leg's operations per second."""
    return statistics.median(round_.rate(leg, calibrated) for round_ in rounds)


def digest(records: Any) -> str:
    """SHA-256 of the canonical JSON form of ``records`` (floats in full)."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def strip_wall_clock(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of an experiment artifact payload without its wall-clock fields.

    Removes the manifest's ``wall_clock_seconds`` and ``started_at``, every
    point's ``seconds``, and solvercompare's per-model timings and speedups.
    Everything else, results and provenance alike, is kept.
    """
    stripped = copy.deepcopy(payload)
    manifest = stripped["manifest"]
    for key in MANIFEST_WALL_CLOCK:
        del manifest[key]
    for point in manifest["points"]:
        for key in POINT_WALL_CLOCK:
            del point[key]
    if stripped["experiment"] == "solvercompare":
        for model in stripped["data"]["models"]:
            for key in SOLVERCOMPARE_WALL_CLOCK:
                del model[key]
    return stripped


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}
