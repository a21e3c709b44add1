"""Process-wide execution policy for the SAN simulative solver.

:meth:`SimulativeSolver.solve` runs every replication through the
lock-step :class:`~repro.san.batched.BatchedSANExecutor` and takes a
``batch_size`` argument (a count or ``"auto"``), but most call sites --
experiment specs, model comparison scripts, the CLI -- sit several layers
above the solver and should not have to thread executor knobs through
every signature.  This module provides the bridge: an
:class:`ExecutionPolicy` that can be *activated* for the process, and
:func:`resolve_batch_size`, which the solver consults whenever a call
site passes ``None``.

Resolution order (first hit wins):

1. the explicit argument of the ``solve()`` call,
2. the activated policy (transported via the ``REPRO_SAN_BATCH_SIZE``
   environment variable),
3. the default: ``"auto"`` batch sizing.

The environment is used as the store deliberately: worker processes of
pooled sweeps inherit it, so a policy activated in the parent governs
every replication wherever it runs.  The policy is **not** part of
result identity -- replication seeds and named streams do not depend on
it, and the batch size never changes results (every row is bit-identical
to the :class:`~repro.san.executor.SANExecutor` test oracle) -- so it is
excluded from experiment settings hashes and result-cache keys on
purpose: changing the batch size must hit the cache, not invalidate it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

__all__ = [
    "AUTO_BATCH_SIZE",
    "BATCH_SIZE_ENV",
    "ExecutionPolicy",
    "activate",
    "active_policy",
    "parse_batch_size",
    "resolve_batch_size",
    "resolve_strategy",
]

#: Environment variable naming the lock-step batch size for the process.
BATCH_SIZE_ENV = "REPRO_SAN_BATCH_SIZE"

#: Sentinel batch size selecting the compiled-model-size heuristic
#: (:func:`repro.san.solver.auto_batch_size`).
AUTO_BATCH_SIZE = "auto"

#: A resolved batch size: a positive replication count or ``"auto"``.
BatchSize = Union[int, str]


def parse_batch_size(value: BatchSize, source: str = "batch_size") -> BatchSize:
    """Validate a batch size: a positive ``int`` or the string ``"auto"``.

    String digits are accepted (and converted) so environment variables
    and CLI arguments share this single parser.
    """
    if isinstance(value, str):
        text = value.strip().lower()
        if text == AUTO_BATCH_SIZE:
            return AUTO_BATCH_SIZE
        try:
            value = int(text)
        except ValueError:
            raise ValueError(
                f"invalid {source} {text!r}: expected a positive integer "
                f"or {AUTO_BATCH_SIZE!r}"
            ) from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"invalid {source} {value!r}: expected a positive integer "
            f"or {AUTO_BATCH_SIZE!r}"
        )
    if value < 1:
        raise ValueError(f"{source} must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class ExecutionPolicy:
    """The batch size governing SAN solver calls.

    ``None`` defers to the next layer of the resolution order.
    """

    batch_size: Optional[BatchSize] = None

    def __post_init__(self) -> None:
        if self.batch_size is not None:
            object.__setattr__(
                self, "batch_size", parse_batch_size(self.batch_size)
            )


def activate(policy: ExecutionPolicy) -> None:
    """Install ``policy`` as the process default (and for child workers).

    A ``None`` batch size clears any previously activated value, so
    activating ``ExecutionPolicy()`` restores the built-in default.
    """
    if policy.batch_size is None:
        os.environ.pop(BATCH_SIZE_ENV, None)
    else:
        os.environ[BATCH_SIZE_ENV] = str(policy.batch_size)


def active_policy() -> ExecutionPolicy:
    """The currently activated policy (``batch_size`` ``None`` when unset)."""
    batch_size: Optional[BatchSize] = os.environ.get(BATCH_SIZE_ENV)
    if batch_size is not None:
        batch_size = parse_batch_size(batch_size, source=BATCH_SIZE_ENV)
    return ExecutionPolicy(batch_size=batch_size)


def resolve_strategy() -> str:
    """The executor every solver call uses: always ``"batched"``.

    Kept for callers that report the executor next to the batch size.
    """
    return "batched"


def resolve_batch_size(explicit: Optional[BatchSize] = None) -> BatchSize:
    """The batch size a solver call should use.

    Explicit argument beats the activated policy beats ``"auto"`` (the
    compiled-model-size heuristic).
    """
    if explicit is not None:
        return parse_batch_size(explicit)
    policy = active_policy()
    if policy.batch_size is not None:
        return policy.batch_size
    return AUTO_BATCH_SIZE
