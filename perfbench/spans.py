"""In-memory span recorder for the traced benchmark run.

Spans are recorded only in the benchmark's own code, around its calls into
the program's layers.  Each span has a name, a start, an end, the span that
caused it (its parent) and a trace identifier shared by every span of one
operation.  Untraced runs use :data:`NO_TRACE`, whose spans cost one
context-manager entry and record nothing.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One recorded span (times from :func:`time.perf_counter`)."""

    name: str
    trace: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts; write them out with :meth:`to_json`."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trace: str = "") -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        if not trace and parent is not None:
            trace = self.spans[parent].trace
        index = len(self.spans)
        self.spans.append(Span(name, trace, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span.seconds for span in self.spans if span.name == name)

    def to_json(self) -> Dict[str, object]:
        return {
            "spans": [
                {
                    "name": span.name,
                    "trace": span.trace,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                }
                for span in self.spans
            ],
            "counts": dict(self.counts),
        }


class _NoTrace:
    """The tracer of untraced runs: records nothing."""

    enabled = False

    def span(self, name: str, trace: str = "") -> contextlib.nullcontext:
        return contextlib.nullcontext()

    def count(self, name: str, amount: float = 1) -> None:
        return None


NO_TRACE = _NoTrace()
