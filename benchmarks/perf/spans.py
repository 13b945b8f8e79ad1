"""In-memory spans recorded by the harness around its calls into a layer.

A span is ``(name, start, end, parent)``; ``parent`` is the index of
the enclosing span in the same recorder, or -1.  Spans stay in memory
during the run and are written out once, at exit.  Nothing in ``src/``
is instrumented: these are the benchmark's own brackets around public
calls (choosing-metrics, "Tracing").
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Dict, List


class SpanRecorder:
    enabled = True

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._open: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        if self._open.pop() != index:
            raise RuntimeError("spans must close innermost first")

    def add_leaf(self, name: str, start: float, end: float) -> None:
        """A completed childless span under the innermost open span —
        the per-op form the serving loops use (two clock reads and one
        call instead of a context manager per request)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(self._open[-1] if self._open else -1)

    def self_times(self) -> List[float]:
        """Each span's duration minus the part its children cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def self_time_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for name, own in zip(self.names, self.self_times()):
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def as_columns(self, workload: str) -> dict:
        """Column form for the span file (six-figure op spans would
        triple the file as rows)."""
        return {"workload": workload, "name": self.names,
                "start": self.starts, "end": self.ends,
                "parent": self.parents}


class _NoSpans:
    """Stands in for a :class:`SpanRecorder` when tracing is off."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null


NO_SPANS = _NoSpans()
