"""Phase timing and opt-in cProfile capture.

:func:`phase_timer` brackets one named phase of a run — trace parsing,
warm-up, measurement, aggregation — and records its wall-clock span
into a :class:`PhaseTimings` sink plus (when metrics are enabled) a
``*_phase_seconds`` histogram, so a 2× slowdown shows up attributed to
the phase that caused it instead of as a mystery total.

:func:`maybe_profile` wraps a block in :mod:`cProfile` when enabled
and dumps binary stats to a file (inspect with ``python -m pstats``);
when disabled it is a plain no-op ``yield``, cheap enough to leave in
per-cell worker code permanently.
"""

from __future__ import annotations

import cProfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, Optional, Union

from repro.observability.logs import get_logger
from repro.observability.metrics import get_registry

PathLike = Union[str, Path]

_logger = get_logger("profiling")


class PhaseTimings:
    """Accumulated wall-clock seconds per named phase."""

    __slots__ = ("_seconds",)

    def __init__(self):
        self._seconds: Dict[str, float] = {}

    def add(self, phase: str, seconds: float) -> None:
        self._seconds[phase] = self._seconds.get(phase, 0.0) + seconds

    def get(self, phase: str) -> float:
        return self._seconds.get(phase, 0.0)

    @property
    def total(self) -> float:
        return sum(self._seconds.values())

    def as_dict(self) -> Dict[str, float]:
        return dict(self._seconds)

    def __contains__(self, phase: str) -> bool:
        return phase in self._seconds

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:.4f}s"
                          for k, v in self._seconds.items())
        return f"PhaseTimings({inner})"


@contextmanager
def phase_timer(phase: str, timings: Optional[PhaseTimings] = None,
                metric: Optional[str] = None) -> Iterator[None]:
    """Time one phase into ``timings`` (and optionally a histogram).

    Args:
        phase: Phase name (``"warmup"``, ``"measurement"``, ...).
        timings: Sink for the elapsed seconds; optional.
        metric: Histogram name to observe into when metrics are
            enabled; labeled with ``phase=<phase>``.

    The timer costs two ``perf_counter`` calls per phase, so it is
    safe around hot loops (never *inside* them).
    """
    started = perf_counter()
    try:
        yield
    finally:
        elapsed = perf_counter() - started
        if timings is not None:
            timings.add(phase, elapsed)
        if metric is not None:
            registry = get_registry()
            if registry.enabled:
                registry.histogram(metric, phase=phase).observe(elapsed)


@contextmanager
def maybe_profile(path: Optional[PathLike],
                  enabled: bool = True) -> Iterator[None]:
    """cProfile the block and dump stats to ``path`` when enabled.

    A falsy ``path`` or ``enabled=False`` makes this a free no-op, so
    call sites need no branching.
    """
    if not enabled or path is None:
        yield
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.dump_stats(str(path))
        _logger.debug("profile written to %s", path)
