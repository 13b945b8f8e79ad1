"""The frozen calibration kernel and the speed-correction arithmetic.

The sandbox this ledger runs on flips between a fast and a slow state
for seconds at a time (the same pure-Python loop takes 15 ms or 36 ms).
Every timed pass is therefore bracketed by :func:`calib`, a fixed piece
of pure-Python work whose duration says how fast the host was *just
then*; ``speed = CALIB_REF_S / mean(before, after)`` rescales the pass
to what it would have cost on a host that runs the kernel in
``CALIB_REF_S``.  After this file is merged it is frozen: changing the
kernel or the constant re-bases every number in the trajectory.

The kernel has two halves because the workloads do: an interpreter-bound
half (int arithmetic and a 256-slot dict) and a cache-sensitive half (a
``dict.get``/store sweep over URL-like strings, the access pattern of
every residency map in ``repro.core``).  The key set is built here from
a fixed generator, not taken from the workload's trace, so the kernel
does identical work for every ``--seed``.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter
from typing import List, NamedTuple, Sequence

#: Seconds one :func:`calib` call takes on the reference host state
#: (the sandbox's fast state).  A constant, not a measurement: it only
#: fixes the unit corrected times are expressed in.
CALIB_REF_S = 0.030

#: Bracketing calibrations that disagree by more than this share mean
#: the host changed speed mid-pass; the pass is dropped.
MAX_BRACKET_DISAGREEMENT = 0.15

_ARITH_ITERATIONS = 190_000
_KEY_COUNT = 24_000
_KEY_SWEEPS = 7


def _make_keys() -> List[str]:
    kinds = ("img", "html", "app", "mm", "other")
    state = 12345
    keys = []
    for _ in range(_KEY_COUNT):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        keys.append(f"{kinds[state % 5]}/{state >> 8}")
    return keys


_KEYS = _make_keys()


def calib() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    started = perf_counter()
    acc = 0
    slots = {}
    for i in range(_ARITH_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFF
        slots[acc & 255] = i
    for _ in range(_KEY_SWEEPS):
        table = {}
        get = table.get
        for key in _KEYS:
            table[key] = (get(key) or 0) + 1
    return perf_counter() - started


def pin_to_one_cpu() -> None:
    """Confine this process, and every thread it starts, to one CPU.

    The kernel is single-threaded and cannot see contention between a
    workload's own threads: on two busy vCPUs the closed-loop socket
    workloads (client thread, server thread, strictly alternating)
    were 3x slower in passes where a neighbour held the other core,
    while ``calib`` read the same.  Sharing one core, the pair behaves
    like one thread — a neighbour slows it and the kernel alike — and
    the socket numbers read the CPU cost of a round trip, not the
    cross-core wake-up latency of a noisy VM.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class TimedPass(NamedTuple):
    """One pass with its bracketing calibrations (all in seconds)."""

    calib_before: float
    work: float
    calib_after: float


def bracket_disagreement(p: TimedPass) -> float:
    low, high = sorted((p.calib_before, p.calib_after))
    return high / low - 1.0


def speed_of(p: TimedPass) -> float:
    """>1 when the host was faster than the reference during ``p``."""
    return CALIB_REF_S / ((p.calib_before + p.calib_after) / 2.0)


class Corrected(NamedTuple):
    """Speed-corrected summary of one workload's passes."""

    median_s: float            # median corrected pass time
    raw_median_s: float        # median uncorrected pass time
    speeds: List[float]        # per kept pass
    kept: List[int]            # indices of the passes that were kept
    discarded_share: float


def correct_passes(passes: Sequence[TimedPass]) -> Corrected:
    """Median of speed-corrected pass times.

    A pass is discarded only when its two calibrations disagree by
    more than :data:`MAX_BRACKET_DISAGREEMENT` — never on its own
    duration, which is the quantity being measured.  If every pass was
    discarded the host never held still; all are kept so the run still
    reports (``discarded_share`` says 1.0).
    """
    if not passes:
        raise ValueError("no passes to correct")
    kept = [i for i, p in enumerate(passes)
            if bracket_disagreement(p) <= MAX_BRACKET_DISAGREEMENT]
    discarded_share = 1.0 - len(kept) / len(passes)
    if not kept:
        kept = list(range(len(passes)))
    speeds = [speed_of(passes[i]) for i in kept]
    corrected = [passes[i].work * s for i, s in zip(kept, speeds)]
    return Corrected(
        median_s=statistics.median(corrected),
        raw_median_s=statistics.median(p.work for p in passes),
        speeds=speeds, kept=kept, discarded_share=discarded_share)


def relative_iqr(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the spread figure the ledger quotes."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
