"""Deterministic fault injection for sweeps and chaos tests.

A :class:`FaultInjector` is a picklable, immutable plan: *which* work
unit fails, *how* (hard process crash, hang, transient exception, or a
corrupt result payload), and on *which attempt numbers*.  Decisions
are a pure function of ``(key, attempt)`` — no randomness, no shared
state — so an injected failure reproduces exactly across processes and
reruns, and a retried cell succeeds deterministically once its listed
attempts are spent.

The parallel sweep runner threads an injector into its workers; tests
use it to prove crash recovery and timeout handling end to end, and
chaos runs can use it against full experiment suites.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.errors import ConfigurationError, WorkerCrashError
from repro.observability.logs import get_logger

_logger = get_logger("resilience.faults")

#: Supported fault kinds.
FAULT_KINDS = ("crash", "hang", "raise", "corrupt")

#: Supported on-disk corruption modes for :func:`corrupt_file`.
FILE_CORRUPTION_MODES = ("truncate", "bitflip", "torn")

#: Marker planted in corrupted payloads (tests can assert on it).
CORRUPT_MARKER = "__fault_injected_corruption__"


class InjectedFaultError(WorkerCrashError):
    """A transient failure raised on purpose by the fault harness."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes:
        key: Work-unit key the fault targets (the sweep runner uses
            ``"<policy>@<capacity>"``).
        kind: ``"crash"`` kills the worker process outright (the
            parent sees its pipe close), ``"hang"`` sleeps past any
            sane cell timeout, ``"raise"`` raises a transient
            :class:`InjectedFaultError` (worker survives), and
            ``"corrupt"`` returns a mangled result payload.
        attempts: Attempt numbers (1-based) on which the fault fires;
            later attempts succeed, which is what lets retry tests
            converge.
        hang_seconds: Sleep length for ``"hang"`` faults.
    """

    key: str
    kind: str = "raise"
    attempts: Tuple[int, ...] = (1,)
    hang_seconds: float = 3600.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {', '.join(FAULT_KINDS)}")
        if any(a < 1 for a in self.attempts):
            raise ConfigurationError("attempt numbers are 1-based")

    def fires_on(self, key: str, attempt: int) -> bool:
        return key == self.key and attempt in self.attempts


@dataclass(frozen=True)
class FaultInjector:
    """An immutable set of planned faults, safe to ship to workers."""

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultInjector":
        return cls(specs=tuple(specs))

    @classmethod
    def crash_once(cls, key: str) -> "FaultInjector":
        """Worker dies on the key's first attempt, succeeds after."""
        return cls.of(FaultSpec(key=key, kind="crash"))

    @classmethod
    def hang_once(cls, key: str,
                  hang_seconds: float = 3600.0) -> "FaultInjector":
        return cls.of(FaultSpec(key=key, kind="hang",
                                hang_seconds=hang_seconds))

    @classmethod
    def raise_once(cls, key: str) -> "FaultInjector":
        return cls.of(FaultSpec(key=key, kind="raise"))

    @classmethod
    def corrupt_once(cls, key: str) -> "FaultInjector":
        return cls.of(FaultSpec(key=key, kind="corrupt"))

    def find(self, key: str, attempt: int) -> Optional[FaultSpec]:
        for spec in self.specs:
            if spec.fires_on(key, attempt):
                return spec
        return None

    def on_start(self, key: str, attempt: int) -> None:
        """Fire any pre-execution fault for this (key, attempt).

        Called inside the worker before the real work runs.  ``crash``
        exits the process without cleanup (indistinguishable from an
        OOM kill or segfault from the parent's point of view);
        ``hang`` blocks; ``raise`` raises.
        """
        spec = self.find(key, attempt)
        if spec is None:
            return
        _logger.warning("injected %s fault firing on %s attempt %d",
                        spec.kind, key, attempt,
                        extra={"kind": spec.kind, "key": key,
                               "attempt": attempt})
        if spec.kind == "crash":
            os._exit(113)
        elif spec.kind == "hang":
            time.sleep(spec.hang_seconds)
        elif spec.kind == "raise":
            raise InjectedFaultError(
                f"injected transient fault on {key!r} attempt {attempt}")

    def on_result(self, key: str, attempt: int, payload: dict) -> dict:
        """Apply any post-execution (``corrupt``) fault to a payload."""
        spec = self.find(key, attempt)
        if spec is not None and spec.kind == "corrupt":
            return {CORRUPT_MARKER: True, "key": key, "attempt": attempt}
        return payload


def corrupt_file(path: Union[str, Path], mode: str = "truncate",
                 seed: int = 0) -> None:
    """Deterministically damage a file on disk, simulating the three
    crash/medium failures a durable store must survive.

    Modes:
        ``"truncate"``: cut the file at a seeded offset in its second
            half — an interrupted write that lost the tail.
        ``"bitflip"``: flip one bit at each of a few seeded offsets —
            silent media corruption a CRC must catch.
        ``"torn"``: keep only a prefix of the final line — the torn
            append a SIGKILL'd (or power-lost) writer leaves behind.

    Decisions are a pure function of ``seed`` and the file size, so
    chaos tests reproduce exactly.
    """
    if mode not in FILE_CORRUPTION_MODES:
        raise ConfigurationError(
            f"unknown corruption mode {mode!r}; "
            f"known: {', '.join(FILE_CORRUPTION_MODES)}")
    path = Path(path)
    data = path.read_bytes()
    if not data:
        return
    rng = random.Random(seed)
    if mode == "truncate":
        cut = rng.randrange(len(data) // 2, len(data)) or 1
        damaged = data[:cut]
    elif mode == "bitflip":
        damaged = bytearray(data)
        for _ in range(max(1, min(4, len(data)))):
            offset = rng.randrange(len(damaged))
            damaged[offset] ^= 1 << rng.randrange(8)
        damaged = bytes(damaged)
    else:  # torn: last line loses its tail (and its newline)
        head, _, last = data.rstrip(b"\n").rpartition(b"\n")
        keep = rng.randrange(1, len(last)) if len(last) > 1 else 1
        damaged = (head + b"\n" if head else b"") + last[:keep]
    path.write_bytes(damaged)
    _logger.warning("injected %s corruption into %s", mode, path.name,
                    extra={"mode": mode, "path": str(path)})
