"""Run manifests: one ``manifest.json`` per suite/sweep invocation.

A manifest answers "what produced these results?" without rerunning
anything: the settings and their hash, the package version, the host,
and the run's wall-clock span and final status.  It is written twice —
once at start (``status="running"``, so even a SIGKILL'd run leaves
evidence) and once at :meth:`TelemetryRun.finalize`.

:class:`TelemetryRun` bundles the manifest with an
:class:`~repro.observability.events.EventLog` in one directory and
(optionally) installs that log as the process-wide event sink so every
instrumented layer — sweep scheduler, retry helpers, trace reader —
lands in the same ``events.jsonl``.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.observability.events import EventLog, set_event_sink
from repro.observability.logs import get_logger
from repro.resilience.atomic import atomic_write
from repro.resilience.checkpoint import config_hash

PathLike = Union[str, Path]

MANIFEST_VERSION = 1
MANIFEST_FILENAME = "manifest.json"
EVENTS_FILENAME = "events.jsonl"

#: Keys every valid manifest carries.
MANIFEST_REQUIRED_KEYS = frozenset(
    ("version", "run_id", "kind", "created_at", "settings",
     "config_hash", "package_version", "host", "status"))

_logger = get_logger("observability")


def host_info() -> dict:
    """Where this run executed (best effort, never raises)."""
    try:
        hostname = socket.gethostname()
    except OSError:  # pragma: no cover - exotic hosts
        hostname = "unknown"
    return {
        "hostname": hostname,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count() or 1,
        "pid": os.getpid(),
    }


def _package_version() -> str:
    from repro import __version__
    return __version__


@dataclass
class RunManifest:
    """The serializable record of one telemetry-enabled run."""

    run_id: str
    kind: str
    created_at: str
    settings: dict
    config_hash: str
    package_version: str
    host: dict = field(default_factory=host_info)
    status: str = "running"
    wall_clock_seconds: Optional[float] = None
    finished_at: Optional[str] = None

    @classmethod
    def create(cls, kind: str, settings: Optional[dict] = None
               ) -> "RunManifest":
        settings = settings or {}
        return cls(
            run_id=uuid.uuid4().hex[:12],
            kind=kind,
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            settings=settings,
            config_hash=config_hash(settings),
            package_version=_package_version(),
        )

    def as_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "run_id": self.run_id,
            "kind": self.kind,
            "created_at": self.created_at,
            "settings": self.settings,
            "config_hash": self.config_hash,
            "package_version": self.package_version,
            "host": self.host,
            "status": self.status,
            "wall_clock_seconds": self.wall_clock_seconds,
            "finished_at": self.finished_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        return cls(
            run_id=data["run_id"],
            kind=data["kind"],
            created_at=data["created_at"],
            settings=data.get("settings", {}),
            config_hash=data["config_hash"],
            package_version=data["package_version"],
            host=data.get("host", {}),
            status=data.get("status", "unknown"),
            wall_clock_seconds=data.get("wall_clock_seconds"),
            finished_at=data.get("finished_at"),
        )

    def write(self, path: PathLike) -> Path:
        """Atomic write (temp file + rename), like the checkpoints."""
        target = Path(path)
        # Not durable: a manifest describes a run, it does not hold
        # results, and it is rewritten when the run finishes.
        atomic_write(target, json.dumps(self.as_dict(), indent=2),
                     durable=False)
        return target

    @classmethod
    def load(cls, path: PathLike) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))


class TelemetryRun:
    """A telemetry directory: ``manifest.json`` + ``events.jsonl``.

    Args:
        directory: Created if missing.  Reusing a directory appends to
            its ``events.jsonl`` and overwrites its manifest.
        kind: ``"suite"``, ``"sweep"``, or any caller-defined label.
        settings: JSON-serializable knobs that produced the run; hashed
            into ``config_hash``.
        install_sink: When True (default) the run's event log becomes
            the process-wide sink for the duration of the run, so
            nested layers (sweep scheduler, trace reader, retries)
            emit into it without any plumbing.
    """

    def __init__(self, directory: PathLike, kind: str,
                 settings: Optional[dict] = None,
                 install_sink: bool = True):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.manifest = RunManifest.create(kind, settings)
        self.manifest_path = self.directory / MANIFEST_FILENAME
        self.manifest.write(self.manifest_path)
        self.events = EventLog(self.directory / EVENTS_FILENAME)
        self._started = time.monotonic()
        self._previous_sink = (set_event_sink(self.events)
                               if install_sink else None)
        self._installed = install_sink
        self._finalized = False
        self.events.emit("run_started", kind=kind,
                         run_id=self.manifest.run_id)
        _logger.info("telemetry run %s (%s) -> %s",
                     self.manifest.run_id, kind, self.directory)

    def finalize(self, status: str = "complete") -> RunManifest:
        """Stamp the final status and wall clock; close the event log.

        Idempotent: only the first call wins.
        """
        if self._finalized:
            return self.manifest
        self._finalized = True
        self.manifest.status = status
        self.manifest.wall_clock_seconds = round(
            time.monotonic() - self._started, 6)
        self.manifest.finished_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self.events.emit(
            "run_finished", kind=self.manifest.kind,
            run_id=self.manifest.run_id, status=status,
            wall_clock_seconds=self.manifest.wall_clock_seconds)
        self.manifest.write(self.manifest_path)
        if self._installed:
            set_event_sink(self._previous_sink)
            self._installed = False
        self.events.close()
        _logger.info("telemetry run %s finalized: %s in %.2fs",
                     self.manifest.run_id, status,
                     self.manifest.wall_clock_seconds)
        return self.manifest

    def __enter__(self) -> "TelemetryRun":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finalize("failed" if exc_type is not None else "complete")
