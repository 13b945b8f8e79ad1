"""Lease files: crash-safe exclusive claims on named work units.

A lease is a single JSON file created with ``O_CREAT | O_EXCL`` — the
filesystem arbitrates racing claimants, no server required, and the
mechanism works across processes and (on a shared filesystem) across
machines.  The holder renews the lease periodically; a holder that is
SIGKILL'd, hung, or partitioned simply stops renewing, and once
``ttl_seconds`` elapse without a renewal any other worker may *reclaim*
the lease and take over the work unit.

A reclaim is an exclusive create too: reclaiming a lease of generation
g (0 when acquired) creates ``<name>.lease.<g+1>`` with ``O_EXCL``, so
of the workers that judged it stale exactly one is elected (a file whose
reclaimer died passes the election on once ``ttl_seconds`` old), and it
replaces the lease only if it is still the one judged stale, then reads
it back.  Renewals perform the same read-back, so a holder whose lease
was reclaimed out from under it (e.g. after a long GC pause) learns
about it on its next heartbeat via :class:`~repro.errors.LeaseLostError`
instead of silently double-owning the unit.

Staleness is judged by comparing the ``renewed_at`` stamp inside the
file against the local clock, so cross-machine reclamation assumes
loosely synchronized clocks; keep ``ttl_seconds`` comfortably larger
than the expected skew.
"""

from __future__ import annotations

import json
import os
import re
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.errors import LeaseError, LeaseLostError
from repro.observability import events as _events
from repro.observability.logs import get_logger
from repro.resilience.atomic import atomic_write

PathLike = Union[str, Path]

_logger = get_logger("resilience.lease")

_SAFE_CHARS = re.compile(r"[^A-Za-z0-9._-]")


def _elected(path: Path, generation: int) -> Path:
    """The file whose exclusive create elects generation's reclaimer."""
    return path.with_name(f"{path.name}.{generation}")


def default_owner() -> str:
    """A human-readable owner id unique to this process."""
    try:
        host = socket.gethostname()
    except OSError:  # pragma: no cover - exotic hosts
        host = "unknown"
    return f"{host}-{os.getpid()}"


@dataclass(frozen=True)
class Lease:
    """A held claim on one work unit.

    The ``token`` is the proof of ownership: every renew/release
    verifies that the file on disk still carries it.
    """

    name: str
    owner: str
    token: str
    path: Path
    ttl_seconds: float
    #: Owner displaced by a reclaim, None for a fresh acquisition.
    reclaimed_from: Optional[str] = None
    #: 0 when acquired; each reclaim elects a higher one.
    generation: int = 0


class LeaseManager:
    """Acquire, renew, reclaim, and release leases in one directory.

    Args:
        directory: Created if missing; holds one ``<name>.lease`` file
            per claimed unit.
        owner: Identity stamped into acquired leases (defaults to
            ``<hostname>-<pid>``).
        ttl_seconds: Age of the last renewal beyond which a lease is
            stale and may be reclaimed by anyone.
        clock: Injectable time source (tests freeze it).
    """

    def __init__(self, directory: PathLike, owner: Optional[str] = None,
                 ttl_seconds: float = 30.0,
                 clock: Callable[[], float] = time.time):
        if ttl_seconds <= 0:
            raise LeaseError("ttl_seconds must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.owner = owner if owner is not None else default_owner()
        self.ttl_seconds = float(ttl_seconds)
        self._clock = clock

    def path_for(self, name: str) -> Path:
        return self.directory / f"{_SAFE_CHARS.sub('_', name)[:120]}.lease"

    # -- inspection -------------------------------------------------------

    def holder(self, name: str) -> Optional[dict]:
        """The current lease file's content, or None when unclaimed or
        unreadable (a torn lease write counts as unclaimed-but-stale)."""
        try:
            return json.loads(self.path_for(name).read_text())
        except (OSError, ValueError):
            return None

    def is_stale(self, name: str) -> bool:
        """True when a lease file exists but stopped being renewed.

        A lease file that cannot be parsed (torn write by a crashing
        claimant) is stale by definition.
        """
        path = self.path_for(name)
        if not path.exists():
            return False
        current = self.holder(name)
        if current is None:
            return True
        return self._clock() - current.get("renewed_at", 0.0) \
            > self.ttl_seconds

    def active(self) -> List[str]:
        """Names with a live (non-stale) lease file."""
        names = []
        for path in sorted(self.directory.glob("*.lease")):
            name = path.name[:-len(".lease")]
            if not self.is_stale(name) and path.exists():
                names.append(name)
        return names

    # -- lifecycle --------------------------------------------------------

    def _payload(self, name: str, token: str,
                 generation: int = 0) -> Dict[str, object]:
        now = self._clock()
        return {"name": name, "owner": self.owner, "token": token,
                "ttl_seconds": self.ttl_seconds, "generation": generation,
                "acquired_at": now, "renewed_at": now}

    def _write_replace(self, path: Path, payload: dict) -> None:
        # No fsync on purpose: leases coordinate *live* processes
        # through the (coherent) page cache.  After a power loss every
        # lease is stale by definition, so durability buys nothing and
        # the fsyncs would tax every claim in the worker hot path.
        atomic_write(path, json.dumps(payload), durable=False)

    def _owns(self, path: Path, token: str) -> bool:
        """Read back the lease file and check our token survived."""
        try:
            return json.loads(path.read_text()).get("token") == token
        except (OSError, ValueError):
            return False

    def acquire(self, name: str) -> Optional[Lease]:
        """Claim ``name``; reclaim it if its lease is stale.

        Returns None when another owner holds a live lease (or wins the
        reclaim race).  Never blocks.
        """
        path = self.path_for(name)
        token = uuid.uuid4().hex
        payload = self._payload(name, token)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return self._try_reclaim(name, path, token)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as stream:
                json.dump(payload, stream)
                stream.flush()
        except OSError as exc:
            raise LeaseError(
                f"cannot write lease {name!r}: {exc}") from exc
        _events.emit("lease_acquired", name=name, owner=self.owner)
        return Lease(name=name, owner=self.owner, token=token, path=path,
                     ttl_seconds=self.ttl_seconds)

    def _try_reclaim(self, name: str, path: Path,
                     token: str) -> Optional[Lease]:
        current = self.holder(name)
        if current is not None:
            age = self._clock() - current.get("renewed_at", 0.0)
            if age <= self.ttl_seconds:
                return None  # live lease held by someone else
        if not path.exists():
            # Holder released between our existence check and now; a
            # recursive retry keeps the create-exclusive arbitration.
            return self.acquire(name)
        previous_owner = (current or {}).get("owner", "unknown")
        first = (current or {}).get("generation", 0)
        generation = first + 1
        try:
            while True:
                elected = _elected(path, generation)
                try:
                    os.close(os.open(elected, os.O_CREAT | os.O_EXCL))
                    break
                except FileExistsError:
                    try:  # someone else was elected: lost, unless it died
                        age = time.time() - elected.stat().st_mtime
                    except FileNotFoundError:
                        continue  # it backed off: stand again
                    if age <= self.ttl_seconds:
                        return None
                    generation += 1
            # The lease may since have been reclaimed, or released and
            # acquired afresh: replace only the one judged stale.
            if self.holder(name) != current or not path.exists():
                elected.unlink()
                return None
            self._write_replace(path, self._payload(name, token,
                                                    generation))
            for earlier in range(max(first, 1), generation):
                _elected(path, earlier).unlink(missing_ok=True)
        except OSError as exc:
            raise LeaseError(
                f"cannot reclaim lease {name!r}: {exc}") from exc
        if not self._owns(path, token):
            return None  # the displaced holder woke up and renewed
        _events.emit("lease_reclaimed", name=name, owner=self.owner,
                     previous_owner=previous_owner)
        return Lease(name=name, owner=self.owner, token=token, path=path,
                     ttl_seconds=self.ttl_seconds,
                     reclaimed_from=previous_owner, generation=generation)

    def renew(self, lease: Lease) -> Lease:
        """Refresh the renewal stamp; raises
        :class:`~repro.errors.LeaseLostError` if the lease was reclaimed
        or removed underneath us."""
        if not self._owns(lease.path, lease.token):
            _events.emit("lease_lost", name=lease.name, owner=self.owner)
            raise LeaseLostError(
                f"lease {lease.name!r} is no longer held by "
                f"{self.owner!r}")
        payload = self._payload(lease.name, lease.token, lease.generation)
        try:
            self._write_replace(lease.path, payload)
        except OSError as exc:
            raise LeaseError(
                f"cannot renew lease {lease.name!r}: {exc}") from exc
        if not self._owns(lease.path, lease.token):
            # We raced a reclaimer; its replace landed after ours.
            _events.emit("lease_lost", name=lease.name, owner=self.owner)
            raise LeaseLostError(
                f"lease {lease.name!r} was reclaimed during renewal")
        _events.emit("lease_renewed", name=lease.name, owner=self.owner)
        return lease

    def release(self, lease: Lease) -> bool:
        """Drop the lease; True if we still held it, False if it was
        already reclaimed (the file is left to its new owner)."""
        if not self._owns(lease.path, lease.token):
            return False
        try:
            lease.path.unlink()
        except FileNotFoundError:
            return False
        if lease.generation:
            _elected(lease.path, lease.generation).unlink(missing_ok=True)
        return True


class Heartbeat:
    """A daemon thread that renews one lease until stopped.

    Renewal happens every ``interval`` seconds (default: a third of the
    lease TTL, so two consecutive missed beats still leave slack).  If
    a renewal discovers the lease was reclaimed, the thread stops and
    sets :attr:`lost`; the worker should check it before committing
    side effects it assumed were exclusive.
    """

    def __init__(self, manager: LeaseManager, lease: Lease,
                 interval: Optional[float] = None):
        self.manager = manager
        self.lease = lease
        self.interval = (interval if interval is not None
                         else max(lease.ttl_seconds / 3.0, 0.05))
        self.lost = False
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{lease.name}",
            daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.manager.renew(self.lease)
            except LeaseLostError:
                self.lost = True
                return
            except LeaseError:  # pragma: no cover - transient I/O
                _logger.warning("heartbeat renew failed for %s",
                                self.lease.name,
                                extra={"lease": self.lease.name})

    def start(self) -> "Heartbeat":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "Heartbeat":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
