"""Durable trial queue: filesystem-backed, lease-claimed, resumable.

A *trial* is one unit of experiment work (see
:class:`repro.experiments.service.TrialSpec`).  The queue is a
directory::

    queue/
      trials/<trial_id>.json      one spec per pending trial (atomic)
      leases/<trial_id>.lease     live claims (repro.resilience.lease)
      done/<trial_id>.json        completion markers (atomic, fsync'd)
      failed/<trial_id>.json      trials abandoned after max attempts
      attempts/<trial_id>         per-trial attempt counter
      quarantine/                 unparsable spec files, moved aside

Trial ids are content hashes of the spec, so enqueueing is idempotent:
re-running ``enqueue`` after a crash re-creates nothing and duplicates
nothing.  Workers claim trials through
:class:`~repro.resilience.lease.LeaseManager`: a SIGKILL'd or hung
worker stops renewing its lease, the lease goes stale after its TTL,
and the next ``claim`` by any worker on any machine reclaims it — the
trial is automatically re-queued with its attempt counter intact, so
deterministic failures are abandoned (with a ``trial_abandoned`` event)
instead of retried forever.

Completion is recorded *after* the result is durably in the results
store, and :meth:`TrialQueue.reconcile` walks completion markers and
re-opens any whose record has vanished from the store (e.g. because it
was quarantined as corrupt) — the queue converges to exactly one
verified record per trial, never losing a cell and never trusting a
marker the store cannot back.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.errors import ServiceError
from repro.experiments.store import ResultKey, ResultsStore, canonical_json
from repro.observability import events as _events
from repro.resilience.atomic import atomic_write
from repro.resilience.checkpoint import config_hash
from repro.resilience.lease import Lease, LeaseManager

PathLike = Union[str, Path]

#: Claim attempts allowed per trial before it is abandoned.
DEFAULT_MAX_ATTEMPTS = 3


def trial_id_for(spec: dict) -> str:
    """Content-hash identity of a trial spec (idempotent enqueue)."""
    return config_hash(spec)


@dataclass
class ClaimedTrial:
    """A trial this process currently holds the lease for."""

    trial_id: str
    spec: dict
    lease: Lease
    attempt: int


@dataclass
class QueueStatus:
    """Point-in-time census of the queue."""

    pending: int
    running: int
    stale: int
    done: int
    failed: int

    @property
    def total(self) -> int:
        return self.pending + self.running + self.stale + self.done \
            + self.failed

    @property
    def drained(self) -> bool:
        return self.pending == 0 and self.running == 0 \
            and self.stale == 0

    def as_dict(self) -> dict:
        return {"pending": self.pending, "running": self.running,
                "stale": self.stale, "done": self.done,
                "failed": self.failed, "total": self.total}


class TrialQueue:
    """A durable, multi-process trial queue (see module docstring)."""

    def __init__(self, directory: PathLike, owner: Optional[str] = None,
                 lease_ttl: float = 30.0,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 clock: Callable[[], float] = time.time):
        if max_attempts < 1:
            raise ServiceError("max_attempts must be >= 1")
        self.directory = Path(directory)
        self.trials_dir = self.directory / "trials"
        self.done_dir = self.directory / "done"
        self.failed_dir = self.directory / "failed"
        self.attempts_dir = self.directory / "attempts"
        self.quarantine_dir = self.directory / "quarantine"
        for path in (self.trials_dir, self.done_dir, self.failed_dir,
                     self.attempts_dir, self.quarantine_dir):
            path.mkdir(parents=True, exist_ok=True)
        self.leases = LeaseManager(self.directory / "leases",
                                   owner=owner, ttl_seconds=lease_ttl,
                                   clock=clock)
        self.max_attempts = max_attempts

    @property
    def owner(self) -> str:
        return self.leases.owner

    # -- low-level helpers ------------------------------------------------

    def attempts(self, trial_id: str) -> int:
        """Claims burned on ``trial_id`` so far (0 if never claimed)."""
        try:
            return int((self.attempts_dir / trial_id).read_text())
        except (OSError, ValueError):
            return 0

    def _bump_attempts(self, trial_id: str) -> int:
        attempt = self.attempts(trial_id) + 1
        # Not durable: a bump lost to power loss costs one extra claim
        # of a trial, never a result.
        atomic_write(self.attempts_dir / trial_id, str(attempt),
                     durable=False)
        return attempt

    # -- enqueue ----------------------------------------------------------

    def enqueue(self, spec: dict) -> tuple:
        """Add one trial; returns ``(trial_id, newly_enqueued)``.

        Enqueueing the same spec twice (same content hash) is a no-op,
        so interrupted enqueue scripts can simply be re-run.
        """
        trial_id = trial_id_for(spec)
        path = self.trials_dir / f"{trial_id}.json"
        if path.exists():
            return trial_id, False
        atomic_write(path, canonical_json(
            {"trial_id": trial_id, "spec": spec}), durable=True)
        _events.emit("trial_enqueued", trial_id=trial_id)
        return trial_id, True

    # -- introspection ----------------------------------------------------

    def trial_ids(self) -> List[str]:
        return sorted(path.stem for path in
                      self.trials_dir.glob("*.json"))

    def done_ids(self) -> List[str]:
        return sorted(path.stem for path in self.done_dir.glob("*.json"))

    def failed_ids(self) -> List[str]:
        return sorted(path.stem
                      for path in self.failed_dir.glob("*.json"))

    def spec_for(self, trial_id: str) -> Optional[dict]:
        """The spec dict for a trial; quarantines an unreadable file
        (moved aside, never re-parsed) and returns None."""
        path = self.trials_dir / f"{trial_id}.json"
        try:
            envelope = json.loads(path.read_text(encoding="utf-8",
                                                 errors="replace"))
            spec = envelope["spec"]
            if not isinstance(spec, dict):
                raise ValueError("spec is not an object")
            return spec
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            target = self.quarantine_dir / path.name
            try:
                os.replace(path, target)
            except OSError:  # pragma: no cover
                pass
            _events.emit("record_quarantined", source=path.name,
                         reason=f"unreadable trial spec: {exc}",
                         trial_id=trial_id)
            return None

    def status(self) -> QueueStatus:
        done = set(self.done_ids())
        failed = set(self.failed_ids())
        pending = running = stale = 0
        for trial_id in self.trial_ids():
            if trial_id in done or trial_id in failed:
                continue
            holder = self.leases.holder(trial_id)
            if holder is None and not self.leases.is_stale(trial_id):
                pending += 1
            elif self.leases.is_stale(trial_id):
                stale += 1
            else:
                running += 1
        return QueueStatus(pending=pending, running=running,
                           stale=stale, done=len(done),
                           failed=len(failed))

    # -- claim / complete / fail ------------------------------------------

    def claim(self) -> Optional[ClaimedTrial]:
        """Claim the next open trial, reclaiming stale leases.

        Returns None when nothing is claimable (drained, or every open
        trial is freshly leased by someone else).  A trial whose
        attempt counter has reached ``max_attempts`` is abandoned into
        ``failed/`` instead of claimed again.
        """
        done = set(self.done_ids())
        failed = set(self.failed_ids())
        for trial_id in self.trial_ids():
            if trial_id in done or trial_id in failed:
                continue
            attempts_so_far = self.attempts(trial_id)
            if attempts_so_far >= self.max_attempts:
                self._abandon(trial_id, attempts_so_far,
                              "attempt budget exhausted")
                continue
            was_stale = self.leases.is_stale(trial_id)
            lease = self.leases.acquire(trial_id)
            if lease is None:
                continue
            if (self.done_dir / f"{trial_id}.json").exists():
                # Completed since the scan above: its holder writes the
                # marker before it lets the lease go.
                self.leases.release(lease)
                continue
            spec = self.spec_for(trial_id)
            if spec is None:
                self.leases.release(lease)
                continue
            attempt = self._bump_attempts(trial_id)
            if was_stale or lease.reclaimed_from is not None:
                _events.emit("trial_requeued", trial_id=trial_id,
                             reason="stale lease reclaimed",
                             previous_owner=lease.reclaimed_from)
            _events.emit("trial_claimed", trial_id=trial_id,
                         owner=self.owner, attempt=attempt)
            return ClaimedTrial(trial_id=trial_id, spec=spec,
                                lease=lease, attempt=attempt)
        return None

    def _abandon(self, trial_id: str, attempts: int,
                 reason: str) -> None:
        path = self.failed_dir / f"{trial_id}.json"
        if path.exists():
            return
        atomic_write(path, canonical_json(
            {"trial_id": trial_id, "attempts": attempts,
             "reason": reason}), durable=True)
        _events.emit("trial_abandoned", trial_id=trial_id,
                     attempts=attempts, reason=reason)

    def complete(self, claimed: ClaimedTrial,
                 result_key: Optional[ResultKey] = None,
                 duration_seconds: float = 0.0) -> None:
        """Mark a claimed trial done (call *after* the result is
        durably stored) and release its lease."""
        marker = {"trial_id": claimed.trial_id,
                  "attempts": claimed.attempt}
        if result_key is not None:
            marker["result_key"] = {
                "config_hash": result_key.config_hash,
                "git_hash": result_key.git_hash,
                "seed": result_key.seed,
            }
        # No fsyncs for state that is cheap to reconstruct: a done
        # marker lost to power loss just means the trial is re-claimed,
        # sees its record already in the store, and rewrites the marker
        # without re-executing.
        atomic_write(self.done_dir / f"{claimed.trial_id}.json",
                     canonical_json(marker), durable=False)
        self.leases.release(claimed.lease)
        _events.emit("trial_completed", trial_id=claimed.trial_id,
                     owner=self.owner, attempt=claimed.attempt,
                     duration_seconds=round(duration_seconds, 6))

    def release(self, claimed: ClaimedTrial, reason: str) -> None:
        """Give a claimed trial back (e.g. after an execution error)
        without consuming its completion; the attempt stays charged."""
        self.leases.release(claimed.lease)
        _events.emit("trial_requeued", trial_id=claimed.trial_id,
                     reason=reason)

    # -- reconcile --------------------------------------------------------

    def reconcile(self, store: ResultsStore) -> List[str]:
        """Re-open done trials whose store record has vanished.

        A completion marker promises "the record is in the store"; if
        the record was since quarantined as corrupt, that promise is
        broken and the trial must run again.  Returns the re-opened
        trial ids.  Markers without a recorded key are left alone.
        """
        present: Dict[ResultKey, dict] = store.records()
        reopened = []
        for trial_id in self.done_ids():
            path = self.done_dir / f"{trial_id}.json"
            try:
                marker = json.loads(path.read_text())
                raw_key = marker.get("result_key")
            except (OSError, ValueError):
                raw_key = None  # unreadable marker: treat as broken
            if raw_key is not None:
                key = ResultKey(raw_key["config_hash"],
                                raw_key["git_hash"],
                                int(raw_key["seed"]))
                if key in present:
                    continue
            elif raw_key is None and path.exists() \
                    and self._marker_parses(path):
                continue  # legacy marker without a key: trust it
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            # The attempt budget restarts: the previous attempts did
            # succeed, their record was lost to corruption afterwards.
            try:
                (self.attempts_dir / trial_id).unlink()
            except FileNotFoundError:
                pass
            _events.emit("trial_requeued", trial_id=trial_id,
                         reason="store record missing")
            reopened.append(trial_id)
        return reopened

    @staticmethod
    def _marker_parses(path: Path) -> bool:
        try:
            json.loads(path.read_text())
            return True
        except (OSError, ValueError):
            return False
