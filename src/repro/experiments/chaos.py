"""Chaos harness: prove the service's durability guarantees on purpose.

:func:`run_chaos` runs the same trial grid twice:

* a **reference** run — one uninterrupted in-process worker; and
* a **chaos** run — worker processes SIGKILL'd mid-trial (a
  deterministic ``hang`` fault parks each victim inside a known
  trial, so the kill always lands in the claim-to-commit window),
  stale leases reclaimed, optionally a store segment bit-flipped and
  quarantined, then the queue reconciled and drained.

Both stores are then compacted and compared byte for byte.  The
service's whole design — fsync'd CRC'd appends, first-wins dedup,
deterministic compaction, lease reclamation, marker-vs-store
reconciliation — exists to make that comparison come out equal; this
harness is the executable statement of the claim.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence, Union

from repro.errors import ServiceError
from repro.experiments.queue import TrialQueue
from repro.experiments.service import (
    enqueue_grid,
    open_service,
    work,
    worker_entry,
)
from repro.experiments.store import ResultsStore
from repro.observability.logs import get_logger
from repro.resilience.faults import FaultInjector, corrupt_file

PathLike = Union[str, Path]

_logger = get_logger("experiments.chaos")

#: How long the parent waits for a victim worker to claim its target
#: trial before declaring the chaos run wedged.
_CLAIM_WAIT_SECONDS = 120.0

#: Safety bound on drain iterations; each iteration either completes
#: trials or proves the queue drained, so a handful always suffices.
_MAX_DRAIN_ROUNDS = 8


@dataclass
class ChaosReport:
    """Outcome of one :func:`run_chaos` comparison."""

    reference_digest: str
    chaos_digest: str
    records: int
    kills: int
    corrupted_files: int
    quarantined: int
    reopened: List[str] = field(default_factory=list)
    drained: bool = True

    @property
    def ok(self) -> bool:
        return (self.drained
                and self.reference_digest == self.chaos_digest)

    def render(self) -> str:
        verdict = "IDENTICAL" if self.ok else "MISMATCH"
        return "\n".join([
            "chaos run vs uninterrupted reference:",
            f"  records            {self.records}",
            f"  workers SIGKILLed  {self.kills}",
            f"  files corrupted    {self.corrupted_files}",
            f"  lines quarantined  {self.quarantined}",
            f"  trials reopened    {len(self.reopened)}",
            f"  queue drained      {self.drained}",
            f"  reference digest   {self.reference_digest}",
            f"  chaos digest       {self.chaos_digest}",
            f"  stores             {verdict}",
        ])


def _wait_for_claim(queue: TrialQueue, trial_id: str,
                    timeout: float = _CLAIM_WAIT_SECONDS) -> str:
    """Block until some worker holds a live lease on ``trial_id``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        holder = queue.leases.holder(trial_id)
        if holder is not None and not queue.leases.is_stale(trial_id):
            return holder
        time.sleep(0.02)
    raise ServiceError(
        f"chaos victim never claimed trial {trial_id!r} "
        f"within {timeout:g}s")


def _wait_for_stale(queue: TrialQueue, trial_id: str,
                    timeout: float = _CLAIM_WAIT_SECONDS) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if queue.leases.holder(trial_id) is None \
                or queue.leases.is_stale(trial_id):
            return
        time.sleep(0.02)
    raise ServiceError(
        f"lease on {trial_id!r} never went stale within {timeout:g}s")


def _drain(queue: TrialQueue, store: ResultsStore) -> bool:
    """Work + reconcile until the queue is drained; False if wedged."""
    for _ in range(_MAX_DRAIN_ROUNDS):
        work(queue, store)
        queue.reconcile(store)
        if queue.status().drained:
            return True
    return queue.status().drained


def run_chaos(root: PathLike, *, kills: int = 2, corrupt: bool = False,
              scale: float = 1.0 / 512.0,
              traces: Sequence[str] = ("dfn",),
              policies: Sequence[str] = ("lru", "gds(1)"),
              size_fractions: Sequence[float] = (0.01,),
              seeds: Sequence[int] = (42, 1042),
              lease_ttl: float = 1.0) -> ChaosReport:
    """SIGKILL workers mid-trial, optionally corrupt the store, and
    compare the recovered result set against an uninterrupted run.

    Each kill round plants a deterministic ``hang`` fault on one known
    trial, spawns a real worker process, waits for it to claim the
    victim trial (so the kill is guaranteed to land mid-trial, lease
    held, commit pending), SIGKILLs it, and waits for the orphaned
    lease to go stale.  With ``corrupt=True`` a store segment is then
    bit-flipped; the scan must quarantine the damaged record and
    reconciliation must re-open its trial.  Finally the queue is
    drained in-process, both stores are compacted, and their bytes
    compared.
    """
    import multiprocessing

    root = Path(root)
    grid = {"traces": traces, "scale": scale, "policies": policies,
            "size_fractions": size_fractions, "seeds": seeds}

    # Reference: the same grid, no interference.
    ref_queue, ref_store = open_service(root / "reference",
                                        lease_ttl=lease_ttl)
    enqueue_grid(ref_queue, **grid)
    if not _drain(ref_queue, ref_store):
        raise ServiceError("reference run failed to drain")
    ref_store.compact()

    # Chaos: same grid, hostile conditions.
    queue, store = open_service(root / "chaos", lease_ttl=lease_ttl)
    trial_ids = sorted(enqueue_grid(queue, **grid))
    kills = min(kills, len(trial_ids))
    context = multiprocessing.get_context()
    performed = 0
    for round_number in range(kills):
        # Workers claim in sorted-id order, so victim N is only
        # reached after the previous rounds' trials are re-done.
        victim_trial = trial_ids[round_number]
        injector = FaultInjector.of(
            # Hang on every attempt: only SIGKILL ends this worker.
            *[_hang_spec(victim_trial, attempt)
              for attempt in range(1, queue.max_attempts + 1)])
        worker = context.Process(
            target=worker_entry,
            args=(str(root / "chaos"), lease_ttl, queue.max_attempts,
                  injector))
        worker.start()
        try:
            _wait_for_claim(queue, victim_trial)
            os.kill(worker.pid, signal.SIGKILL)
        finally:
            worker.join()
        _wait_for_stale(queue, victim_trial)
        performed += 1
        _logger.info(
            "chaos round %d: worker %d SIGKILLed mid-trial %s",
            round_number + 1, worker.pid, victim_trial,
            extra={"round": round_number + 1, "pid": worker.pid,
                   "trial_id": victim_trial})

    if not _drain(queue, store):
        return _report(ref_store, store, performed, 0, [],
                       drained=False)

    corrupted = 0
    reopened: List[str] = []
    if corrupt:
        segments = sorted(store.segments_dir.glob("*.jsonl"))
        targets = segments[:1] if segments else (
            [store.base_path] if store.base_path.exists() else [])
        for path in targets:
            corrupt_file(path, mode="bitflip", seed=7)
            corrupted += 1
        # The scan inside reconcile quarantines the damage; reconcile
        # re-opens the trial whose record it destroyed.
        reopened = queue.reconcile(store)
        if not _drain(queue, store):
            return _report(ref_store, store, performed, corrupted,
                           reopened, drained=False)

    store.compact()
    return _report(ref_store, store, performed, corrupted, reopened,
                   drained=True)


def _hang_spec(trial_id: str, attempt: int):
    from repro.resilience.faults import FaultSpec

    return FaultSpec(key=trial_id, kind="hang", attempts=(attempt,),
                     hang_seconds=3600.0)


def _report(ref_store: ResultsStore, store: ResultsStore, kills: int,
            corrupted: int, reopened: List[str], *,
            drained: bool) -> ChaosReport:
    return ChaosReport(
        reference_digest=ref_store.digest(),
        chaos_digest=store.digest(),
        records=len(store.records()),
        kills=kills,
        corrupted_files=corrupted,
        quarantined=len(store.quarantined()),
        reopened=reopened,
        drained=drained,
    )
