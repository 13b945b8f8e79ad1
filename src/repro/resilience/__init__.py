"""Fault tolerance for long-running sweeps and experiment suites.

Four orthogonal pieces, combined by the parallel sweep runner
(:mod:`repro.simulation.parallel`), the suite runner
(:func:`repro.experiments.runner.run_suite`), and the durable
experiment service (:mod:`repro.experiments.service`):

* :mod:`~repro.resilience.retry` — deterministic capped-exponential
  backoff with an injectable sleep, for transient failures;
* :mod:`~repro.resilience.checkpoint` — atomic, fsync'd
  write-then-rename JSON checkpoints keyed by a config hash, for
  crash-safe resume;
* :mod:`~repro.resilience.lease` — lease files with heartbeat renewal
  and stale-lease reclamation, so work claimed by a killed or hung
  process is automatically taken over;
* :mod:`~repro.resilience.faults` — a deterministic fault-injection
  harness (crash / hang / raise / corrupt on chosen attempts, plus
  on-disk truncate / bit-flip / torn-write damage) that the tests use
  to prove the other three actually work.

Every file they and the experiment service replace goes through one
temp-write-then-rename, :func:`~repro.resilience.atomic.atomic_write`.
"""

from repro.resilience.atomic import atomic_write, fsync_dir
from repro.resilience.checkpoint import CheckpointStore, config_hash
from repro.resilience.faults import (
    CORRUPT_MARKER,
    FAULT_KINDS,
    FILE_CORRUPTION_MODES,
    FaultInjector,
    FaultSpec,
    InjectedFaultError,
    corrupt_file,
)
from repro.resilience.lease import (
    Heartbeat,
    Lease,
    LeaseManager,
    default_owner,
)
from repro.resilience.retry import RetryPolicy, retry_call

__all__ = [
    "atomic_write",
    "fsync_dir",
    "CheckpointStore",
    "config_hash",
    "RetryPolicy",
    "retry_call",
    "FaultInjector",
    "FaultSpec",
    "InjectedFaultError",
    "FAULT_KINDS",
    "FILE_CORRUPTION_MODES",
    "CORRUPT_MARKER",
    "corrupt_file",
    "Lease",
    "LeaseManager",
    "Heartbeat",
    "default_owner",
]
