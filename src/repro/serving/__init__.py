"""Online serving: the replacement policies as a real concurrent cache.

The simulator answers "what *would* this policy do"; this package runs
the same policy objects as a live cache serving concurrent traffic:

* :class:`~repro.serving.cache.ServedCache` — one policy-driven cache
  behind a per-instance lock, with ``get``/``put``/``delete``, a
  single-flight miss-fill path (K concurrent misses on one document
  fetch once), and exactly the simulator's eviction semantics;
* :class:`~repro.serving.sharding.ShardedCache` — a consistent-hash
  ring over N :class:`ServedCache` instances with per-shard capacity
  budgets and live add/remove of shards;
* :mod:`repro.serving.server` / :mod:`repro.serving.client` — an
  asyncio TCP front end speaking a tiny protocol (length-prefixed JSON
  header, document bodies as raw bytes after it, one incremental
  decoder shared by server and clients), plus sync/async clients;
* :mod:`repro.serving.replay` — a load-replay harness that fires a
  workload trace at a served cache from one thread per shard at line
  rate, then validates the replayed hit rates against (a) a
  :func:`~repro.simulation.engine.run_cells` simulation of each
  shard's substream and (b) the Che model's per-shard prediction —
  the daemon as a third mutually-checking evaluation path.

Correctness before throughput: replay with one thread per shard is
deterministic, so the served cache must reproduce the simulator's
per-shard hit rates *exactly*; CI gates the three-way agreement.
"""

from repro.serving.cache import CachedDocument, ServedCache, ServingStats
from repro.serving.sharding import HashRing, ShardedCache
from repro.serving.replay import (
    ReplayConfig,
    ReplayReport,
    ReplayValidation,
    replay,
    validate_replay,
)

__all__ = [
    "CachedDocument",
    "ServedCache",
    "ServingStats",
    "HashRing",
    "ShardedCache",
    "ReplayConfig",
    "ReplayReport",
    "ReplayValidation",
    "replay",
    "validate_replay",
]
