"""The durable experiment service: enqueue / work / status / report.

A *trial* is one seeded simulation cell — (trace profile, scale,
policy, cache-size fraction, seed) — described by one flat
:class:`TrialSpec` that may also carry a topology axis (a cache
*network* trial) or a shard axis (a *serving* replay trial).  There is
one way through for every kind: :func:`enqueue_grid` (CLI: ``service
enqueue``) queues specs, :func:`execute_trial` runs one, and every
reader of the store — the report, the HTML report and the regression
detector — takes its records from :func:`store_samples`, which keeps
only records whose spec :meth:`TrialSpec.from_dict` accepts and only
finite numeric metrics.  The service splits a
standing experiment program into three crash-isolated pieces:

* a :class:`~repro.experiments.queue.TrialQueue` of pending trials,
  claimed through leases so any number of workers on any number of
  machines can pull from the same directory, and a SIGKILL'd worker's
  trial is reclaimed automatically when its lease goes stale;
* a :class:`~repro.experiments.store.ResultsStore` of finished
  measurements, append-only and CRC-verified, keyed by
  ``(config_hash, git_hash, seed)`` so re-executions deduplicate and
  results from different code revisions never silently mix;
* a pure reporting layer (:func:`build_report`) that recomputes the
  repeated-trial statistics — per-policy mean and confidence interval,
  pairwise Mann-Whitney U and A12 effect size, significance-aware
  ranks — from the store alone, so the report is reproducible from the
  surviving bytes with no queue state at all.

The worker loop commits in a fixed order — execute, append to the
store (fsync'd), then write the done marker — so every crash window
is safe: dying before the append re-runs the trial; dying between
append and marker re-claims the trial and skips straight to the
marker because the store already has the record; dying after the
marker is a completed trial.  ``python -m repro.experiments service``
exposes the verbs on the scaffold every CLI shares
(:func:`repro.experiments.cliopts.run_verbs`): ``--log-level``,
``--log-json`` and ``--telemetry-dir`` go after the verb, and a
:class:`~repro.errors.ReproError` is one ``error:`` line and exit 2;
:func:`repro.experiments.chaos.run_chaos` proves
the guarantees by killing workers mid-trial and corrupting the store
on purpose.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from itertools import product
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ServiceError
from repro.experiments.cliopts import add_observability_options, run_verbs
from repro.experiments.config import SCALES
from repro.experiments.queue import ClaimedTrial, TrialQueue
from repro.experiments.stats import compare, rank_policies
from repro.experiments.store import (
    ResultKey,
    ResultsStore,
    canonical_json,
    git_revision,
)
from repro.observability import events as _events
from repro.observability.trace import adopt, enable_tracing, inject
from repro.observability.trace import span as _span
from repro.resilience.checkpoint import config_hash
from repro.resilience.faults import FaultInjector
from repro.resilience.lease import Heartbeat
from repro.types import DocumentType, Trace

PathLike = Union[str, Path]

#: Trace profiles the service knows how to realize.
TRACE_PROFILES = ("dfn", "rtp")

#: Subdirectory names inside a service root.
QUEUE_DIRNAME = "queue"
STORE_DIRNAME = "store"


#: The optional axes that widen a trial beyond one cache, in the order
#: conditions and report headers list them.  Which of them a spec
#: carries *is* its kind; no ``kind`` field is ever stored.
AXES = ("topology", "strategy", "n", "shards")

#: Every field with the coercion :meth:`TrialSpec.from_dict` applies —
#: queue files are outside input.
_FIELD_TYPES = {"trace": str, "scale": float, "policy": str,
                "size_fraction": float, "seed": int,
                "topology": str, "strategy": str, "n": int,
                "shards": int}


@dataclass(frozen=True)
class TrialSpec:
    """One seeded (trace × policy × cache size) cell, the service's
    unit of work, optionally widened along a topology or a shard axis.

    The optional axes decide the :attr:`kind`:

    * none — ``"cache"``: one cache, one policy.
    * ``topology`` + ``strategy`` (+ ``n``) — ``"network"``: a cache
      network.  ``size_fraction`` is the *aggregate* budget as a
      fraction of the trace's distinct bytes, split uniformly across
      nodes by :func:`repro.network.topology.build_topology` — holding
      total cache bytes constant is what makes hit rates comparable
      across topologies.  ``n`` is the shape parameter: children
      (two-level), proxies (mesh), chain length (path), depth (tree);
      ignored for ``single``; 4 when not given.
    * ``shards`` — ``"serving"``: the online sharded cache replayed as
      an experimental subject.

    Any other combination is refused.  :meth:`as_dict` omits absent
    axes, so a spec's stored identity (config hash, trial id, payload
    bytes) is exactly what it was before the axes shared one class.
    """

    trace: str
    scale: float
    policy: str
    size_fraction: float
    seed: int
    topology: Optional[str] = None
    strategy: Optional[str] = None
    n: Optional[int] = None
    shards: Optional[int] = None

    def __post_init__(self):
        if self.trace not in TRACE_PROFILES:
            raise ServiceError(
                f"unknown trace profile {self.trace!r}; known: "
                + ", ".join(TRACE_PROFILES))
        if not 0 < self.size_fraction <= 1:
            raise ServiceError("size_fraction must be in (0, 1]")
        if self.scale <= 0:
            raise ServiceError("scale must be positive")
        if self.topology is None:
            if self.strategy is not None or self.n is not None:
                raise ServiceError("strategy and n need a topology")
            if self.shards is not None and self.shards < 1:
                raise ServiceError("shards must be >= 1")
            return
        if self.shards is not None:
            raise ServiceError(
                "a spec carries topology or shards, not both")
        from repro.network.strategies import STRATEGY_NAMES
        from repro.network.topology import TOPOLOGY_KINDS

        if self.topology not in TOPOLOGY_KINDS:
            raise ServiceError(
                f"unknown topology {self.topology!r}; known: "
                + ", ".join(TOPOLOGY_KINDS))
        if self.strategy not in STRATEGY_NAMES:
            raise ServiceError(
                f"unknown strategy {self.strategy!r}; known: "
                + ", ".join(STRATEGY_NAMES))
        if self.n is None:
            object.__setattr__(self, "n", 4)
        if self.n < 1:
            raise ServiceError("n must be >= 1")

    @property
    def kind(self) -> str:
        """``"network"``, ``"serving"`` or ``"cache"``, from which
        optional axes are present."""
        if self.topology is not None:
            return "network"
        if self.shards is not None:
            return "serving"
        return "cache"

    @classmethod
    def from_dict(cls, data: dict) -> "TrialSpec":
        try:
            return cls(**{name: coerce(data[name])
                          for name, coerce in _FIELD_TYPES.items()
                          if name in data})
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ServiceError(f"malformed trial spec: {exc}") from exc

    def as_dict(self) -> dict:
        return {name: value for name, value in asdict(self).items()
                if value is not None}

    def config_key(self) -> str:
        """Hash of everything *except* the seed: replicas of one
        configuration share this, which is what groups them into a
        sample for the statistics layer."""
        config = self.as_dict()
        del config["seed"]
        return config_hash(config)

    def result_key(self, git_hash: Optional[str] = None) -> ResultKey:
        return ResultKey(config_hash=self.config_key(),
                         git_hash=git_hash or git_revision(),
                         seed=self.seed)

    @staticmethod
    def condition_of(spec: dict, *drop: str) -> Optional[tuple]:
        """The experimental condition a stored spec dict belongs to.

        Trials are replicas of one condition when they agree on every
        field but ``seed``; a reader that compares policies (or plots
        against cache size) names those fields in ``drop`` too.  The
        four fields every spec has come back positionally, then one
        ``(axis, value)`` pair per optional axis the spec carries — so
        trials of different kinds, or network trials of different
        shape, never share a condition.  ``None`` marks a foreign
        record (not written by the service).
        """
        required = ("trace", "scale", "policy", "size_fraction")
        if any(name not in spec for name in required):
            return None
        return (*(spec[name] for name in required if name not in drop),
                *((axis, spec[axis]) for axis in AXES if axis in spec))


@dataclass(frozen=True)
class Sample:
    """One service record as every reader of the store sees it: the
    spec it ran, the revision that ran it, its seed, and its numeric
    metrics — ``hit_rate``, ``byte_hit_rate`` and ``hit_rate[<type>]``
    per document type."""

    spec: dict
    git_hash: str
    seed: int
    metrics: Dict[str, float]


def _mapping(value) -> dict:
    return value if isinstance(value, dict) else {}


def _finite(value) -> Optional[float]:
    """``value`` as a finite float, or ``None`` for a bool, a
    non-number, or a number no finite float represents."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def store_samples(store: ResultsStore) -> Iterator[Sample]:
    """The store's service records in key order, for the report, the
    HTML report and the regression detector alike.

    Store files are outside input.  A record whose spec
    :meth:`TrialSpec.from_dict` refuses is foreign (not written by the
    service) or malformed and is skipped; the others yield the spec as
    :meth:`TrialSpec.as_dict` writes it, so every field has its type.
    A metric that is a bool, not a number, or not finite is dropped;
    records that predate the per-type breakdown simply carry fewer
    metrics.
    """
    for key, record in sorted(store.records().items()):
        payload = _mapping(record["payload"])
        try:
            spec = TrialSpec.from_dict(_mapping(payload.get("spec")))
        except ServiceError:
            continue
        values = [(name, payload.get(name))
                  for name in ("hit_rate", "byte_hit_rate")]
        values += [(f"hit_rate[{doc_type}]", value) for doc_type, value
                   in sorted(_mapping(payload.get("type_hit_rates"))
                             .items())]
        metrics = {name: _finite(value) for name, value in values}
        yield Sample(spec.as_dict(), key.git_hash, key.seed,
                     {name: value for name, value in metrics.items()
                      if value is not None})


class _WorkerTraceCache:
    """Per-process memo of generated traces, keyed like the suite
    runner's cache: one (profile, scale, seed) trace serves every
    policy × fraction trial that shares it.

    With a spill directory (``REPRO_SERVICE_TRACE_DIR``; ``service
    work`` always exports one, workers inherit it) the first process to
    need a trace generates it and publishes a ``.rcol`` file with an
    atomic rename; everyone else — including other worker processes —
    just mmaps it.  Generation is seeded, so concurrent writers race to
    install identical bytes and the rename is idempotent.  Without one
    the generated :class:`~repro.types.Trace` is handed to the same
    simulators, which gather its columns themselves; the payload bytes
    are identical either way.
    """

    def __init__(self):
        self._traces: Dict[tuple, object] = {}

    @staticmethod
    def _generate(trace: str, scale: float, seed: int) -> Trace:
        from repro.workload.generator import generate_trace
        from repro.workload.profiles import profile_by_name

        return generate_trace(profile_by_name(trace, scale, seed))

    def _columnar(self, trace: str, scale: float, seed: int,
                  spill_dir: Path):
        from repro.trace.columnar import (ColumnarFormatError,
                                          open_columnar, write_columnar)

        spill_dir.mkdir(parents=True, exist_ok=True)
        path = spill_dir / f"{trace}-{scale:g}-{seed}.rcol"
        try:
            return open_columnar(path)
        except ColumnarFormatError:
            # Absent, or left truncated/unflushed by a crash: publish
            # it (again) rather than fail every trial that needs it.
            pass
        generated = self._generate(trace, scale, seed)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        write_columnar(tmp, generated.requests, name=generated.name)
        with open(tmp, "rb") as stream:
            os.fsync(stream.fileno())
        os.replace(tmp, path)
        return open_columnar(path, verify=False)

    def get(self, trace: str, scale: float, seed: int):
        spill = os.environ.get("REPRO_SERVICE_TRACE_DIR")
        key = (trace, scale, seed, spill)
        if key not in self._traces:
            self._traces[key] = (
                self._columnar(trace, scale, seed, Path(spill)) if spill
                else self._generate(trace, scale, seed))
        return self._traces[key]


_TRACES = _WorkerTraceCache()


def execute_trial(spec: TrialSpec) -> dict:
    """Run one trial; returns a deterministic, timestamp-free payload.

    The payload is a pure function of the spec (generation, simulation,
    placement and replay are all seeded), which is what makes the
    store's bit-identical compaction guarantee possible: any two
    executions of the same spec on the same code produce the same
    bytes.  The size fraction resolves against the trace the same way
    for every kind; what is measured at that capacity is the kind's
    payload builder.
    """
    from repro.simulation.sweep import cache_sizes_from_fractions

    trace = _TRACES.get(spec.trace, spec.scale, spec.seed)
    capacity = cache_sizes_from_fractions(
        trace, [spec.size_fraction])[0]
    return {"spec": spec.as_dict(),
            **_PAYLOAD_BUILDERS[spec.kind](spec, trace, capacity)}


def _cache_payload(spec: TrialSpec, trace, capacity: int) -> dict:
    from repro.simulation.engine import SimulationConfig, run_cells

    config = SimulationConfig(capacity_bytes=capacity,
                              policy=spec.policy)
    result = run_cells(trace, [config], trace_name=trace.name)[0]
    return {
        "capacity_bytes": capacity,
        "hit_rate": result.hit_rate(),
        "byte_hit_rate": result.byte_hit_rate(),
        # Per-document-type breakdown, so the regression detector and
        # the HTML report can compare IMAGE/HTML/... hit rates across
        # git revisions (the paper's central axis of analysis).
        "type_hit_rates": {
            doc_type.value: result.hit_rate(doc_type)
            for doc_type in DocumentType
        },
    }


def _network_payload(spec: TrialSpec, trace, capacity: int) -> dict:
    """:func:`repro.network.engine.run_network` dispatches to the
    vectorized cascade when the cell qualifies (LRU, LCE) and the
    object walk otherwise — both produce identical
    payload bytes.  The spec's seed feeds the placement strategy's RNG
    and (via ``policy_seed``) any seedable per-node policies, so
    replicas differ only through the seed.
    """
    from repro.network.engine import NetworkConfig, run_network
    from repro.network.strategies import make_strategy
    from repro.network.topology import build_topology

    config = NetworkConfig(
        topology=build_topology(spec.topology, capacity, n=spec.n,
                                policy=spec.policy),
        strategy=make_strategy(spec.strategy, seed=spec.seed),
        policy_seed=spec.seed)
    result = run_network(trace, config)
    edge = result.edge_metrics()
    return {
        "total_capacity_bytes": capacity,
        "n_caches": result.config.topology.n_caches,
        "hit_rate": result.hit_rate,
        "byte_hit_rate": result.byte_hit_rate,
        "edge_hit_rate": edge.overall.hit_rate,
        "sibling_serves": result.sibling_serves,
        "type_hit_rates": {
            doc_type.value: result.network.hit_rate(doc_type)
            for doc_type in DocumentType
        },
        # Which level each type's resident bytes ended up at — the
        # per-type placement view, keyed "type/level".
        "placement_shares": {
            f"{doc_type.value}/{level}": share
            for doc_type, by_level in result.placement_shares().items()
            for level, share in by_level.items()
        },
    }


def _serving_payload(spec: TrialSpec, trace, capacity: int) -> dict:
    """The replay runs one thread per shard, so per-shard hit counts
    are exact and the validation errors — replay against the simulator
    and against the Che model — are reproducible; wall-clock numbers
    (throughput, latency) are deliberately dropped from the payload —
    they vary per host, and the store requires re-executions to be
    bit-identical.
    """
    from repro.serving.replay import ReplayConfig, validate_replay

    validation = validate_replay(
        trace, ReplayConfig(capacity_bytes=capacity,
                            n_shards=spec.shards,
                            policy=spec.policy))
    report = validation.report
    return {
        "capacity_bytes": capacity,
        "hit_rate": report.hit_rate,
        "shard_hit_rates": {
            shard.shard: shard.hit_rate
            for shard in report.per_shard
        },
        "type_hit_rates": {
            doc_type.value: report.per_type_hit_rate.get(
                doc_type.value, 0.0)
            for doc_type in DocumentType
        },
        "sim_mae": validation.sim_mae,
        "sim_max_error": validation.sim_max_error,
        "model_mae": validation.model_mae,
        "model_max_error": validation.model_max_error,
    }


_PAYLOAD_BUILDERS = {"cache": _cache_payload,
                     "network": _network_payload,
                     "serving": _serving_payload}


# --------------------------------------------------------------------------
# Service root helpers
# --------------------------------------------------------------------------

def open_service(root: PathLike, owner: Optional[str] = None,
                 lease_ttl: float = 30.0,
                 max_attempts: int = 3
                 ) -> Tuple[TrialQueue, ResultsStore]:
    """Open (creating if needed) the queue + store under one root."""
    root = Path(root)
    queue = TrialQueue(root / QUEUE_DIRNAME, owner=owner,
                       lease_ttl=lease_ttl, max_attempts=max_attempts)
    store = ResultsStore(root / STORE_DIRNAME)
    return queue, store


def enqueue_grid(queue: TrialQueue, *, traces: Sequence[str],
                 scale: float, policies: Sequence[str],
                 size_fractions: Sequence[float],
                 seeds: Sequence[int],
                 topologies: Optional[Sequence[str]] = None,
                 strategies: Optional[Sequence[str]] = None,
                 n: Optional[int] = None,
                 shards: Optional[int] = None) -> List[str]:
    """Enqueue the full cross product; idempotent, returns trial ids.

    ``topologies`` × ``strategies`` (at one shape ``n``) make it a
    network grid, ``shards`` a serving grid at one shard count;
    :class:`TrialSpec` refuses any other mix of the optional axes.
    """
    ids = []
    for trace, topology, strategy, policy, fraction, seed in product(
            traces, topologies or [None], strategies or [None],
            policies, size_fractions, seeds):
        spec = TrialSpec(trace=trace, scale=scale, policy=policy,
                         size_fraction=fraction, seed=seed,
                         topology=topology, strategy=strategy, n=n,
                         shards=shards)
        trial_id, _ = queue.enqueue(spec.as_dict())
        ids.append(trial_id)
    return ids


# --------------------------------------------------------------------------
# The worker loop
# --------------------------------------------------------------------------

def work(queue: TrialQueue, store: ResultsStore, *,
         max_trials: Optional[int] = None,
         fault_injector: Optional[FaultInjector] = None,
         git_hash: Optional[str] = None,
         poll_seconds: float = 0.1,
         idle_timeout: Optional[float] = None) -> int:
    """Pull and execute trials until the queue is fully resolved.

    Commit order per trial (the crash-safety contract):

    1. claim (lease acquired, heartbeat starts renewing it);
    2. if the store already holds this trial's record — a predecessor
       died between its append and its done marker — skip straight to
       the marker;
    3. execute;
    4. append the result to the store (fsync'd before returning);
    5. write the done marker and release the lease.

    A worker killed at any point loses at most the CPU it burned: the
    lease goes stale, the trial is reclaimed, and the store's
    first-wins dedup absorbs any double append.  ``fault_injector``
    hooks fire at the trial id before execution and at
    ``"<trial_id>#commit"`` between append and marker, so chaos tests
    can target every window deterministically.

    A worker with nothing claimable does not necessarily exit: trials
    leased to *other* live workers may yet come back (their holder can
    die), so it polls until every trial is done or failed — which is
    what lets a fleet of workers outlive any one member.  Pass
    ``idle_timeout`` to bound the wait (seconds with nothing claimed).

    Returns the number of trials this call completed.
    """
    git_hash = git_hash or git_revision()
    _events.emit("service_worker_started", owner=queue.owner)
    # One scan up front, then tracked incrementally: rescanning the
    # whole store per trial would be quadratic, and a miss is harmless
    # anyway (a double execution deduplicates at compaction).
    known_keys = set(store.records())
    executed = 0
    idle_since: Optional[float] = None
    with _span("worker", owner=queue.owner) as worker_span:
        while max_trials is None or executed < max_trials:
            claimed = queue.claim()
            if claimed is None:
                status = queue.status()
                if status.drained:
                    break
                # Something is still leased out (or went stale between
                # our claim and this census): wait for it to resolve.
                now = time.monotonic()
                idle_since = idle_since if idle_since is not None \
                    else now
                if idle_timeout is not None \
                        and now - idle_since > idle_timeout:
                    break
                time.sleep(poll_seconds)
                continue
            idle_since = None
            done = _run_claimed(queue, store, claimed,
                                fault_injector=fault_injector,
                                git_hash=git_hash,
                                known_keys=known_keys)
            if done:
                executed += 1
        worker_span.set_attribute("executed", executed)
    _events.emit("service_worker_exited", owner=queue.owner,
                 executed=executed)
    return executed


def _run_claimed(queue: TrialQueue, store: ResultsStore,
                 claimed: ClaimedTrial, *,
                 fault_injector: Optional[FaultInjector],
                 git_hash: str,
                 known_keys: Optional[set] = None) -> bool:
    try:
        spec = TrialSpec.from_dict(claimed.spec)
    except ServiceError as exc:
        # A structurally valid JSON file holding a semantically bad
        # spec: executing it will never work, so burn its attempts.
        queue.release(claimed, f"invalid spec: {exc}")
        return False
    key = spec.result_key(git_hash)
    known_keys = known_keys if known_keys is not None \
        else set(store.records())
    started = time.monotonic()
    with _span("trial", trial_id=claimed.trial_id, policy=spec.policy,
               seed=spec.seed, attempt=claimed.attempt) as trial_span, \
            Heartbeat(queue.leases, claimed.lease) as heartbeat:
        if key in known_keys:
            # A predecessor stored the record but died before its
            # done marker; finishing the marker is all that's left.
            trial_span.set_attribute("outcome", "marker_only")
            queue.complete(claimed, key)
            return True
        try:
            if fault_injector is not None:
                fault_injector.on_start(claimed.trial_id,
                                        claimed.attempt)
            payload = execute_trial(spec)
        except Exception as exc:  # noqa: BLE001 - released, not lost
            trial_span.set_status("error")
            queue.release(
                claimed, f"execution error: {type(exc).__name__}")
            return False
        if fault_injector is not None:
            payload = fault_injector.on_result(
                claimed.trial_id, claimed.attempt, payload)
        store.append(key.config_hash, key.git_hash, key.seed, payload)
        known_keys.add(key)
        if fault_injector is not None:
            # The append-to-marker window, targetable by chaos tests.
            fault_injector.on_start(f"{claimed.trial_id}#commit",
                                    claimed.attempt)
        if heartbeat.lost:
            # The lease was reclaimed mid-trial (e.g. the worker hung
            # past the TTL): the new owner is responsible for the
            # marker; our append deduplicates harmlessly.
            trial_span.set_status("error")
            return False
    queue.complete(claimed, key,
                   duration_seconds=time.monotonic() - started)
    return True


# --------------------------------------------------------------------------
# Status + report
# --------------------------------------------------------------------------

def service_status(root: PathLike, clock=time.time) -> dict:
    queue, store = open_service(root)
    records = store.records()
    status = queue.status()
    # Every lease file — live *and* stale — with its holder's heartbeat
    # age and how many claims the trial has burned, so one glance at
    # `service status` answers "is anything wedged, and since when?".
    workers = []
    for path in sorted(queue.leases.directory.glob("*.lease")):
        trial_id = path.name[:-len(".lease")]
        holder = queue.leases.holder(trial_id)
        entry = {
            "trial_id": trial_id,
            "owner": holder.get("owner") if holder else None,
            "stale": queue.leases.is_stale(trial_id),
            "attempt": queue.attempts(trial_id),
        }
        if holder and isinstance(holder.get("renewed_at"),
                                 (int, float)):
            entry["heartbeat_age_seconds"] = round(
                max(clock() - holder["renewed_at"], 0.0), 3)
        else:
            entry["heartbeat_age_seconds"] = None
        workers.append(entry)
    return {
        "queue": status.as_dict(),
        "workers": workers,
        "store": {
            "records": len(records),
            "quarantined": len(store.quarantined()),
            "git_hashes": sorted({key.git_hash for key in records}),
        },
    }


@dataclass
class ServiceReport:
    """Rendered significance report plus its machine-readable data."""

    text: str
    data: dict


def build_report(store: ResultsStore, alpha: float = 0.05,
                 metric: str = "hit_rate") -> ServiceReport:
    """Repeated-trial statistics, recomputed from the store alone.

    Records are grouped by git hash and experimental condition
    (:meth:`TrialSpec.condition_of` minus the policy being compared),
    and within each group the per-seed replicas of every policy form
    one sample.  Each group gets:

    * per-policy n / mean / 95% CI, with ranks that *share* a place
      when the adjacent pairwise difference is not significant at
      ``alpha`` (the report refuses to rank what the evidence cannot
      separate);
    * every pairwise Mann-Whitney U p-value with the Vargha-Delaney
      A12 effect size and its conventional magnitude label.
    """
    if metric not in ("hit_rate", "byte_hit_rate"):
        raise ServiceError(
            "metric must be 'hit_rate' or 'byte_hit_rate', "
            f"got {metric!r}")
    groups: Dict[tuple, Dict[str, Dict[int, float]]] = {}
    for sample in store_samples(store):
        value = sample.metrics.get(metric)
        if value is None:
            continue
        samples = groups.setdefault(
            (TrialSpec.condition_of(sample.spec, "policy"),
             sample.git_hash), {})
        # keyed by seed: a duplicate append never double-counts
        samples.setdefault(sample.spec["policy"], {})[sample.seed] = value

    lines: List[str] = []
    data: dict = {"metric": metric, "alpha": alpha, "groups": []}
    for group, by_policy in sorted(groups.items(),
                                   key=lambda item: str(item[0])):
        (trace, scale, fraction, *axes), git_hash = group
        samples = {policy: [value for _, value in sorted(seeds.items())]
                   for policy, seeds in by_policy.items()}
        ranking = rank_policies(samples, alpha=alpha)
        comparisons = [compare(a, samples[a], b, samples[b],
                               alpha=alpha)
                       for i, a in enumerate(sorted(samples))
                       for b in sorted(samples)[i + 1:]]
        widened = "".join(f" {axis}={value}" for axis, value in axes)
        lines.append(f"== trace={trace} scale={scale:g} "
                     f"cache={fraction:.1%}{widened} "
                     f"git={git_hash} ==")
        lines.append(f"{'rank':>4}  {'policy':<14} {'n':>3} "
                     f"{'mean':>8} {'95% CI':>19}")
        for row in ranking:
            summary = row["summary"]
            marker = "" if row["separated"] else "="
            lines.append(
                f"{marker:>1}{row['rank']:>3}  {row['name']:<14} "
                f"{summary['n']:>3} {summary['mean']:>8.4f} "
                f"[{summary['ci_low']:.4f}, {summary['ci_high']:.4f}]")
        lines.append("(= : not significantly different from the row "
                     "above; ranks are shared)")
        lines.append(f"{'pair':<30} {'p':>8} {'A12':>6} "
                     f"{'magnitude':<10} {'significant':<11}")
        for comparison in comparisons:
            lines.append(
                f"{comparison.a + ' vs ' + comparison.b:<30} "
                f"{comparison.p_value:>8.4f} {comparison.a12:>6.3f} "
                f"{comparison.magnitude:<10} "
                f"{str(comparison.significant):<11}")
        lines.append("")
        data["groups"].append({
            "trace": trace, "scale": scale, "size_fraction": fraction,
            "git_hash": git_hash,
            "ranking": ranking,
            "comparisons": [c.as_dict() for c in comparisons],
            **dict(axes),
        })
    if not lines:
        lines.append("(store holds no service records)")
    return ServiceReport(text="\n".join(lines).rstrip(), data=data)


# --------------------------------------------------------------------------
# Multi-worker runs
# --------------------------------------------------------------------------

def worker_entry(root: str, lease_ttl: float, max_attempts: int,
                  fault_injector: Optional[FaultInjector],
                  telemetry_dir: Optional[str] = None,
                  trace_context: Optional[dict] = None) -> None:
    """Module-level child-process entry (must be picklable/forkable).

    Children never share the parent's event sink (a forked ``seq``
    counter would interleave corruptly); with ``telemetry_dir`` each
    child appends to its own ``events-<pid>.jsonl`` instead, and
    adopts the supervisor's trace context so its worker/trial spans
    parent into the service span — one trial's wall-time decomposes
    across processes even though each appends to its own file.
    Exits 0 even when the queue was empty.
    """
    if telemetry_dir is not None:
        _events.set_event_sink(_events.EventLog(
            Path(telemetry_dir) / f"events-{os.getpid()}.jsonl"))
        enable_tracing()
        adopt(trace_context)
    else:
        _events.set_event_sink(None)
    queue, store = open_service(root, lease_ttl=lease_ttl,
                                max_attempts=max_attempts)
    work(queue, store, fault_injector=fault_injector)


def run_service(root: PathLike, n_workers: int = 2, *,
                lease_ttl: float = 30.0, max_attempts: int = 3,
                max_restarts: int = 2,
                fault_injector: Optional[FaultInjector] = None,
                telemetry_dir: Optional[PathLike] = None) -> dict:
    """Drain the queue with supervised worker processes.

    Workers are spawned through
    :func:`repro.simulation.parallel.supervise_workers`: one that dies
    abnormally (SIGKILL, injected crash) is restarted up to
    ``max_restarts`` times — its half-done trial comes back anyway via
    lease reclamation, the supervisor just keeps the worker count up.
    After the workers exit, stale leases are reconciled against the
    store so the caller sees an honest status.

    With ``telemetry_dir`` the supervisor opens a ``service`` span and
    each worker process writes spans and lifecycle events to its own
    ``events-<pid>.jsonl`` under that directory, parented to the
    supervisor's span via :func:`repro.observability.trace.inject`.
    """
    from repro.simulation.parallel import supervise_workers

    with _span("service", workers=n_workers) as service_span:
        context = inject()
        outcome = supervise_workers(
            worker_entry,
            args=(str(root), lease_ttl, max_attempts, fault_injector,
                  str(telemetry_dir) if telemetry_dir else None,
                  context),
            n_workers=n_workers, max_restarts=max_restarts)
        queue, store = open_service(root, lease_ttl=lease_ttl,
                                    max_attempts=max_attempts)
        reopened = queue.reconcile(store)
        service_span.set_attribute("reopened", len(reopened))
    return {"workers": outcome, "reopened": reopened,
            "status": queue.status().as_dict()}


# --------------------------------------------------------------------------
# CLI: python -m repro.experiments service <verb>
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    from repro.experiments import regress
    from repro.network.strategies import STRATEGY_NAMES
    from repro.network.topology import TOPOLOGY_KINDS

    parser = argparse.ArgumentParser(
        prog="repro-experiments service",
        description="Durable experiment service: a crash-safe results "
                    "store fed by a lease-based trial queue.")
    parser.add_argument("--root", default="service/",
                        help="service root directory (default: "
                             "service/)")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, **kwargs) -> argparse.ArgumentParser:
        verb_parser = sub.add_parser(name, **kwargs)
        add_observability_options(verb_parser)
        return verb_parser

    enq = verb("enqueue",
               help="add a (trace x policy x size x seed) grid of "
                    "trials, optionally widened by --topologies/"
                    "--strategies/--n or by --shards; idempotent")
    enq.add_argument("--traces", nargs="+", default=["dfn"],
                     choices=list(TRACE_PROFILES))
    enq.add_argument("--scale", choices=list(SCALES), default="tiny")
    enq.add_argument("--policies", nargs="+",
                     default=["lru", "gds(1)", "gd*(1)"])
    enq.add_argument("--size-fractions", nargs="+", type=float,
                     default=[0.01])
    enq.add_argument("--seeds", nargs="+", type=int,
                     default=[42, 1042, 2042])

    enq.add_argument("--topologies", nargs="+", default=None,
                     choices=list(TOPOLOGY_KINDS),
                     help="make it a cache-network grid over these "
                          "shapes; --size-fractions is then the "
                          "aggregate budget split across nodes")
    enq.add_argument("--strategies", nargs="+", default=None,
                     choices=list(STRATEGY_NAMES),
                     help="placement strategies for --topologies "
                          "(default: lce)")
    enq.add_argument("--n", type=int, default=None,
                     help="shape parameter for --topologies: children "
                          "(two-level), proxies (mesh), chain length "
                          "(path), depth (tree) (default: 4)")
    enq.add_argument("--shards", type=int, default=None,
                     help="make it a serving-replay grid at this "
                          "consistent-hash shard count")

    wrk = verb("work", help="run trials until the queue drains",
               description="Run trials until the queue drains.  With "
                           "--telemetry-dir, spans are on and worker "
                           "processes append to their own "
                           "events-<pid>.jsonl there; 'status --watch' "
                           "tails <root>/telemetry by default.")
    wrk.add_argument("--workers", type=int, default=1,
                     help="worker processes (1 = run in-process)")
    wrk.add_argument("--lease-ttl", type=float, default=30.0,
                     help="seconds before an unrenewed lease is "
                          "considered stale and reclaimed")
    wrk.add_argument("--max-trials", type=int, default=None,
                     help="stop after this many trials (in-process "
                          "mode only)")
    wrk.add_argument("--max-attempts", type=int, default=3,
                     help="claims per trial before it is abandoned")

    sta = verb("status", help="queue + store census (one-shot or live)")
    sta.add_argument("--watch", action="store_true",
                     help="repaint a live dashboard (heartbeats, "
                          "open spans, throughput, ETA) instead of "
                          "printing once")
    sta.add_argument("--interval", type=float, default=2.0,
                     help="--watch repaint period in seconds")
    sta.add_argument("--iterations", type=int, default=None,
                     help="stop --watch after N repaints (default: "
                          "until Ctrl-C)")

    rep = verb("report", help="significance report from the store alone")
    rep.add_argument("--metric", choices=("hit_rate", "byte_hit_rate"),
                     default="hit_rate")
    rep.add_argument("--alpha", type=float, default=0.05)
    rep.add_argument("--html", default=None, metavar="PATH",
                     help="also write a self-contained HTML report "
                          "(per-type hit-rate panels, CI whiskers, "
                          "span waterfall when telemetry exists)")

    regress.add_arguments(verb(
        "regress", help="statistically-gated cross-revision regression "
                        "verdicts from the store"))

    verb("compact", help="merge store segments into one sorted, "
                         "deduplicated base file")

    cha = verb("chaos",
               help="prove the guarantees: SIGKILL workers mid-trial, "
                    "corrupt the store, resume, compare against an "
                    "uninterrupted run")
    cha.add_argument("--kills", type=int, default=2)
    cha.add_argument("--corrupt", action="store_true",
                     help="also bit-flip a store segment between "
                          "kills")
    cha.add_argument("--scale", choices=list(SCALES), default="tiny")
    return parser


def _cmd_enqueue(args) -> int:
    queue, _ = open_service(args.root)
    ids = enqueue_grid(
        queue, traces=args.traces, scale=SCALES[args.scale],
        policies=args.policies, size_fractions=args.size_fractions,
        seeds=args.seeds, topologies=args.topologies,
        strategies=args.strategies
        or (["lce"] if args.topologies else None),
        n=args.n, shards=args.shards)
    print(f"enqueued {len(ids)} trial(s); "
          f"{queue.status().pending} pending")
    return 0


def _cmd_work(args) -> int:
    root = Path(args.root)
    # Opened first, so a bad --lease-ttl or --max-attempts is refused
    # before any worker process starts.
    queue, store = open_service(root, lease_ttl=args.lease_ttl,
                                max_attempts=args.max_attempts)
    if args.telemetry_dir is not None:
        enable_tracing()
    # Workers inherit the environment, so exporting this before the
    # pool spawns points every child's trace cache at one place.
    exported = "REPRO_SERVICE_TRACE_DIR" not in os.environ
    if exported:
        os.environ["REPRO_SERVICE_TRACE_DIR"] = str(root / "traces")
    try:
        if args.workers > 1:
            outcome = run_service(
                root, n_workers=args.workers, lease_ttl=args.lease_ttl,
                max_attempts=args.max_attempts,
                telemetry_dir=args.telemetry_dir)
            print(canonical_json(outcome["status"]))
            return 0
        executed = work(queue, store, max_trials=args.max_trials)
        queue.reconcile(store)
        print(f"executed {executed} trial(s); "
              f"{canonical_json(queue.status().as_dict())}")
        return 0
    finally:
        if exported:
            del os.environ["REPRO_SERVICE_TRACE_DIR"]


def _cmd_status(args) -> int:
    if args.watch:
        from repro.experiments.dashboard import watch
        return watch(Path(args.root), interval=args.interval,
                     iterations=args.iterations)
    print(canonical_json(service_status(args.root)))
    return 0


def _cmd_report(args) -> int:
    _, store = open_service(args.root)
    print(build_report(store, alpha=args.alpha, metric=args.metric).text)
    if args.html is not None:
        from repro.experiments.htmlreport import (
            report_from_store,
            write_html_report,
        )
        from repro.observability.events import read_events
        spans: List[dict] = []
        telemetry_dir = Path(args.root) / "telemetry"
        if telemetry_dir.is_dir():
            for path in sorted(telemetry_dir.glob("events*.jsonl")):
                spans.extend(read_events(path, event="span"))
        document = report_from_store(store, span_events=spans or None)
        written = write_html_report(args.html, document)
        print(f"html report written to {written}", file=sys.stderr)
    return 0


def _cmd_regress(args) -> int:
    from repro.experiments import regress
    return regress.run(args)


def _cmd_compact(args) -> int:
    _, store = open_service(args.root)
    stats = store.compact()
    print(f"compacted: {stats.records} record(s) from "
          f"{stats.segments_merged} segment(s); "
          f"{stats.quarantined} quarantined, "
          f"{stats.duplicates_dropped} duplicate(s) dropped")
    return 0


def _cmd_chaos(args) -> int:
    from repro.experiments.chaos import run_chaos
    report = run_chaos(Path(args.root), kills=args.kills,
                       corrupt=args.corrupt, scale=SCALES[args.scale])
    print(report.render())
    return 0 if report.ok else 1


_VERBS = {"enqueue": _cmd_enqueue, "work": _cmd_work,
          "status": _cmd_status, "report": _cmd_report,
          "regress": _cmd_regress, "compact": _cmd_compact,
          "chaos": _cmd_chaos}


def main(argv: Optional[List[str]] = None) -> int:
    return run_verbs(build_parser(), _VERBS, "service", argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
