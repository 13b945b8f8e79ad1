"""Append-only telemetry event streams (``events.jsonl``).

An :class:`EventLog` writes one JSON object per line: a wall-clock
``ts``, a monotonically increasing ``seq`` (total order independent of
clock resolution), the ``event`` name, and event-specific fields.  The
schema of every event the library emits lives in :data:`EVENT_SCHEMAS`
so telemetry files can be validated offline
(:mod:`repro.observability.validate`) and replayed to reconstruct a
run's full history — which cells ran, retried, timed out, or were
restored from checkpoints, and where the trace reader burned its
error budget.

Instrumented library code emits through the module-level :func:`emit`,
which routes to the process-wide sink — a no-op unless a
:class:`~repro.observability.manifest.TelemetryRun` (or an explicit
:func:`set_event_sink`) installed a real log.  Emitting to the null
sink costs one attribute call, so the library is free to emit from
cold paths unconditionally.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Union

from repro.observability.logs import get_logger

PathLike = Union[str, Path]

_logger = get_logger("observability.events")

#: event name -> required field names (beyond ``ts``/``seq``/``event``).
EVENT_SCHEMAS: Dict[str, Set[str]] = {
    # run lifecycle (manifest side)
    "run_started": {"kind", "run_id"},
    "run_finished": {"kind", "run_id", "status", "wall_clock_seconds"},
    # parallel sweep cell lifecycle
    "cell_scheduled": {"key", "attempt"},
    "cell_finished": {"key", "attempt", "duration_seconds"},
    "cell_retried": {"key", "attempt", "error_type", "delay_seconds"},
    "cell_timed_out": {"key", "attempt", "timeout_seconds"},
    "cell_failed": {"key", "attempts", "error_type"},
    "cell_checkpoint_restored": {"key"},
    "pool_rebuilt": {"reason"},
    # shared-pass engine (one trace pass serving N cache cells)
    "pass_started": {"cells", "requests"},
    "pass_finished": {"cells", "requests", "duration_seconds",
                      "lru_ladder_cells"},
    # analytical model (repro.model): calibration and predictions
    "model_calibrated": {"documents", "requests", "source"},
    "model_predicted": {"policy", "capacity_bytes", "hit_rate"},
    "model_curve_computed": {"policy", "points"},
    "model_validated": {"cells", "mean_absolute_error",
                        "max_absolute_error"},
    "hierarchy_model_validated": {"cells", "mean_absolute_error",
                                  "max_absolute_error"},
    # cache-network engine (repro.network)
    "network_simulated": {"trace", "requests", "hit_rate",
                          "byte_hit_rate", "sibling_serves",
                          "topology", "strategy"},
    # suite experiment lifecycle
    "experiment_started": {"experiment_id"},
    "experiment_finished": {"experiment_id", "duration_seconds"},
    "experiment_retried": {"experiment_id", "attempt", "error_type"},
    "experiment_failed": {"experiment_id", "attempts", "error_type"},
    "experiment_checkpoint_restored": {"experiment_id"},
    # trace-reader error budget
    "trace_line_quarantined": {"error"},
    "trace_error_budget_exhausted": {"errors"},
    # durable experiment service: leases
    "lease_acquired": {"name", "owner"},
    "lease_renewed": {"name", "owner"},
    "lease_reclaimed": {"name", "owner", "previous_owner"},
    "lease_lost": {"name", "owner"},
    # durable experiment service: trial queue lifecycle
    "trial_enqueued": {"trial_id"},
    "trial_claimed": {"trial_id", "owner", "attempt"},
    "trial_completed": {"trial_id", "owner", "duration_seconds"},
    "trial_requeued": {"trial_id", "reason"},
    "trial_abandoned": {"trial_id", "attempts", "reason"},
    # durable experiment service: results store
    "record_appended": {"key"},
    "record_quarantined": {"source", "reason"},
    "store_compacted": {"records", "segments", "quarantined"},
    # durable experiment service: worker lifecycle
    "service_worker_started": {"owner"},
    "service_worker_exited": {"owner", "executed"},
    "service_worker_restarted": {"worker", "exitcode", "restarts"},
    # online serving subsystem (repro.serving)
    "serving_started": {"host", "port", "shards", "policy",
                        "capacity_bytes"},
    "replay_finished": {"requests", "threads", "shards", "policy",
                        "hit_rate", "duration_seconds",
                        "requests_per_second"},
    "shard_rebalanced": {"action", "shard", "shards"},
    # hierarchical spans (repro.observability.trace): opened on start
    # so live dashboards see in-flight work, closed with the timing
    "span_started": {"name", "trace_id", "span_id", "parent_id"},
    "span": {"name", "trace_id", "span_id", "parent_id", "started_at",
             "duration_seconds", "status"},
}

_STR = (str,)
_NUM = (int, float)
_OPT_STR = (str, type(None))

#: event name -> {field: allowed types}.  Presence alone is too weak
#: for the fields downstream tooling computes with — the regression
#: detector and span waterfall would silently misrender a span whose
#: duration is a string — so these are type-checked on validation.
#: Only fields with a contract consumers rely on are listed.
EVENT_FIELD_TYPES: Dict[str, Dict[str, tuple]] = {
    "span_started": {"name": _STR, "trace_id": _STR, "span_id": _STR,
                     "parent_id": _OPT_STR},
    "span": {"name": _STR, "trace_id": _STR, "span_id": _STR,
             "parent_id": _OPT_STR, "started_at": _NUM,
             "duration_seconds": _NUM, "status": _STR},
    # durable-service lifecycle: the live dashboard aggregates these
    "service_worker_started": {"owner": _STR},
    "service_worker_exited": {"owner": _STR, "executed": (int,)},
    "service_worker_restarted": {"worker": (int,),
                                 "restarts": (int,)},
    "trial_claimed": {"trial_id": _STR, "owner": _STR,
                      "attempt": (int,)},
    "trial_completed": {"trial_id": _STR, "owner": _STR,
                        "duration_seconds": _NUM},
    "trial_abandoned": {"trial_id": _STR, "attempts": (int,),
                        "reason": _STR},
    "lease_acquired": {"name": _STR, "owner": _STR},
    "lease_renewed": {"name": _STR, "owner": _STR},
    "lease_reclaimed": {"name": _STR, "owner": _STR,
                        "previous_owner": _STR},
    "lease_lost": {"name": _STR, "owner": _STR},
    "record_appended": {"key": _STR},
    "store_compacted": {"records": (int,), "segments": (int,),
                        "quarantined": (int,)},
    # online serving: the replay gate and dashboards read these
    "serving_started": {"host": _STR, "port": (int,),
                        "shards": (int,), "policy": _STR,
                        "capacity_bytes": (int,)},
    "replay_finished": {"requests": (int,), "threads": (int,),
                        "shards": (int,), "policy": _STR,
                        "hit_rate": _NUM, "duration_seconds": _NUM,
                        "requests_per_second": _NUM},
    "shard_rebalanced": {"action": _STR, "shard": _STR,
                         "shards": (int,)},
}


def validate_event(event: dict) -> List[str]:
    """Problems with one event dict; empty list when it conforms."""
    problems = []
    if not isinstance(event, dict):
        return [f"event is not an object: {event!r}"]
    name = event.get("event")
    for required in ("ts", "seq", "event"):
        if required not in event:
            problems.append(f"missing {required!r} in {name or event!r}")
    if name not in EVENT_SCHEMAS:
        problems.append(f"unknown event type {name!r}")
        return problems
    missing = EVENT_SCHEMAS[name] - set(event)
    if missing:
        problems.append(
            f"{name}: missing fields {sorted(missing)}")
    for field, allowed in EVENT_FIELD_TYPES.get(name, {}).items():
        if field not in event:
            continue  # absence is already reported above
        value = event[field]
        # bool is an int subclass but never a legal count/duration
        if not isinstance(value, allowed) or (isinstance(value, bool)
                                              and bool not in allowed):
            problems.append(
                f"{name}: field {field!r} has type "
                f"{type(value).__name__}, expected "
                + " or ".join(t.__name__ for t in allowed))
    return problems


class EventLog:
    """An append-only ``events.jsonl`` writer.

    Lines are flushed as they are written, so a crashed run keeps every
    event emitted before the crash.  The log is a context manager;
    closing it is idempotent.
    """

    def __init__(self, path: PathLike, clock=time.time):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._seq = 0
        self._stream = open(self.path, "a", encoding="utf-8")

    def emit(self, event: str, **fields) -> dict:
        """Append one event; returns the record as written."""
        self._seq += 1
        record = {"ts": round(self._clock(), 6), "seq": self._seq,
                  "event": event}
        record.update(fields)
        self._stream.write(json.dumps(record, default=str) + "\n")
        self._stream.flush()
        return record

    def close(self) -> None:
        if not self._stream.closed:
            self._stream.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullEventLog:
    """The do-nothing default sink."""

    def emit(self, event: str, **fields) -> dict:
        return {}

    def close(self) -> None:
        pass


_NULL_SINK = NullEventLog()
_sink = _NULL_SINK


def set_event_sink(sink: Optional[EventLog]) -> object:
    """Install the process-wide sink; returns the previous one."""
    global _sink
    previous = _sink
    _sink = sink if sink is not None else _NULL_SINK
    return previous


def event_sink():
    """The currently installed process-wide sink."""
    return _sink


def emit(event: str, **fields) -> dict:
    """Emit through the process-wide sink (no-op by default)."""
    return _sink.emit(event, **fields)


def iter_events(path: PathLike, strict: bool = False) -> Iterator[dict]:
    """Stream parsed events from an ``events.jsonl`` file.

    A line that does not parse — usually the torn trailing line a
    SIGKILL'd writer left mid-append — is skipped with a warning
    instead of poisoning every event before it; the crash-safety story
    promises that events emitted before a crash stay readable.  Pass
    ``strict=True`` to re-raise instead (offline validation wants the
    error, not the tolerance).
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as stream:
        for number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except ValueError:
                if strict:
                    raise
                _logger.warning(
                    "skipping unparsable event line (%s line %d, "
                    "%d bytes): torn append?", path.name, number,
                    len(line),
                    extra={"source": path.name, "line_number": number})


def read_events(path: PathLike,
                event: Optional[str] = None) -> List[dict]:
    """All events from a file, optionally filtered by event name."""
    records = list(iter_events(path))
    if event is not None:
        records = [r for r in records if r.get("event") == event]
    return records
