"""Lifecycle events: one ``emit`` call per signal, one table of events.

:func:`emit` is the only call a lifecycle point makes.  It appends the
event to the process-wide sink — an :class:`EventLog` writing one JSON
object per line to ``events.jsonl`` (a wall-clock ``ts``, a
monotonically increasing ``seq``, the ``event`` name, the fields), or
a no-op unless a :class:`~repro.observability.manifest.TelemetryRun`
(or an explicit :func:`set_event_sink`) installed a real log — and
then logs the same event on the ``repro.events`` logger: the message is
the event name, the fields ride as ``extra``, so the formatters of
:mod:`repro.observability.logs` print them as ``key=value`` pairs or
top-level JSON keys.  No call site restates an event as a prose log
line, so the two streams cannot drift.

:data:`EVENT_TABLE` is the one place that knows an event: its log
level and its required fields with the types downstream tooling relies
on.  Telemetry files are validated against it offline
(:mod:`repro.observability.validate`) and replayed to reconstruct a
run's full history — which cells ran, retried, timed out, or were
restored from checkpoints, and where the trace reader burned its
error budget.  A new signal is one table row plus one ``emit``.

With the null sink and an unconfigured (or ``info``-level) logger a
DEBUG event costs one no-op call and one level check, so the library
is free to emit from cold paths unconditionally.
"""

from __future__ import annotations

import json
import time
from logging import DEBUG, ERROR, INFO, WARNING
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.observability.logs import RESERVED_FIELDS, get_logger

PathLike = Union[str, Path]

_logger = get_logger("observability.events")

#: Every emitted event is also one record on this logger.
_event_logger = get_logger("events")

_STR = (str,)
_INT = (int,)
_NUM = (int, float)
_OPT_STR = (str, type(None))

#: event name -> (log level, {required field: allowed types}).  The
#: fields are those beyond ``ts``/``seq``/``event``; a site may pass
#: more.  ``None`` checks presence only.  Presence alone is too weak
#: for the fields downstream tooling computes with — the regression
#: detector and span waterfall would silently misrender a span whose
#: duration is a string — so fields with a contract consumers rely on
#: carry their types.  Levels: ERROR is work lost for good, WARNING a
#: fault the run recovered from, INFO a milestone an operator follows
#: at the default level, DEBUG everything per cell, per line or per
#: span.
EVENT_TABLE: Dict[str, Tuple[int, Dict[str, Optional[tuple]]]] = {
    # run lifecycle (manifest side)
    "run_started": (DEBUG, {"kind": None, "run_id": None}),
    "run_finished": (DEBUG, {"kind": None, "run_id": None,
                             "status": None,
                             "wall_clock_seconds": None}),
    # parallel sweep cell lifecycle
    "cell_scheduled": (DEBUG, {"key": None, "attempt": None}),
    "cell_finished": (DEBUG, {"key": None, "attempt": None,
                              "duration_seconds": None}),
    "cell_retried": (WARNING, {"key": None, "attempt": None,
                               "error_type": None,
                               "delay_seconds": None}),
    "cell_timed_out": (DEBUG, {"key": None, "attempt": None,
                               "timeout_seconds": None}),
    "cell_failed": (ERROR, {"key": None, "attempts": None,
                            "error_type": None}),
    "cell_checkpoint_restored": (DEBUG, {"key": None}),
    # shared-pass engine (one trace pass serving N cache cells)
    "pass_started": (DEBUG, {"cells": None, "requests": None}),
    "pass_finished": (DEBUG, {"cells": None, "requests": None,
                              "duration_seconds": None,
                              "lru_ladder_cells": None,
                              "queue_cells": None,
                              "heap_cells": None}),
    # analytical model (repro.model): calibration and predictions
    "model_calibrated": (DEBUG, {"documents": None, "requests": None,
                                 "source": None}),
    "model_predicted": (DEBUG, {"policy": None, "capacity_bytes": None,
                                "hit_rate": None}),
    "model_curve_computed": (DEBUG, {"policy": None, "points": None}),
    "model_validated": (INFO, {"cells": None,
                               "mean_absolute_error": None,
                               "max_absolute_error": None}),
    "hierarchy_model_validated": (INFO, {"cells": None,
                                         "mean_absolute_error": None,
                                         "max_absolute_error": None}),
    # cache-network engine (repro.network)
    "network_simulated": (DEBUG, {"trace": None, "requests": None,
                                  "hit_rate": None,
                                  "byte_hit_rate": None,
                                  "sibling_serves": None,
                                  "topology": None, "strategy": None}),
    # suite experiment lifecycle
    "experiment_started": (INFO, {"experiment_id": None}),
    "experiment_finished": (INFO, {"experiment_id": None,
                                   "duration_seconds": None}),
    "experiment_retried": (WARNING, {"experiment_id": None,
                                     "attempt": None,
                                     "error_type": None}),
    "experiment_failed": (ERROR, {"experiment_id": None,
                                  "attempts": None,
                                  "error_type": None}),
    "experiment_checkpoint_restored": (INFO, {"experiment_id": None}),
    # trace-reader error budget
    "trace_line_quarantined": (DEBUG, {"error": None}),
    "trace_error_budget_exhausted": (ERROR, {"errors": None}),
    # durable experiment service: leases
    "lease_acquired": (DEBUG, {"name": _STR, "owner": _STR}),
    "lease_renewed": (DEBUG, {"name": _STR, "owner": _STR}),
    "lease_reclaimed": (WARNING, {"name": _STR, "owner": _STR,
                                  "previous_owner": _STR}),
    "lease_lost": (DEBUG, {"name": _STR, "owner": _STR}),
    # durable experiment service: trial queue lifecycle (the live
    # dashboard aggregates these)
    "trial_enqueued": (DEBUG, {"trial_id": None}),
    "trial_claimed": (DEBUG, {"trial_id": _STR, "owner": _STR,
                              "attempt": _INT}),
    "trial_completed": (INFO, {"trial_id": _STR, "owner": _STR,
                               "duration_seconds": _NUM}),
    "trial_requeued": (WARNING, {"trial_id": None, "reason": None}),
    "trial_abandoned": (ERROR, {"trial_id": _STR, "attempts": _INT,
                                "reason": _STR}),
    # durable experiment service: results store
    "record_appended": (DEBUG, {"key": _STR}),
    "record_quarantined": (WARNING, {"source": None, "reason": None}),
    "store_compacted": (INFO, {"records": _INT, "segments": _INT,
                               "quarantined": _INT}),
    # durable experiment service: worker lifecycle
    "service_worker_started": (INFO, {"owner": _STR}),
    "service_worker_exited": (INFO, {"owner": _STR, "executed": _INT}),
    "service_worker_restarted": (WARNING, {"worker": _INT,
                                           "exitcode": None,
                                           "restarts": _INT}),
    # online serving subsystem (repro.serving): the replay gate and
    # dashboards read these
    "serving_started": (INFO, {"host": _STR, "port": _INT,
                               "shards": _INT, "policy": _STR,
                               "capacity_bytes": _INT}),
    "replay_finished": (DEBUG, {"requests": _INT, "threads": _INT,
                                "shards": _INT, "policy": _STR,
                                "hit_rate": _NUM,
                                "duration_seconds": _NUM,
                                "requests_per_second": _NUM}),
    "shard_rebalanced": (DEBUG, {"action": _STR, "shard": _STR,
                                 "shards": _INT}),
    # hierarchical spans (repro.observability.trace): opened on start
    # so live dashboards see in-flight work, closed with the timing
    "span_started": (DEBUG, {"name": _STR, "trace_id": _STR,
                             "span_id": _STR, "parent_id": _OPT_STR}),
    "span": (DEBUG, {"name": _STR, "trace_id": _STR, "span_id": _STR,
                     "parent_id": _OPT_STR, "started_at": _NUM,
                     "duration_seconds": _NUM, "status": _STR}),
}

#: event name -> required field names; a view of :data:`EVENT_TABLE`.
EVENT_SCHEMAS: Dict[str, Set[str]] = {
    name: set(fields) for name, (_, fields) in EVENT_TABLE.items()}

#: event name -> {field: allowed types} for the type-checked fields;
#: a view of :data:`EVENT_TABLE`.
EVENT_FIELD_TYPES: Dict[str, Dict[str, tuple]] = {
    name: {field: allowed for field, allowed in fields.items()
           if allowed is not None}
    for name, (_, fields) in EVENT_TABLE.items()}


def validate_event(event: dict) -> List[str]:
    """Problems with one event dict; empty list when it conforms."""
    problems = []
    if not isinstance(event, dict):
        return [f"event is not an object: {event!r}"]
    name = event.get("event")
    for required in ("ts", "seq", "event"):
        if required not in event:
            problems.append(f"missing {required!r} in {name or event!r}")
    if name not in EVENT_TABLE:
        problems.append(f"unknown event type {name!r}")
        return problems
    fields = EVENT_TABLE[name][1]
    missing = fields.keys() - event.keys()
    if missing:
        problems.append(
            f"{name}: missing fields {sorted(missing)}")
    for field, allowed in fields.items():
        if allowed is None or field not in event:
            continue  # untyped, or absence already reported above
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
    """Emit one event: to the process-wide sink (no-op by default) and
    as one ``repro.events`` log record at the event's table level
    (DEBUG for a name the table does not list).

    The record's message is the event name and its ``extra`` the
    fields; a field named like a ``LogRecord`` attribute (``name``,
    ``message``, ...) cannot ride as ``extra`` and is logged as
    ``event_<field>`` — the sink's record keeps the plain name.
    """
    record = _sink.emit(event, **fields)
    level = EVENT_TABLE.get(event, (DEBUG,))[0]  # unlisted: DEBUG
    if _event_logger.isEnabledFor(level):
        _event_logger.log(level, event, extra={
            f"event_{key}" if key in RESERVED_FIELDS else key: value
            for key, value in fields.items()})
    return record


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
