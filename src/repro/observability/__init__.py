"""Telemetry for the simulation stack: logs, metrics, events, timing.

Four orthogonal pieces, all zero-overhead until switched on:

* :mod:`~repro.observability.logs` — structured logging (plain text or
  JSON lines) behind one :func:`configure` call; the library is silent
  by default.
* :mod:`~repro.observability.metrics` — an in-process counter / gauge /
  histogram registry whose default implementation is a shared no-op.
* :mod:`~repro.observability.manifest` /
  :mod:`~repro.observability.events` — per-run ``manifest.json`` +
  append-only ``events.jsonl`` recording cell and experiment lifecycle,
  retries, timeouts, and checkpoint restores
  (:class:`TelemetryRun` bundles both; see also
  :mod:`repro.observability.validate` for offline checking).
  :func:`emit` is the one call a lifecycle point makes: it writes the
  event to the installed sink *and* logs it on ``repro.events`` at the
  level :data:`~repro.observability.events.EVENT_TABLE` gives it, so
  an event and its log line are the same datum.
* :mod:`~repro.observability.progress` /
  :mod:`~repro.observability.profiling` — heartbeat/ETA reporting and
  per-phase timers plus opt-in cProfile dumps.

Typical setup in a script::

    from repro.observability import configure_logging, enable_metrics

    configure_logging(level="info", json_lines=True)
    registry = enable_metrics()
"""

from repro.observability.events import (
    EVENT_FIELD_TYPES,
    EVENT_SCHEMAS,
    EventLog,
    NullEventLog,
    emit,
    event_sink,
    iter_events,
    read_events,
    set_event_sink,
    validate_event,
)
from repro.observability.logs import (
    LOG_LEVELS,
    JsonLinesFormatter,
    PlainFormatter,
    get_logger,
)
from repro.observability.logs import configure as configure_logging
from repro.observability.manifest import (
    RunManifest,
    TelemetryRun,
    host_info,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    set_registry,
)
from repro.observability.profiling import (
    PhaseTimings,
    maybe_profile,
    phase_timer,
)
from repro.observability.progress import ProgressReporter
from repro.observability.trace import (
    NullTracer,
    Span,
    Tracer,
    adopt,
    disable_tracing,
    enable_tracing,
    get_tracer,
    inject,
    set_tracer,
    span,
)
from repro.observability.validate import validate_telemetry_dir

__all__ = [
    # logs
    "configure_logging", "get_logger", "LOG_LEVELS",
    "JsonLinesFormatter", "PlainFormatter",
    # metrics
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
    "get_registry", "set_registry", "enable_metrics", "disable_metrics",
    # events
    "EventLog", "NullEventLog", "EVENT_SCHEMAS", "EVENT_FIELD_TYPES",
    "emit", "event_sink", "set_event_sink", "iter_events",
    "read_events", "validate_event",
    # spans
    "Span", "Tracer", "NullTracer", "span", "get_tracer", "set_tracer",
    "enable_tracing", "disable_tracing", "inject", "adopt",
    # manifest
    "RunManifest", "TelemetryRun", "host_info",
    # progress / profiling
    "ProgressReporter", "PhaseTimings", "phase_timer", "maybe_profile",
    # validation
    "validate_telemetry_dir",
]
