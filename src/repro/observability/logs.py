"""Structured logging for the repro library.

Every module logs through a child of the ``"repro"`` logger
(:func:`get_logger`).  The library itself never configures handlers —
a :class:`logging.NullHandler` keeps it silent by default — so
embedding applications keep full control.  CLIs and scripts call
:func:`configure` once to get either human-readable lines or JSON
lines on stderr::

    from repro.observability import configure_logging

    configure_logging(level="debug", json_lines=True)

Extra fields passed via ``logger.info("...", extra={"cell": key})``
survive into the JSON output as top-level keys, which is what makes
``--log-json`` machine-parseable end to end.  Lifecycle events reach
the same handlers that way: :func:`repro.observability.events.emit`
logs each event on ``repro.events`` with its fields as extras.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import Callable, IO, Optional

ROOT_LOGGER_NAME = "repro"

#: ``LogRecord`` attributes that are bookkeeping, not user fields
#: (``logging`` refuses them as ``extra`` keys).
RESERVED_FIELDS = frozenset(
    ("name", "msg", "args", "levelname", "levelno", "pathname",
     "filename", "module", "exc_info", "exc_text", "stack_info",
     "lineno", "funcName", "created", "msecs", "relativeCreated",
     "thread", "threadName", "processName", "process", "message",
     "asctime", "taskName"))

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
    "critical": logging.CRITICAL,
}

LOG_LEVELS = tuple(_LEVELS)


def _extra_fields(record: logging.LogRecord) -> dict:
    return {key: value for key, value in record.__dict__.items()
            if key not in RESERVED_FIELDS and not key.startswith("_")}


class JsonLinesFormatter(logging.Formatter):
    """One JSON object per log line: ts, level, logger, message, extras."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        payload.update(_extra_fields(record))
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str, sort_keys=False)


class PlainFormatter(logging.Formatter):
    """``HH:MM:SS LEVEL logger: message key=value ...`` for humans."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = time.strftime("%H:%M:%S", time.localtime(record.created))
        line = (f"{stamp} {record.levelname:<7} {record.name}: "
                f"{record.getMessage()}")
        extras = _extra_fields(record)
        if extras:
            line += " " + " ".join(f"{k}={v}"
                                   for k, v in sorted(extras.items()))
        if record.exc_info:
            line += "\n" + self.formatException(record.exc_info)
        return line


class _DeferredStreamHandler(logging.Handler):
    """Writes to a stream resolved per record.

    Resolving ``sys.stderr`` lazily (instead of freezing it at
    configure time) keeps logging working under test harnesses that
    swap the streams out, and after ``stderr`` redirections.
    """

    def __init__(self, stream_getter: Callable[[], IO[str]]):
        super().__init__()
        self._stream_getter = stream_getter

    def emit(self, record: logging.LogRecord) -> None:
        try:
            stream = self._stream_getter()
            stream.write(self.format(record) + "\n")
            stream.flush()
        except Exception:  # pragma: no cover - mirrors StreamHandler
            self.handleError(record)


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """A child of the library's ``"repro"`` logger."""
    if not name or name == ROOT_LOGGER_NAME:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name.startswith(ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def configure(level: str = "info", json_lines: bool = False,
              stream: Optional[IO[str]] = None) -> logging.Logger:
    """Configure the library's logging once, idempotently.

    Args:
        level: One of ``debug``/``info``/``warning``/``error``/
            ``critical`` (case-insensitive).
        json_lines: Emit one JSON object per line instead of text.
        stream: Output stream; defaults to (a live view of)
            ``sys.stderr`` so stdout stays reserved for results.

    Returns the configured ``"repro"`` logger.  Calling again replaces
    the previous configuration rather than stacking handlers.
    """
    key = level.lower()
    if key not in _LEVELS:
        raise ValueError(
            f"unknown log level {level!r}; known: {', '.join(_LEVELS)}")
    getter = (lambda: sys.stderr) if stream is None else (lambda: stream)
    handler = _DeferredStreamHandler(getter)
    handler.setFormatter(JsonLinesFormatter() if json_lines
                         else PlainFormatter())
    handler._repro_configured = True  # tag for idempotent replacement

    logger = logging.getLogger(ROOT_LOGGER_NAME)
    for old in list(logger.handlers):
        if getattr(old, "_repro_configured", False) or \
                isinstance(old, logging.NullHandler):
            logger.removeHandler(old)
    logger.addHandler(handler)
    logger.setLevel(_LEVELS[key])
    logger.propagate = False
    return logger


# Silence "no handler" warnings until/unless configure() is called.
logging.getLogger(ROOT_LOGGER_NAME).addHandler(logging.NullHandler())
