"""Shared malformed-line accounting for the trace parsers.

Real proxy logs are dirty: truncated lines, binary garbage from log
rotation, mid-write crashes.  Lenient parsing (``strict=False``) must
not turn into *silent* data loss, so every parser routes its bad
lines through an :class:`ErrorBudget`: malformed lines are counted,
optionally quarantined via a callback, and — when ``max_errors`` is
set — the parse aborts once the budget is exhausted instead of
happily skipping half the trace.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import TraceFormatError
from repro.observability import events as _events
from repro.observability.metrics import get_registry


class ErrorBudget:
    """Counts malformed lines and enforces an optional cap.

    Args:
        strict: Raise on the first malformed line (no budget at all).
        max_errors: Abort with :class:`~repro.errors.TraceFormatError`
            once more than this many lines are malformed.  ``None``
            (the default) allows any number, preserving the historical
            lenient behaviour — but still counted and observable.
        on_error: Quarantine callback invoked with each
            :class:`~repro.errors.TraceFormatError` before it is
            swallowed; use it to log or persist the offending lines.
    """

    def __init__(self, strict: bool = False,
                 max_errors: Optional[int] = None,
                 on_error: Optional[Callable[[TraceFormatError], None]]
                 = None):
        if max_errors is not None and max_errors < 0:
            raise TraceFormatError("max_errors must be >= 0")
        self.strict = strict
        self.max_errors = max_errors
        self.on_error = on_error
        self.errors = 0

    def record(self, error: TraceFormatError) -> None:
        """Account for one malformed line.

        Raises the error itself in strict mode; raises a budget-
        exhaustion :class:`~repro.errors.TraceFormatError` when the
        cap is crossed; otherwise counts the line and notifies the
        quarantine callback.
        """
        if self.strict:
            raise error
        self.errors += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("trace_malformed_lines_total").inc()
        _events.emit("trace_line_quarantined", error=str(error),
                     errors=self.errors)
        if self.on_error is not None:
            self.on_error(error)
        if self.max_errors is not None and self.errors > self.max_errors:
            _events.emit("trace_error_budget_exhausted",
                         errors=self.errors, max_errors=self.max_errors)
            raise TraceFormatError(
                f"error budget exhausted: {self.errors} malformed "
                f"lines (max_errors={self.max_errors}); last: {error}"
            ) from error
