"""Deterministic retry with capped exponential backoff.

The suite runner retries *transient* failures — worker crashes, cell
timeouts, corrupt payloads — whose reruns are safe because every cell
is a pure function of its config and the trace.
Backoff is deterministic (no jitter): delays are reproducible, and the
sleep/clock are injectable so tests run instantly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Type, TypeVar

from repro.errors import ConfigurationError
from repro.observability.logs import get_logger

T = TypeVar("T")

_logger = get_logger("resilience.retry")


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry and how long to wait between attempts.

    Attributes:
        max_retries: Retries *after* the first attempt (0 = one try).
        base_delay: Delay before the first retry, in seconds.
        backoff: Multiplier applied per subsequent retry.
        max_delay: Cap on any single delay.
    """

    max_retries: int = 2
    base_delay: float = 0.1
    backoff: float = 2.0
    max_delay: float = 30.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("delays must be >= 0")
        if self.backoff < 1.0:
            raise ConfigurationError("backoff must be >= 1")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def delay(self, retry_number: int) -> float:
        """Delay before retry ``retry_number`` (1-based)."""
        if retry_number < 1:
            raise ConfigurationError("retry_number is 1-based")
        raw = self.base_delay * self.backoff ** (retry_number - 1)
        return min(raw, self.max_delay)

    def delays(self) -> List[float]:
        """The full deterministic backoff schedule."""
        return [self.delay(n) for n in range(1, self.max_retries + 1)]


def retry_call(fn: Callable[[], T],
               policy: RetryPolicy = RetryPolicy(),
               retry_on: Tuple[Type[BaseException], ...] = (Exception,),
               sleep: Callable[[float], None] = time.sleep,
               on_retry: Optional[Callable[[int, BaseException], None]]
               = None) -> T:
    """Call ``fn`` until it succeeds or the retry budget is spent.

    Args:
        fn: Zero-argument callable (bind arguments with a closure).
        policy: Attempt/backoff budget.
        retry_on: Exception types considered transient; anything else
            propagates immediately.
        sleep: Injectable sleep (pass a no-op recorder in tests).
        on_retry: Invoked with (upcoming_attempt_number, exception)
            before each retry sleep.

    Raises the last exception when the budget is exhausted.
    """
    last: Optional[BaseException] = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn()
        except retry_on as exc:
            last = exc
            if attempt == policy.max_attempts:
                raise
            delay = policy.delay(attempt)
            _logger.warning(
                "attempt %d/%d failed (%s: %s); retrying in %.2fs",
                attempt, policy.max_attempts, type(exc).__name__, exc,
                delay,
                extra={"attempt": attempt,
                       "max_attempts": policy.max_attempts,
                       "error_type": type(exc).__name__,
                       "delay_seconds": delay})
            if on_retry is not None:
                on_retry(attempt + 1, exc)
            sleep(delay)
    raise last  # pragma: no cover - loop always returns or raises
