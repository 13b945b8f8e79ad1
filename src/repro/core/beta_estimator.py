"""Online estimation of the temporal-correlation exponent β.

GD*'s "novel feature" (paper Section 3) is that its aging exponent β can
be calculated in an on-line fashion, making the policy adaptive to the
workload.  Following Jin & Bestavros, β is the negated slope of the
reuse-distance distribution on a log-log plot: the probability that a
document is re-requested k requests after its previous request scales
as k^{-β}.

:class:`OnlineBetaEstimator` accumulates observed reuse distances in a
log-binned histogram and refits the slope every ``refresh_interval``
observations, with exponential decay of old counts so the estimate
tracks workload drift.  Estimates are clamped to [min_beta, max_beta]
(Jin & Bestavros cap β at 1; values near 0 would send GD*'s exponent
1/β to infinity).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.structures.histogram import LogHistogram, least_squares_slope


class OnlineBetaEstimator:
    """Streaming β estimate from reuse distances."""

    def __init__(self,
                 initial_beta: float = 1.0,
                 min_beta: float = 0.05,
                 max_beta: float = 1.0,
                 refresh_interval: int = 2000,
                 min_samples: int = 500,
                 decay: float = 0.75,
                 max_distance: float = 1e8,
                 bins_per_decade: int = 6):
        if not 0.0 < min_beta <= max_beta:
            raise ConfigurationError("need 0 < min_beta <= max_beta")
        if not min_beta <= initial_beta <= max_beta:
            raise ConfigurationError("initial_beta outside [min, max]")
        if refresh_interval <= 0 or min_samples <= 0:
            raise ConfigurationError("intervals must be positive")
        if not 0.0 <= decay <= 1.0:
            raise ConfigurationError("decay must be in [0, 1]")
        self.min_beta = min_beta
        self.max_beta = max_beta
        self.refresh_interval = refresh_interval
        self.min_samples = min_samples
        self.decay = decay
        self._histogram = LogHistogram(max_value=max_distance,
                                       bins_per_decade=bins_per_decade)
        #: Current (clamped) estimate.
        self.beta = initial_beta
        self._since_refresh = 0
        self.refreshes = 0
        self.observations = 0

    def observe(self, reuse_distance: float) -> None:
        """Feed one reuse distance (in requests, >= 1)."""
        if reuse_distance < 1:
            reuse_distance = 1
        self._histogram.add(reuse_distance)
        self.observations += 1
        self._since_refresh += 1
        if self._since_refresh >= self.refresh_interval:
            self._refresh()

    def _refresh(self) -> None:
        self._since_refresh = 0
        if self._histogram.total < self.min_samples:
            return
        points = self._histogram.loglog_points()
        if len(points) < 3:
            return
        try:
            slope = least_squares_slope(points)
        except ValueError:
            return
        estimate = -slope
        self.beta = min(max(estimate, self.min_beta), self.max_beta)
        self.refreshes += 1
        if self.decay < 1.0:
            self._histogram.decay(self.decay)

    def force_refresh(self) -> float:
        """Refit immediately (tests and diagnostics); returns beta."""
        self._refresh()
        return self.beta


class FixedBetaEstimator:
    """Drop-in replacement holding β constant (the ablation arm)."""

    def __init__(self, beta: float):
        if beta <= 0:
            raise ConfigurationError("beta must be positive")
        self.beta = beta
        self.observations = 0
        self.refreshes = 0

    def observe(self, reuse_distance: float) -> None:
        self.observations += 1

    def force_refresh(self) -> float:
        return self.beta
