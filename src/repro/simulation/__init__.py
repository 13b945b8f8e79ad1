"""Trace-driven simulation of a single caching proxy (paper Section 4.1).

:class:`~repro.simulation.simulator.CacheSimulator` drives a request
stream through a :class:`~repro.core.cache.Cache`, with

* a warm-up phase covering the first 10 % of requests (cold-start
  misses excluded from all metrics);
* hit-rate and byte-hit-rate accounting broken down by document type
  (:mod:`~repro.simulation.metrics`);
* optional sampling of the cache's per-type occupancy over time for the
  Figure-1 adaptability analysis (:mod:`~repro.simulation.occupancy`);
* the paper's 5 %-delta modification/interruption rule, or its
  alternatives (:class:`~repro.simulation.simulator.SizeInterpretation`).

:func:`~repro.simulation.sweep.run_sweep` runs a policy × cache-size
grid, the shape of every performance figure in the paper.

The :mod:`~repro.simulation.engine` module underneath is the shared
pass: the trace's integer columns in, per-configuration cache cells
out.  :func:`~repro.simulation.engine.run_cells` is the one driver from
a trace (request list, request iterator, or columnar file — all read
as columns) to any number of cells: the sweep entry points, the
parallel runner's batches and the experiment service all run their
grids through it in one trace pass, with results bit-identical to
running :class:`~repro.simulation.simulator.CacheSimulator`, the
per-request reference, per cell.
"""

from repro.simulation.engine import CacheCell, run_cells
from repro.simulation.metrics import RateAccumulator, TypeMetrics
from repro.simulation.occupancy import OccupancySample, OccupancyTracker
from repro.simulation.results import (
    FailureRecord,
    SimulationResult,
    SweepResult,
)
from repro.simulation.simulator import (
    CacheSimulator,
    SimulationConfig,
    SizeInterpretation,
    simulate,
)
from repro.simulation.parallel import cell_key, run_sweep_parallel
from repro.simulation.sweep import cache_sizes_from_fractions, run_sweep
from repro.simulation.freshness import FreshnessTracker, TTLModel

__all__ = [
    "RateAccumulator",
    "TypeMetrics",
    "OccupancySample",
    "OccupancyTracker",
    "SimulationResult",
    "SweepResult",
    "FailureRecord",
    "cell_key",
    "CacheCell",
    "run_cells",
    "CacheSimulator",
    "SimulationConfig",
    "SizeInterpretation",
    "simulate",
    "cache_sizes_from_fractions",
    "run_sweep",
    "run_sweep_parallel",
    "TTLModel",
    "FreshnessTracker",
]
