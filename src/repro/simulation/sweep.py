"""Policy × cache-size sweeps (the shape of Figures 2 and 3).

The paper plots hit rate and byte hit rate "for increasing cache sizes
... chosen from about 0.5 % to about 4 % of overall trace size".
:func:`cache_sizes_from_fractions` converts those fractions to byte
capacities for a given trace; :func:`run_sweep` runs the full grid,
constructing a fresh policy and cache per cell.  All cells ride **one**
shared trace pass through :func:`repro.simulation.engine.run_cells`, so
trace iteration and size resolution are paid once for the whole grid
(and eligible LRU cells collapse into a single stack-distance ladder);
the grid is bit-identical to running
:class:`~repro.simulation.simulator.CacheSimulator` once per cell.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.simulation.engine import run_cells
from repro.simulation.results import SweepResult
from repro.simulation.simulator import SimulationConfig, SizeInterpretation
from repro.types import Trace

#: The paper's cache-size ladder, as fractions of overall trace size.
PAPER_SIZE_FRACTIONS = (0.005, 0.01, 0.02, 0.04)


def cache_sizes_from_fractions(
        trace: Trace,
        fractions: Sequence[float] = PAPER_SIZE_FRACTIONS) -> List[int]:
    """Byte capacities equal to the given fractions of the trace's
    overall (distinct-document) size.

    ``trace`` is anything with ``metadata()``: a
    :class:`~repro.types.Trace` or the columns
    :func:`~repro.trace.columnar.columns_of` gives.
    """
    return cache_sizes_from_total(trace.metadata().total_size_bytes,
                                  fractions)


def cache_sizes_from_total(total: int, fractions: Sequence[float]
                           ) -> List[int]:
    """:func:`cache_sizes_from_fractions` for a trace whose overall size
    ``total`` was already read (one read for many fraction sets)."""
    if not fractions:
        raise ConfigurationError("need at least one size fraction")
    if any(f <= 0 for f in fractions):
        raise ConfigurationError("size fractions must be positive")
    if total <= 0:
        raise ConfigurationError("trace has no bytes to size against")
    return sorted({max(int(total * f), 1) for f in fractions})


def run_sweep(trace: Union[Trace, str, Path],
              policies: Iterable[str],
              capacities: Sequence[int],
              warmup_fraction: float = 0.10,
              size_interpretation: SizeInterpretation =
              SizeInterpretation.TRUSTED,
              occupancy_interval: int = 0,
              progress: Optional[Callable[[str, int], None]] = None,
              policy_kwargs: Optional[dict] = None) -> SweepResult:
    """Run every (policy, capacity) cell over the trace.

    Args:
        trace: The driving workload — a :class:`~repro.types.Trace`, a
            :class:`~repro.trace.columnar.ColumnarTrace`, or a trace
            *file path* (any format
            :func:`repro.trace.reader.open_trace` handles), opened by
            :func:`~repro.trace.columnar.columns_of` once for the whole
            grid — an ``.rcol`` mmap'd, a text format gathered into
            columns a chunk of requests at a time — and named by its
            file stem.
        policies: Policy names (see :mod:`repro.core.registry`).
        capacities: Cache capacities in bytes.
        warmup_fraction: Warm-up share per run (paper: 0.10).
        size_interpretation: Modification handling mode.
        occupancy_interval: Per-type occupancy sampling cadence
            (0 = off); only meaningful for adaptability studies.
        progress: Optional callback invoked with (policy, capacity)
            for each cell, for long sweeps.  All callbacks fire up
            front, before the single shared pass starts.
        policy_kwargs: Extra arguments forwarded to
            :func:`~repro.core.registry.make_policy` (e.g. fixed_beta).

    Returns a :class:`~repro.simulation.results.SweepResult` whose grid
    is keyed by policy name and capacity.
    """
    from repro.core.registry import make_policy

    kwargs = policy_kwargs or {}
    configs = []
    for policy_name in policies:
        for capacity in capacities:
            if progress is not None:
                progress(policy_name, capacity)
            configs.append(SimulationConfig(
                capacity_bytes=capacity,
                policy=make_policy(policy_name, **kwargs),
                warmup_fraction=warmup_fraction,
                size_interpretation=size_interpretation,
                occupancy_interval=occupancy_interval,
            ))
    name = Path(trace).stem if isinstance(trace, (str, Path)) \
        else trace.name
    sweep = SweepResult(trace_name=name)
    for result in run_cells(trace, configs, trace_name=name):
        sweep.add(result)
    return sweep
