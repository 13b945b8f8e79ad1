"""Columnar vectorized engine vs the object path on the paper's grid.

The tentpole claim of the columnar format (docs/guide.md, "Columnar
traces"): the exact all-capacities LRU ladder — every cache size of
the paper's Figure-2 axis answered from *one* byte-weighted
stack-distance pass — runs as numpy column operations over the mmap'd
trace, at least an order of magnitude faster than driving
per-``Request`` simulators, with bit-identical results.  This bench
writes a synthetic DFN-like workload as ``.rcol``, sweeps the paper's
0.5 %–4 % size range at ladder resolution (32 capacities — dense
sampling is precisely what the one-pass ladder makes affordable),
measures the vectorized ladder against the classic per-cell loop
single-core, reports the paper's mixed-policy grid as a secondary,
and writes the comparison to ``BENCH_columnar.json``.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) runs single-round;
the equivalence assertions always hold.
"""

import json
import os
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import pytest

from repro.simulation.engine import run_cells
from repro.simulation.simulator import CacheSimulator, SimulationConfig
from repro.simulation.sweep import (
    PAPER_SIZE_FRACTIONS,
    cache_sizes_from_fractions,
)
from repro.trace.columnar import open_columnar, write_columnar
from repro.types import Trace

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
ROUNDS = 1 if SMOKE else 3
#: Acceptance floor for the vectorized LRU ladder against the classic
#: per-cell object loop on the dense paper-range size axis (measured
#: ~20x on a shared box; one stack-distance pass serves every capacity, so
#: the margin grows with ladder resolution).
LADDER_SPEEDUP_FLOOR = 10.0
#: Ladder resolution: capacities spanning the paper's 0.5 %-4 % range.
LADDER_POINTS = 32
#: Mixed-policy grids still drive real policy objects per reference,
#: so the win there is decode/resolve amortization, not vectorization.
GRID_SPEEDUP_FLOOR = 1.0 if SMOKE else 1.1
#: Largest cacheable object.  Real proxies cap this (squid's
#: ``maximum_object_size``); here it also guarantees every paper-range
#: capacity admits every document — the no-bypass precondition both
#: engines require before answering LRU cells from a ladder.
MAX_OBJECT_BYTES = 200_000

MIXED_POLICIES = ("lru", "lfu-da", "gds(1)", "gd*(1)")


@pytest.fixture(scope="module")
def stable_trace(dfn_trace):
    """The DFN workload with stable, size-capped documents.

    The generator models modifications; pinning each document at its
    first-seen (capped) size makes every LRU cell ladder-eligible,
    which is the configuration the paper's Figure-2 grid sweeps.
    """
    first = {}
    requests = []
    for request in dfn_trace.requests:
        size = first.setdefault(request.url,
                                min(request.size, MAX_OBJECT_BYTES))
        requests.append(replace(
            request, size=size,
            transfer_size=min(request.transfer_size, size) or size))
    return Trace(requests, name="dfn-stable")


@pytest.fixture(scope="module")
def columnar_trace(stable_trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("bench-col") / "dfn.rcol"
    write_columnar(path, stable_trace.requests, name=stable_trace.name)
    with open_columnar(path) as trace:
        yield trace


def _configs(policies, capacities):
    return [SimulationConfig(capacity_bytes=capacity, policy=policy)
            for policy in policies for capacity in capacities]


def _time(fn, rounds=ROUNDS):
    best, value = float("inf"), None
    for _ in range(rounds):
        started = perf_counter()
        value = fn()
        best = min(best, perf_counter() - started)
    return best, value


def _flat(results):
    return [result.as_dict() for result in results]


def test_vectorized_ladder_floor(stable_trace, columnar_trace,
                                 bench_scale):
    low, high = min(PAPER_SIZE_FRACTIONS), max(PAPER_SIZE_FRACTIONS)
    step = (high - low) / (LADDER_POINTS - 1)
    capacities = cache_sizes_from_fractions(
        stable_trace, [low + step * i for i in range(LADDER_POINTS)])
    cells = len(capacities)
    name = stable_trace.name

    def object_percell():
        return [CacheSimulator(config).run(stable_trace,
                                           trace_name=name)
                for config in _configs(["lru"], capacities)]

    def columnar_ladder():
        return run_cells(columnar_trace, _configs(["lru"], capacities),
                         trace_name=name)

    # Warm both paths (imports, mmap pages, allocator) before timing.
    columnar_ladder()
    object_percell()

    object_s, object_results = _time(object_percell)
    ladder_s, ladder_results = _time(columnar_ladder)
    assert _flat(ladder_results) == _flat(object_results)
    ladder_speedup = object_s / ladder_s

    # Secondary: the paper's four-size mixed-policy grid, where only
    # decode and resolution vectorize (policies run per reference).
    grid_capacities = cache_sizes_from_fractions(stable_trace,
                                                 PAPER_SIZE_FRACTIONS)
    grid = _configs(MIXED_POLICIES, grid_capacities)

    def object_grid():
        return [CacheSimulator(config).run(stable_trace,
                                           trace_name=name)
                for config in _configs(MIXED_POLICIES, grid_capacities)]

    def columnar_grid():
        return run_cells(columnar_trace,
                         _configs(MIXED_POLICIES, grid_capacities),
                         trace_name=name)

    grid_object_s, grid_object_results = _time(object_grid)
    grid_columnar_s, grid_columnar_results = _time(columnar_grid)
    assert _flat(grid_columnar_results) == _flat(grid_object_results)
    grid_speedup = grid_object_s / grid_columnar_s

    n = len(stable_trace)
    report = {
        "bench": "columnar-engine",
        "scale": bench_scale,
        "smoke": SMOKE,
        "trace_requests": n,
        "capacities": list(capacities),
        "rounds": ROUNDS,
        "lru_ladder": {
            "cells": cells,
            "object_percell": {
                "seconds": round(object_s, 6),
                "requests_per_second": round(n * cells / object_s, 1)},
            "columnar_vectorized": {
                "seconds": round(ladder_s, 6),
                "requests_per_second": round(n * cells / ladder_s, 1)},
            "speedup": round(ladder_speedup, 3),
            "floor": LADDER_SPEEDUP_FLOOR,
        },
        "mixed_grid": {
            "cells": len(grid),
            "policies": list(MIXED_POLICIES),
            "object_percell": {
                "seconds": round(grid_object_s, 6)},
            "columnar_batched": {
                "seconds": round(grid_columnar_s, 6)},
            "speedup": round(grid_speedup, 3),
            "floor": GRID_SPEEDUP_FLOOR,
        },
    }
    Path("BENCH_columnar.json").write_text(json.dumps(report, indent=2)
                                           + "\n")
    assert ladder_speedup >= LADDER_SPEEDUP_FLOOR, report
    assert grid_speedup >= GRID_SPEEDUP_FLOOR, report
