"""Overhead of span tracing on a shared-pass sweep.

The contract (docs/guide.md, "Watching and comparing runs"): tracing
is a zero-overhead no-op until enabled, and even *enabled* it stays
within 1% of the untraced floor on a sweep, because spans wrap phases
and cells — never individual requests — so a whole grid emits a few
hundred events at most.  This bench measures the paper's 4-policy ×
4-size grid untraced vs traced (spans enabled, events appended to a
real ``events.jsonl``) and writes the comparison to
``BENCH_trace.json``.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) runs fewer rounds
and loosens the floor; shared CI boxes are noisy at the 1% level.
"""

import json
import os
from pathlib import Path
from time import perf_counter

import pytest

from repro.observability.events import EventLog, set_event_sink
from repro.observability.trace import disable_tracing, enable_tracing
from repro.simulation.sweep import (
    PAPER_SIZE_FRACTIONS,
    cache_sizes_from_fractions,
    run_sweep,
)

POLICIES = ("lru", "lfu-da", "gds(1)", "gd*(1)")
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
ROUNDS = 3 if SMOKE else 7
#: Span emission must stay within this of the untraced floor.  The
#: acceptance target is 1%; smoke mode loosens it because a tiny
#: trace finishes in milliseconds where scheduler jitter dominates.
OVERHEAD_FLOOR_PCT = 10.0 if SMOKE else 1.0


@pytest.fixture(autouse=True)
def _tracing_off_after():
    yield
    set_event_sink(None)
    disable_tracing()


@pytest.fixture(scope="module")
def capacities(dfn_trace):
    return cache_sizes_from_fractions(dfn_trace, PAPER_SIZE_FRACTIONS)


def _best_seconds(trace, capacities, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        started = perf_counter()
        run_sweep(trace, POLICIES, capacities)
        best = min(best, perf_counter() - started)
    return best


def test_span_overhead_report(dfn_trace, capacities, bench_scale,
                              tmp_path):
    cells = len(POLICIES) * len(capacities)
    run_sweep(dfn_trace, POLICIES[:1], capacities[:1])  # warm up

    disable_tracing()
    set_event_sink(None)
    untraced = _best_seconds(dfn_trace, capacities)

    log = EventLog(tmp_path / "events.jsonl")
    set_event_sink(log)
    enable_tracing()
    traced = _best_seconds(dfn_trace, capacities)
    set_event_sink(None)
    disable_tracing()
    log.close()

    span_events = sum(1 for line in
                      (tmp_path / "events.jsonl").open(encoding="utf-8")
                      if '"span"' in line)
    assert span_events > 0, "traced sweep emitted no span events"

    overhead_pct = 100.0 * (traced - untraced) / untraced
    requests = len(dfn_trace) * cells
    report = {
        "bench": "trace-spans",
        "scale": bench_scale,
        "smoke": SMOKE,
        "policies": list(POLICIES),
        "cells": cells,
        "trace_requests": len(dfn_trace),
        "rounds": ROUNDS,
        "untraced": {"seconds": round(untraced, 6),
                     "requests_per_second":
                         round(requests / untraced, 1)},
        "traced": {"seconds": round(traced, 6),
                   "requests_per_second":
                       round(requests / traced, 1),
                   "span_events": span_events},
        "overhead_pct": round(overhead_pct, 3),
        "overhead_floor_pct": OVERHEAD_FLOOR_PCT,
    }
    Path("BENCH_trace.json").write_text(json.dumps(report, indent=2)
                                        + "\n")
    assert overhead_pct < OVERHEAD_FLOOR_PCT, report
