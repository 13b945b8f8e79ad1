"""Analytical model vs simulated sweep on a 16-point capacity curve.

The tentpole claim of :mod:`repro.model`: once a catalog is calibrated
(from the trace's columns, reusable across every policy and capacity
question), a whole capacity→hit-rate curve costs microseconds per
point — versus the shared-pass engine, which still has to walk the
trace once and update one cache per grid cell.  This bench times a
16-point LRU curve both ways on the same DFN-like workload, asserts
the analytical side is ≥ 100× faster, and writes the comparison (plus
the curves' agreement) to ``BENCH_model.json``.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) runs single-round;
the speedup floor holds in both modes — the gap is four orders of
magnitude, not a close race.
"""

import json
import os
from pathlib import Path
from time import perf_counter

from repro.model.catalog import catalog_from_trace
from repro.model.che import hit_rate_curve
from repro.simulation.engine import SimulationConfig, run_cells

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
ROUNDS = 1 if SMOKE else 3
N_POINTS = 16
#: The analytical curve must beat the equivalent simulated sweep by
#: at least this factor (calibration pass excluded: it is paid once
#: and amortized over every curve asked of the catalog).
SPEEDUP_FLOOR = 100.0


def _capacity_ladder(total_bytes: int) -> list:
    """16 log-spaced capacities from 0.1% to 40% of the working set."""
    low, high = 1e-3, 0.4
    ratio = (high / low) ** (1.0 / (N_POINTS - 1))
    return [max(int(total_bytes * low * ratio ** i), 1)
            for i in range(N_POINTS)]


def _best_seconds(fn, rounds=ROUNDS):
    best, value = float("inf"), None
    for _ in range(rounds):
        started = perf_counter()
        value = fn()
        best = min(best, perf_counter() - started)
    return best, value


def test_model_curve_vs_simulated_sweep(dfn_trace, bench_scale):
    total_bytes = dfn_trace.metadata().total_size_bytes
    capacities = _capacity_ladder(total_bytes)

    calibration_s, catalog = _best_seconds(
        lambda: catalog_from_trace(dfn_trace), rounds=1)

    # Warm both paths before timing.
    hit_rate_curve(catalog, capacities[:1])
    configs = [SimulationConfig(capacity_bytes=c, policy="lru")
               for c in capacities]
    run_cells(dfn_trace, configs[:1])

    model_s, predictions = _best_seconds(
        lambda: hit_rate_curve(catalog, capacities))
    simulated_s, results = _best_seconds(
        lambda: run_cells(dfn_trace, configs))

    errors = [abs(p.hit_rate - r.hit_rate())
              for p, r in zip(predictions, results)]
    speedup = simulated_s / model_s
    report = {
        "bench": "model-curve",
        "scale": bench_scale,
        "smoke": SMOKE,
        "points": N_POINTS,
        "trace_requests": len(dfn_trace),
        "catalog_documents": catalog.n_documents,
        "rounds": ROUNDS,
        "calibration_seconds": round(calibration_s, 6),
        "model_curve_seconds": round(model_s, 6),
        "model_microseconds_per_point":
            round(model_s / N_POINTS * 1e6, 3),
        "simulated_sweep_seconds": round(simulated_s, 6),
        "speedup": round(speedup, 1),
        "speedup_including_calibration":
            round(simulated_s / (model_s + calibration_s), 1),
        "speedup_floor": SPEEDUP_FLOOR,
        "hit_rate_mean_abs_error":
            round(sum(errors) / len(errors), 4),
        "hit_rate_max_abs_error": round(max(errors), 4),
    }
    Path("BENCH_model.json").write_text(json.dumps(report, indent=2)
                                        + "\n")
    assert speedup >= SPEEDUP_FLOOR, report
