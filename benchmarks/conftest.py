"""Shared fixtures for the benchmark harness.

What lives here are micro-benchmarks of the hot paths
(``bench_policies.py`` / ``bench_components.py`` /
``bench_scaling.py``: policy ops/second, parser and generator
throughput) and the per-subsystem script benches.  Regenerating a
paper artifact is not a benchmark: ``python -m repro.experiments <id>``
does it, and ``tests/experiments/test_runner.py`` checks its shape.

Scale: ``bench_scale`` defaults to the "tiny" experiment scale; set
``REPRO_BENCH_SCALE=small`` (or ``medium``/``paper``) for larger runs.
"""

import os

import pytest

from repro.workload.generator import generate_trace
from repro.workload.profiles import dfn_like, rtp_like

#: Experiment scale name the script benches record.
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "tiny")


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE


@pytest.fixture(scope="session")
def dfn_trace():
    """DFN-like trace for micro-benchmarks (fixed 1/256 scale)."""
    return generate_trace(dfn_like(scale=1.0 / 256.0))


@pytest.fixture(scope="session")
def rtp_trace():
    return generate_trace(rtp_like(scale=1.0 / 256.0))

