"""Cache-network cascade vs the object walk on an 8-node tree.

The claim (docs/guide.md, "Cache networks"): an LRU/LCE network over
a columnar trace runs (``run_network`` dispatches it) as a cascade of
per-node LRU queue replays — no cache objects, no per-request python
dispatch — bit-identical to the engine's object walk and fast enough
to sweep topology grids: the 7-cache binary tree (plus the origin: 8
network nodes) must clear ≥1M aggregate node-visits per second on a
single core, about three times the pace of the walk (which reads the
same columns chunk by chunk).  This bench builds the tree, drives the
DFN-like workload through both paths, asserts equality always, and
writes the comparison to ``BENCH_network.json``.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) runs single-round
and skips the absolute-throughput floor (shared runners); the
equality and relative-speedup assertions always hold.
"""

import json
import os
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import pytest

from repro.network.engine import (NetworkConfig, NetworkSimulator,
                                  run_network)
from repro.network.fastpath import fastpath_eligible
from repro.network.topology import tree
from repro.trace.columnar import open_columnar, write_columnar
from repro.types import Trace

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
ROUNDS = 1 if SMOKE else 3
#: Aggregate node-visits/second the cascade must sustain on the
#: 8-node tree (measured ~1.5M on this single-core container).
#: Relative floor below guards smoke runs on noisy shared runners.
VISITS_PER_SECOND_FLOOR = 1_000_000
#: Cascade vs the walk on the same cell (measured 3.1-3.3x).  The
#: ratio is walk time over cascade time, so it falls whenever the
#: walk gets faster: 4.8x while the walk iterated ``Request`` objects,
#: 3.2x now that it reads columns, the cascade unchanged.  The floor
#: only says the cascade is still worth dispatching to; its own pace
#: is held by the absolute floor above.
SPEEDUP_FLOOR = 1.5 if SMOKE else 2.0
#: Largest cacheable object (squid's ``maximum_object_size`` idiom);
#: every node admits every document, so the measured cell has no
#: bypasses (the cascade would replay them, as the walk does).
MAX_OBJECT_BYTES = 200_000

#: Per-level capacities of the depth-3 binary tree: leaves hold the
#: least, the root the most (the usual hierarchy provisioning).
TOTAL_CAPACITY = MAX_OBJECT_BYTES * 60
LEVEL_CAPACITIES = (TOTAL_CAPACITY // 14, TOTAL_CAPACITY // 7,
                    TOTAL_CAPACITY * 2 // 7)


@pytest.fixture(scope="module")
def stable_trace(dfn_trace):
    """The DFN workload with stable, size-capped documents (the
    generator models modifications; the measured cell keeps the one
    size per document it has always been measured with)."""
    first = {}
    requests = []
    for request in dfn_trace.requests:
        size = first.setdefault(request.url,
                                min(request.size, MAX_OBJECT_BYTES))
        requests.append(replace(request, size=size, transfer_size=size))
    return Trace(requests, name="dfn-stable")


@pytest.fixture(scope="module")
def columnar_trace(stable_trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("bench-net") / "dfn.rcol"
    write_columnar(path, stable_trace.requests, name=stable_trace.name)
    with open_columnar(path) as trace:
        yield trace


def _time(fn, rounds=ROUNDS):
    best, value = float("inf"), None
    for _ in range(rounds):
        started = perf_counter()
        value = fn()
        best = min(best, perf_counter() - started)
    return best, value


def _node_dicts(result):
    return {name: node.as_dict()
            for name, node in sorted(result.nodes.items())}


def test_network_cascade_floor(columnar_trace, bench_scale):
    topology = tree(LEVEL_CAPACITIES, branching=2)
    config = NetworkConfig(topology=topology, strategy="lce")
    assert fastpath_eligible(config)

    # Warm both paths (imports, mmap pages, allocator) before timing.
    run_network(columnar_trace, config)
    object_walk = NetworkSimulator(config).run(columnar_trace)

    fast_s, fast = _time(lambda: run_network(columnar_trace, config))
    object_s, object_result = _time(
        lambda: NetworkSimulator(config).run(columnar_trace))

    assert _node_dicts(fast) == _node_dicts(object_result)
    assert fast.network.as_dict() == object_result.network.as_dict()
    assert _node_dicts(fast) == _node_dicts(object_walk)

    visits = sum(node.hits + node.misses
                 for node in fast.nodes.values())
    visits_per_second = visits / fast_s
    speedup = object_s / fast_s

    report = {
        "bench": "network-cascade",
        "scale": bench_scale,
        "smoke": SMOKE,
        "trace_requests": len(columnar_trace),
        "rounds": ROUNDS,
        "topology": topology.describe(),
        "network_nodes": topology.n_caches + 1,    # + the origin
        "aggregate_node_visits": visits,
        "object_walk": {
            "seconds": round(object_s, 6),
            "visits_per_second": round(visits / object_s, 1)},
        "cascade": {
            "seconds": round(fast_s, 6),
            "visits_per_second": round(visits_per_second, 1)},
        "speedup": round(speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "visits_per_second_floor": VISITS_PER_SECOND_FLOOR,
    }
    Path("BENCH_network.json").write_text(json.dumps(report, indent=2)
                                          + "\n")
    assert speedup >= SPEEDUP_FLOOR, report
    if not SMOKE:
        assert visits_per_second >= VISITS_PER_SECOND_FLOOR, report
