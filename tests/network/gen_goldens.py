"""Regenerate the pinned hierarchy/mesh equivalence goldens.

Run from the repo root::

    PYTHONPATH=src python tests/network/gen_goldens.py

The JSON files under ``tests/network/data/`` pin the exact outputs —
every counter, every per-type accumulator — of ``two_level`` and
``sibling_mesh`` topologies under leave-copy-everywhere across the
full policy registry.  They were first produced by the hand-written
hierarchy and mesh loops that predate ``repro.network`` and have been
byte-identical ever since; ``tests/network/test_equivalence.py``
replays the cells below, and CI reruns this script and fails on any
diff.

A diff is only legitimate when the *workload generator* changes (the
goldens would then pin a trace nobody can produce anymore), never to
paper over an engine difference.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.registry import POLICY_NAMES
from repro.network import (NetworkConfig, run_network, sibling_mesh,
                           two_level)
from repro.workload.generator import generate_trace
from repro.workload.profiles import dfn_like

DATA_DIR = Path(__file__).parent / "data"

#: The deterministic workload every golden runs against.
TRACE_SCALE = 1.0 / 512.0

#: Capacity fractions of the trace's distinct-document bytes.
CHILD_FRACTION = 0.005
PARENT_FRACTION = 0.02
PROXY_FRACTION = 0.005

#: Extra mixed-policy hierarchy cells (child policy != parent policy).
MIXED_LEVELS = (("gd*(1)", "gds(p)"), ("lru", "lfu-da"))


def golden_trace():
    return generate_trace(dfn_like(scale=TRACE_SCALE))


def capacities(trace):
    total = trace.metadata().total_size_bytes
    return (int(total * CHILD_FRACTION), int(total * PARENT_FRACTION),
            int(total * PROXY_FRACTION))


def hierarchy_key(child_policy, parent_policy, n_children):
    return f"{child_policy}|{parent_policy}|{n_children}"


def mesh_key(policy, replicate, n_proxies):
    return f"{policy}|{'replicate' if replicate else 'single-owner'}" \
           f"|{n_proxies}"


def hierarchy_cell(trace, child_cap, parent_cap, child_policy,
                   parent_policy, n_children):
    result = run_network(trace, NetworkConfig(topology=two_level(
        child_cap, parent_cap, child_policy=child_policy,
        parent_policy=parent_policy, n_children=n_children)))
    return {
        "total_requests": result.total_requests,
        "warmup_requests": result.warmup_requests,
        "child": result.edge_metrics().as_dict(),
        "parent": result.nodes["parent"].metrics.as_dict(),
        "hierarchy": result.network.as_dict(),
    }


def mesh_cell(trace, proxy_cap, policy, replicate, n_proxies):
    result = run_network(trace, NetworkConfig(
        topology=sibling_mesh(proxy_cap, n_proxies=n_proxies,
                              policy=policy),
        replicate_on_sibling_hit=replicate))
    return {
        "total_requests": result.total_requests,
        "warmup_requests": result.warmup_requests,
        "local": result.edge_metrics().as_dict(),
        "mesh": result.network.as_dict(),
        "sibling_hits": result.sibling_serves,
    }


def generate():
    trace = golden_trace()
    child_cap, parent_cap, proxy_cap = capacities(trace)

    hierarchy = {}
    for policy in POLICY_NAMES:
        hierarchy[hierarchy_key(policy, policy, 3)] = hierarchy_cell(
            trace, child_cap, parent_cap, policy, policy, 3)
    for child_policy, parent_policy in MIXED_LEVELS:
        hierarchy[hierarchy_key(child_policy, parent_policy, 2)] = \
            hierarchy_cell(trace, child_cap, parent_cap, child_policy,
                           parent_policy, 2)

    mesh = {}
    for policy in POLICY_NAMES:
        for replicate in (True, False):
            mesh[mesh_key(policy, replicate, 3)] = mesh_cell(
                trace, proxy_cap, policy, replicate, 3)

    meta = {
        "trace_scale": TRACE_SCALE,
        "trace_requests": len(trace),
        "child_capacity_bytes": child_cap,
        "parent_capacity_bytes": parent_cap,
        "proxy_capacity_bytes": proxy_cap,
    }
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    (DATA_DIR / "golden_hierarchy.json").write_text(
        json.dumps({"meta": meta, "cells": hierarchy}, indent=1,
                   sort_keys=True) + "\n")
    (DATA_DIR / "golden_mesh.json").write_text(
        json.dumps({"meta": meta, "cells": mesh}, indent=1,
                   sort_keys=True) + "\n")
    print(f"hierarchy: {len(hierarchy)} cells, mesh: {len(mesh)} cells "
          f"({len(trace)} requests each)")


if __name__ == "__main__":
    generate()
