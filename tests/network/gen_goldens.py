"""Regenerate the pinned hierarchy/mesh equivalence goldens.

Run from the repo root::

    PYTHONPATH=src python tests/network/gen_goldens.py

The JSON files under ``tests/network/data/`` pin the exact outputs —
every counter, every per-type accumulator — of ``two_level`` and
``sibling_mesh`` topologies under leave-copy-everywhere across the
full policy registry.  They were first produced by the hand-written
hierarchy and mesh loops that predate ``repro.network`` and have been
byte-identical ever since.  ``golden_walk.json`` pins the walk the
other two never take: ``tree`` / ``path`` / ``sibling_mesh`` under
``lcd`` and ``probcache`` (probe with ``get``, admit where the
strategy says), sibling serves with and without replication, and
end-to-end latency.  ``tests/network/test_equivalence.py`` replays the
cells below, and CI reruns this script and fails on any diff.

A diff is only legitimate when the *workload generator* changes (the
goldens would then pin a trace nobody can produce anymore), never to
paper over an engine difference.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.registry import POLICY_NAMES
from repro.network import (NetworkConfig, path, run_network,
                           sibling_mesh, tree, two_level)
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

#: The non-LCE walk: shape x strategy x policy, a mesh both ways round
#: ``replicate_on_sibling_hit``, and one latency cell per shape that
#: prices a different link path (a tree's depths, a mesh's peer link).
WALK_SHAPES = ("tree", "path", "mesh")
WALK_STRATEGIES = ("lcd", "probcache")
WALK_POLICIES = ("lru", "gds(1)", "gd*(1)")
WALK_LATENCY = (("tree", "lcd", "gds(1)", True),
                ("mesh", "probcache", "gd*(1)", False))


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


def walk_key(shape, strategy, policy, replicate, latency=False):
    return f"{shape}|{strategy}|{policy}" \
           f"|{'replicate' if replicate else 'single-owner'}" \
           f"{'|latency' if latency else ''}"


def walk_keys():
    keys = [walk_key(shape, strategy, policy, replicate)
            for shape in WALK_SHAPES for strategy in WALK_STRATEGIES
            for policy in WALK_POLICIES
            for replicate in ((True, False) if shape == "mesh"
                              else (True,))]
    return keys + [walk_key(*cell, latency=True)
                   for cell in WALK_LATENCY]


def walk_cell(trace, child_cap, parent_cap, proxy_cap, key):
    shape, strategy, policy, mode = key.split("|")[:4]
    levels = [child_cap, 2 * child_cap, parent_cap]
    topology = {"tree": lambda: tree(levels, branching=2, policy=policy),
                "path": lambda: path(levels, policy),
                "mesh": lambda: sibling_mesh(proxy_cap, n_proxies=3,
                                             policy=policy)}[shape]()
    result = run_network(trace, NetworkConfig(
        topology=topology, strategy=strategy,
        replicate_on_sibling_hit=mode == "replicate",
        measure_latency=key.endswith("|latency")))
    cell = result.as_dict()
    if result.latency is not None:
        cell["edge_latency"] = {
            name: [result.nodes[name].latency.count,
                   result.nodes[name].latency.mean]
            for name in topology.edges}
    return cell


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

    walk = {key: walk_cell(trace, child_cap, parent_cap, proxy_cap, key)
            for key in walk_keys()}

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
    (DATA_DIR / "golden_walk.json").write_text(
        json.dumps({"meta": meta, "cells": walk}, indent=1,
                   sort_keys=True) + "\n")
    print(f"hierarchy: {len(hierarchy)} cells, mesh: {len(mesh)} cells, "
          f"walk: {len(walk)} cells ({len(trace)} requests each)")


if __name__ == "__main__":
    generate()
