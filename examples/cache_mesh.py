#!/usr/bin/env python3
"""Sibling cache mesh: the DFN topology, and the ICP replication knob.

The paper's DFN trace was recorded in a *cache mesh* — peer proxies
that query their siblings before the origin.  This example compares
four isolated proxies against the same four cooperating, with and
without replication of sibling-served documents::

    python examples/cache_mesh.py
"""

from repro import dfn_like, generate_trace
from repro.network import NetworkConfig, run_network, sibling_mesh

trace = generate_trace(dfn_like(scale=1 / 256))
per_proxy = int(trace.metadata().total_size_bytes * 0.005)
print(f"{len(trace):,} requests over 4 proxies x "
      f"{per_proxy / 1e6:.1f} MB each\n")



def run_mesh(replicate):
    return run_network(trace, NetworkConfig(
        topology=sibling_mesh(per_proxy, n_proxies=4),
        replicate_on_sibling_hit=replicate))


# Isolated proxies = a mesh where sibling lookups never help; measure
# the local rate of the non-replicating run (misses stay misses).
baseline = run_mesh(replicate=False)
print(f"isolated proxies (local hits only): "
      f"{baseline.edge_metrics().overall.hit_rate:.3f}")

for replicate in (False, True):
    result = run_mesh(replicate)
    mode = "replicating" if replicate else "single-owner"
    print(f"\nmesh, {mode}:")
    print(f"  local hit rate    "
          f"{result.edge_metrics().overall.hit_rate:.3f}")
    print(f"  mesh hit rate     {result.hit_rate:.3f}   "
          f"(sibling share {result.sibling_hit_share:.2f})")

print("\nThe trade-off: replication converts sibling hits into future "
      "local hits but\nspends pooled capacity on duplicates; the "
      "single-owner mesh keeps more distinct\ndocuments and leans on "
      "sibling transfers instead.")
