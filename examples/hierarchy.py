#!/usr/bin/env python3
"""Two-level proxy hierarchy: children filter the locality.

The paper's DFN and RTP traces were recorded at *upper-level* proxies —
parents sitting behind institutional caches.  This example shows the
filtering effect that shapes such traces: the same cache posts a much
lower hit rate as a parent than it would standalone, because the child
caches absorb the recency and popularity signal first::

    python examples/hierarchy.py
"""

from repro import dfn_like, generate_trace, simulate
from repro.network import NetworkConfig, run_network, two_level
from repro.types import DocumentType

trace = generate_trace(dfn_like(scale=1 / 256))
total = trace.metadata().total_size_bytes
parent_capacity = int(total * 0.02)
child_capacity = int(total * 0.005)

print(f"trace: {len(trace):,} requests; "
      f"4 children x {child_capacity / 1e6:.1f} MB "
      f"-> parent {parent_capacity / 1e6:.1f} MB\n")

standalone = simulate(trace, "lru", parent_capacity)
print(f"standalone proxy ({parent_capacity / 1e6:.1f} MB, lru): "
      f"hit rate {standalone.hit_rate():.3f}")

for child_policy, parent_policy in (("lru", "lru"),
                                    ("lru", "gd*(p)"),
                                    ("gd*(1)", "gd*(p)")):
    result = run_network(trace, NetworkConfig(topology=two_level(
        child_capacity, parent_capacity,
        child_policy=child_policy, parent_policy=parent_policy,
        n_children=4)))
    child = result.edge_metrics().overall
    parent = result.nodes["parent"].metrics.overall
    print(f"\nchildren={child_policy}, parent={parent_policy}:")
    print(f"  child hit rate       {child.hit_rate:.3f}  "
          f"(end-user view)")
    print(f"  parent hit rate      {parent.hit_rate:.3f}  "
          f"(over child misses — note how far below the standalone "
          f"rate)")
    print(f"  hierarchy hit rate   {result.hit_rate:.3f}  "
          f"(origin off-load)")
    print(f"  origin byte traffic  {result.origin_byte_rate:.3f} "
          f"of requested bytes")
    mm_rate = result.network.hit_rate(DocumentType.MULTIMEDIA)
    print(f"  multimedia hierarchy hit rate {mm_rate:.3f}")
