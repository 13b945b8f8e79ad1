"""Cache networks: one engine for single caches, hierarchies, meshes,
paths, and trees.

The only way to simulate more than one cache: a hierarchy or a mesh
is one topology instance, not a simulator of its own.  The parts:

* :mod:`repro.network.topology` — the shape: nodes, capacities,
  per-hop links, and constructors for the standard shapes;
* :mod:`repro.network.strategies` — placement: who keeps a copy
  (LCE / LCD / ProbCache);
* :mod:`repro.network.engine` — the routing core driving any
  registry policy at each node, with per-node per-type metrics;
  :func:`run_network_cells` is the one dispatch point of a run
  (:func:`run_network` is a batch of one);
* :mod:`repro.network.fastpath` — the vectorized LCE cascade of LRU
  and FIFO nodes over columnar traces (bit-identical, benchmark-fast);
* :mod:`repro.network.cli` — ``network run/sweep/validate/placement``.

Durable network grids are :class:`repro.experiments.service.TrialSpec`
trials that carry a ``topology`` (``service enqueue --topologies``).
"""

from repro.network.engine import (NetworkConfig, NetworkResult,
                                  NetworkSimulator, NodeResult,
                                  run_network, run_network_cells)
from repro.network.strategies import (STRATEGY_NAMES, LeaveCopyDown,
                                      LeaveCopyEverywhere,
                                      PlacementStrategy, ProbCache,
                                      make_strategy)
from repro.network.topology import (DEFAULT_CLIENT_LINK,
                                    DEFAULT_ORIGIN_LINK,
                                    DEFAULT_PEER_LINK, TOPOLOGY_KINDS,
                                    NodeSpec, Topology, build_topology,
                                    path, sibling_mesh, single,
                                    tree, two_level)

__all__ = [
    "NetworkConfig", "NetworkResult", "NetworkSimulator",
    "NodeResult", "run_network", "run_network_cells",
    "PlacementStrategy", "LeaveCopyEverywhere", "LeaveCopyDown",
    "ProbCache", "make_strategy", "STRATEGY_NAMES",
    "NodeSpec", "Topology", "single", "two_level", "sibling_mesh",
    "path", "tree", "build_topology", "TOPOLOGY_KINDS",
    "DEFAULT_CLIENT_LINK", "DEFAULT_ORIGIN_LINK", "DEFAULT_PEER_LINK",
]
