"""Cache-network topologies: nodes, links, and standard shapes.

A :class:`Topology` is a rooted forest of cache nodes over an implicit
origin: every node has a capacity, a replacement policy, and an uplink
:class:`~repro.simulation.latency.Link` toward its parent (or the
origin, for top-level nodes).  Client populations attach round-robin
to the *edge* nodes; an optional *sibling ring* marks edge nodes that
probe each other ICP-style before escalating.

The shapes the literature actually uses come as constructors:

* :func:`single` — one cache, the degenerate network (bit-identical to
  :class:`~repro.simulation.simulator.CacheSimulator`);
* :func:`two_level` — N institutional children under one shared parent
  (the setting the paper's upper-level DFN/NLANR proxies sit in);
* :func:`sibling_mesh` — flat ICP peers (the DFN cache mesh the paper
  cites as reference [6]);
* :func:`path` — a linear chain of caches toward the origin (the
  standard ICN evaluation shape, where LCD/ProbCache differentiate);
* :func:`tree` — a balanced k-ary tree of caches, leaves at the edge.

Topologies hold *specs*, not caches: the engine
(:class:`repro.network.engine.NetworkSimulator`) builds one
:class:`~repro.core.cache.Cache` per node at run time, so a topology
value is reusable across runs when its policies are given by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.policy import ReplacementPolicy
from repro.errors import ConfigurationError
from repro.simulation.latency import Link

PolicySpec = Union[str, ReplacementPolicy]

#: Default hops, chosen so a :func:`single` topology under the default
#: links reproduces :class:`~repro.simulation.latency.LatencyModel`'s
#: defaults exactly: 5 ms / 10 Mbit/s to the edge proxy, 70 ms /
#: 1.5 Mbit/s from the top of the network to origins, and a middle
#: ground for proxy↔proxy hops (sibling fetches, child→parent).
DEFAULT_CLIENT_LINK = Link(rtt=0.005, bandwidth=1_250_000.0)
DEFAULT_ORIGIN_LINK = Link(rtt=0.070, bandwidth=187_500.0)
DEFAULT_PEER_LINK = Link(rtt=0.010, bandwidth=1_250_000.0)


@dataclass(frozen=True)
class NodeSpec:
    """One cache node: capacity, policy, and the hop above it."""

    name: str
    capacity_bytes: int
    policy: PolicySpec = "lru"
    #: The link toward this node's parent — or toward the origin when
    #: the node is top-level.
    uplink: Link = DEFAULT_ORIGIN_LINK

    def validate(self) -> None:
        if not self.name:
            raise ConfigurationError("node needs a name")
        if self.capacity_bytes <= 0:
            raise ConfigurationError(
                f"node {self.name!r}: capacity must be positive")


@dataclass
class Topology:
    """A named graph of cache nodes over an implicit origin."""

    name: str
    nodes: Dict[str, NodeSpec]
    #: node → parent node; ``None`` parents escalate to the origin.
    parents: Dict[str, Optional[str]]
    #: Client-facing nodes; requests are dealt to them round-robin.
    edges: Tuple[str, ...]
    #: Edge nodes that probe each other (ICP) before escalating, in
    #: ring order: a home at position i probes i+1, i+2, ... mod n.
    sibling_ring: Tuple[str, ...] = ()
    client_link: Link = DEFAULT_CLIENT_LINK
    peer_link: Link = DEFAULT_PEER_LINK

    def validate(self) -> None:
        if not self.nodes:
            raise ConfigurationError("topology has no nodes")
        if not self.edges:
            raise ConfigurationError("topology has no edge nodes")
        for spec in self.nodes.values():
            spec.validate()
        for name in self.edges:
            if name not in self.nodes:
                raise ConfigurationError(f"unknown edge node {name!r}")
        for name in self.sibling_ring:
            if name not in self.nodes:
                raise ConfigurationError(
                    f"unknown sibling node {name!r}")
        if self.sibling_ring and \
                len(set(self.sibling_ring)) != len(self.sibling_ring):
            raise ConfigurationError("sibling ring repeats a node")
        for name, parent in self.parents.items():
            if name not in self.nodes:
                raise ConfigurationError(
                    f"parent map names unknown node {name!r}")
            if parent is not None and parent not in self.nodes:
                raise ConfigurationError(
                    f"node {name!r} has unknown parent {parent!r}")
        for name in self.nodes:
            if name not in self.parents:
                raise ConfigurationError(
                    f"node {name!r} missing from the parent map")
            # Walking up must reach the origin (no cycles).
            seen = set()
            node: Optional[str] = name
            while node is not None:
                if node in seen:
                    raise ConfigurationError(
                        f"cycle through node {node!r}")
                seen.add(node)
                node = self.parents[node]

    # ----- derived structure ---------------------------------------------

    def path_to_origin(self, name: str) -> List[str]:
        """Node names from ``name`` upward, origin excluded."""
        out = []
        node: Optional[str] = name
        while node is not None:
            out.append(node)
            node = self.parents[node]
        return out

    def depth(self, name: str) -> int:
        """Hops from this node up to a top-level node (0 at the top)."""
        depth = 0
        node = self.parents[name]
        while node is not None:
            depth += 1
            node = self.parents[node]
        return depth

    def level_of(self, name: str) -> int:
        """Level counted from the edge: 0 for edge nodes, rising
        toward the origin.  Distinct from :meth:`depth` only in
        irregular topologies."""
        return self._depth_from_edges().get(name, 0)

    def _depth_from_edges(self) -> Dict[str, int]:
        levels: Dict[str, int] = {}
        for edge in self.edges:
            for level, node in enumerate(self.path_to_origin(edge)):
                previous = levels.get(node)
                if previous is None or level > previous:
                    levels[node] = level
        # Nodes unreachable from any edge (unusual, but legal) sit at
        # their structural depth.
        for name in self.nodes:
            levels.setdefault(name, self.depth(name))
        return levels

    @property
    def n_caches(self) -> int:
        return len(self.nodes)

    def total_capacity_bytes(self) -> int:
        return sum(spec.capacity_bytes for spec in self.nodes.values())

    def describe(self) -> str:
        levels: Dict[int, int] = {}
        for name in self.nodes:
            level = self.level_of(name)
            levels[level] = levels.get(level, 0) + 1
        shape = " + ".join(f"{count}@L{level}"
                           for level, count in sorted(levels.items()))
        ring = f", ring of {len(self.sibling_ring)}" \
            if self.sibling_ring else ""
        return f"{self.name}: {self.n_caches} cache(s) ({shape}{ring})"


# --------------------------------------------------------------------------
# Constructors
# --------------------------------------------------------------------------

def single(capacity_bytes: int, policy: PolicySpec = "lru", *,
           name: str = "cache",
           client_link: Link = DEFAULT_CLIENT_LINK,
           origin_link: Link = DEFAULT_ORIGIN_LINK) -> Topology:
    """One cache in front of the origin — the degenerate network.

    Under leave-copy-everywhere this is reference-for-reference
    identical to the single-cache simulator (pinned by
    ``tests/network/test_equivalence.py``).
    """
    spec = NodeSpec(name=name, capacity_bytes=capacity_bytes,
                    policy=policy, uplink=origin_link)
    return Topology(name="single", nodes={name: spec},
                    parents={name: None}, edges=(name,),
                    client_link=client_link)


def two_level(child_capacity_bytes: int, parent_capacity_bytes: int,
              child_policy: PolicySpec = "lru",
              parent_policy: PolicySpec = "lru",
              n_children: int = 4, *,
              child_uplink: Link = DEFAULT_PEER_LINK,
              origin_link: Link = DEFAULT_ORIGIN_LINK,
              client_link: Link = DEFAULT_CLIENT_LINK) -> Topology:
    """N institutional children under one shared parent.

    Requests are dealt to children round-robin, modelling interleaved
    user populations that share interests (every child sees every hot
    document eventually — the regime where a parent is useful); child
    misses escalate to the parent, parent misses go to the origin.
    """
    if n_children < 1:
        raise ConfigurationError("need at least one child")
    nodes: Dict[str, NodeSpec] = {}
    parents: Dict[str, Optional[str]] = {}
    edges = []
    for i in range(n_children):
        child = f"child{i}"
        nodes[child] = NodeSpec(name=child,
                                capacity_bytes=child_capacity_bytes,
                                policy=child_policy,
                                uplink=child_uplink)
        parents[child] = "parent"
        edges.append(child)
    nodes["parent"] = NodeSpec(name="parent",
                               capacity_bytes=parent_capacity_bytes,
                               policy=parent_policy,
                               uplink=origin_link)
    parents["parent"] = None
    return Topology(name="two-level", nodes=nodes, parents=parents,
                    edges=tuple(edges), client_link=client_link)


def sibling_mesh(proxy_capacity_bytes: int, n_proxies: int = 4,
                 policy: PolicySpec = "lru", *,
                 policies: Optional[Sequence[PolicySpec]] = None,
                 peer_link: Link = DEFAULT_PEER_LINK,
                 origin_link: Link = DEFAULT_ORIGIN_LINK,
                 client_link: Link = DEFAULT_CLIENT_LINK) -> Topology:
    """Flat ICP peers: on a local miss, ask the siblings, then origin.

    A sibling hit serves the document cheaper than the origin and
    dearer than a local hit; whether the home proxy then keeps a copy
    is :attr:`NetworkConfig.replicate_on_sibling_hit`.  ``policies``
    overrides the shared ``policy`` with one spec per proxy (e.g.
    pre-seeded randomized policies).
    """
    if n_proxies < 2:
        raise ConfigurationError("a mesh needs at least two proxies")
    if policies is not None and len(policies) != n_proxies:
        raise ConfigurationError("need exactly one policy per proxy")
    nodes: Dict[str, NodeSpec] = {}
    parents: Dict[str, Optional[str]] = {}
    names = []
    for i in range(n_proxies):
        proxy = f"proxy{i}"
        nodes[proxy] = NodeSpec(
            name=proxy, capacity_bytes=proxy_capacity_bytes,
            policy=policies[i] if policies is not None else policy,
            uplink=origin_link)
        parents[proxy] = None
        names.append(proxy)
    return Topology(name="mesh", nodes=nodes, parents=parents,
                    edges=tuple(names), sibling_ring=tuple(names),
                    client_link=client_link, peer_link=peer_link)


def path(capacities: Sequence[int],
         policy: Union[PolicySpec, Sequence[PolicySpec]] = "lru", *,
         inner_link: Link = DEFAULT_PEER_LINK,
         origin_link: Link = DEFAULT_ORIGIN_LINK,
         client_link: Link = DEFAULT_CLIENT_LINK) -> Topology:
    """A linear chain of caches: clients → l0 → l1 → ... → origin.

    ``capacities[0]`` is the edge cache.  ``policy`` is shared, or a
    sequence giving one policy per level.  The path is the canonical
    shape where placement strategies differentiate: LCE floods every
    level with every document, LCD/ProbCache let popular documents
    sink toward the edge while the upper levels keep the long tail.
    """
    if not capacities:
        raise ConfigurationError("a path needs at least one cache")
    policies = list(policy) if isinstance(policy, (list, tuple)) \
        else [policy] * len(capacities)
    if len(policies) != len(capacities):
        raise ConfigurationError("need one policy per path level")
    nodes: Dict[str, NodeSpec] = {}
    parents: Dict[str, Optional[str]] = {}
    last = len(capacities) - 1
    for level, capacity in enumerate(capacities):
        node = f"l{level}"
        nodes[node] = NodeSpec(
            name=node, capacity_bytes=capacity,
            policy=policies[level],
            uplink=origin_link if level == last else inner_link)
        parents[node] = None if level == last else f"l{level + 1}"
    return Topology(name="path", nodes=nodes, parents=parents,
                    edges=("l0",), client_link=client_link)


def tree(capacities: Sequence[int], branching: int = 2,
         policy: Union[PolicySpec, Sequence[PolicySpec]] = "lru", *,
         inner_link: Link = DEFAULT_PEER_LINK,
         origin_link: Link = DEFAULT_ORIGIN_LINK,
         client_link: Link = DEFAULT_CLIENT_LINK) -> Topology:
    """A balanced k-ary tree of caches, leaves at the edge.

    ``capacities[0]`` is the per-leaf capacity, ``capacities[-1]`` the
    root's; a tree of depth d and branching k has ``k**(d-1)`` leaves
    and ``(k**d - 1) // (k - 1)`` caches.  ``policy`` is shared or
    per-level.  ``tree([c0, c1, c2])`` with branching 2 is the 7-cache
    binary tree (plus the origin: 8 network nodes) the network
    benchmark drives.
    """
    if not capacities:
        raise ConfigurationError("a tree needs at least one level")
    if branching < 1:
        raise ConfigurationError("branching must be >= 1")
    policies = list(policy) if isinstance(policy, (list, tuple)) \
        else [policy] * len(capacities)
    if len(policies) != len(capacities):
        raise ConfigurationError("need one policy per tree level")
    depth = len(capacities)
    nodes: Dict[str, NodeSpec] = {}
    parents: Dict[str, Optional[str]] = {}
    edges = []
    # Level 0 holds the leaves; the root is level depth-1.
    width = {level: branching ** (depth - 1 - level)
             for level in range(depth)}
    for level in range(depth - 1, -1, -1):
        for i in range(width[level]):
            node = f"l{level}n{i}"
            nodes[node] = NodeSpec(
                name=node, capacity_bytes=capacities[level],
                policy=policies[level],
                uplink=origin_link if level == depth - 1
                else inner_link)
            parents[node] = None if level == depth - 1 \
                else f"l{level + 1}n{i // branching}"
            if level == 0:
                edges.append(node)
    return Topology(name="tree", nodes=nodes, parents=parents,
                    edges=tuple(edges), client_link=client_link)


#: Topology kinds :func:`build_topology` (and the CLI / the experiment
#: service) can realize from a (kind, total capacity, n) triple.
TOPOLOGY_KINDS = ("single", "two-level", "mesh", "path", "tree")


def build_topology(kind: str, total_capacity_bytes: int, n: int = 4,
                   policy: PolicySpec = "lru") -> Topology:
    """Realize a named topology from an aggregate cache budget.

    The budget is split uniformly across cache nodes (the standard
    network-of-caches normalization: comparisons across topologies
    hold total cache bytes constant).  ``n`` means: children for
    ``two-level``, proxies for ``mesh``, chain length for ``path``,
    depth for ``tree`` (branching 2); ignored for ``single``.
    """
    if kind not in TOPOLOGY_KINDS:
        raise ConfigurationError(
            f"unknown topology {kind!r}; known: "
            + ", ".join(TOPOLOGY_KINDS))
    if total_capacity_bytes <= 0:
        raise ConfigurationError("total capacity must be positive")
    if kind == "single":
        return single(total_capacity_bytes, policy)
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if kind == "two-level":
        per_node = max(total_capacity_bytes // (n + 1), 1)
        return two_level(per_node, per_node, child_policy=policy,
                         parent_policy=policy, n_children=n)
    if kind == "mesh":
        if n < 2:
            raise ConfigurationError(
                "a mesh needs at least two proxies")
        return sibling_mesh(max(total_capacity_bytes // n, 1),
                            n_proxies=n, policy=policy)
    if kind == "path":
        per_node = max(total_capacity_bytes // n, 1)
        return path([per_node] * n, policy)
    n_caches = (2 ** n) - 1
    per_node = max(total_capacity_bytes // n_caches, 1)
    return tree([per_node] * n, branching=2, policy=policy)
