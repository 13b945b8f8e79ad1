"""Placement strategies: who keeps a copy after a fetch.

A replacement policy decides what to *evict* from one cache; a
placement strategy decides which caches along the delivery path get a
copy at all.  The engine resolves each request to a serving node (or
the origin), then asks the strategy which of the caches it passed
through should admit the document:

* **LCE** (leave-copy-everywhere) — every cache on the path admits.
  The classic web-hierarchy default, and exactly what the legacy
  hierarchy/mesh loops did implicitly by calling ``reference()`` at
  every level.
* **LCD** (leave-copy-down) — only the cache one hop below the serving
  point admits, so a document sinks one level per request and only
  genuinely popular documents reach the edge.
* **ProbCache** — each cache admits with a probability that weighs the
  path's remaining cache budget against how far the cache sits from
  the server, biasing copies toward the edge without LCD's one-level-
  per-request crawl.

Strategies are stateless apart from ProbCache's RNG, and a
:class:`~repro.network.engine.NetworkSimulator` walks with its own copy
of the instance its config names: one instance may sit in any number
of configs, and every run starts from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.network.topology import NodeSpec


class PlacementStrategy:
    """Decides which path caches admit a copy after a fetch.

    ``admit_on_probe`` is the LCE fast-coupling flag: when True the
    engine probes each cache with ``Cache.reference()`` (probe and
    admit are one call, preserving the legacy loops' exact stale-
    invalidation and eviction order); when False it probes with the
    side-effect-free ``Cache.get()`` and admits copies explicitly at
    the caches :meth:`copies` selects.
    """

    name = "base"
    admit_on_probe = False

    def copies(self, visited: Sequence[NodeSpec],
               path: Sequence[NodeSpec]) -> List[str]:
        """Names of caches that admit a copy of the fetched document.

        ``visited`` is the miss prefix — caches that were probed and
        did not hold the document, ordered edge-first.  ``path`` is
        the full cache path from the edge to the serving point's side:
        ``visited`` plus the serving cache when an upstream cache (not
        the origin) served.
        """
        raise NotImplementedError


@dataclass
class LeaveCopyEverywhere(PlacementStrategy):
    """Every cache the request passed through keeps a copy."""

    name = "lce"
    admit_on_probe = True

    def copies(self, visited: Sequence[NodeSpec],
               path: Sequence[NodeSpec]) -> List[str]:
        return [spec.name for spec in visited]


@dataclass
class LeaveCopyDown(PlacementStrategy):
    """Only the cache just below the serving point keeps a copy.

    A hit at level k plants the document at level k-1; documents
    descend one level per request, so the edge holds only documents
    requested at least ``depth`` times recently — a cheap popularity
    filter with no extra state.
    """

    name = "lcd"
    admit_on_probe = False

    def copies(self, visited: Sequence[NodeSpec],
               path: Sequence[NodeSpec]) -> List[str]:
        if not visited:
            return []
        return [visited[-1].name]


@dataclass
class ProbCache(PlacementStrategy):
    """Probabilistic caching weighted by path cache budget and depth.

    Following Psaras et al.'s ProbCache: a cache x hops from the
    server on a c-hop path admits with probability

        p(x) = TimesIn(x) * CacheWeight(x)
             = (sum of capacities from x to the edge)
               / (target_window * mean path capacity)   *   x / c

    ``TimesIn`` approximates how many copies the path can afford to
    hold (normalizing by ``target_window`` requests' worth of cache);
    ``CacheWeight`` x/c biases those copies toward the edge, since
    x counts hops *from the server* — the edge cache has the largest
    x.  Draws come from a private seeded RNG so runs are reproducible
    and two strategy instances with the same seed make identical
    decisions.
    """

    target_window: float = 10.0
    seed: int = 0

    name = "probcache"
    admit_on_probe = False

    def __post_init__(self) -> None:
        if self.target_window <= 0:
            raise ConfigurationError("target_window must be positive")
        self._rng = random.Random(self.seed)

    def copies(self, visited: Sequence[NodeSpec],
               path: Sequence[NodeSpec]) -> List[str]:
        if not visited:
            return []
        # The server sits one hop above the last probed cache; the
        # path toward it has c = len(visited) cache hops.
        c = len(visited)
        caps = [spec.capacity_bytes for spec in visited]
        mean_cap = sum(spec.capacity_bytes for spec in path) / len(path)
        chosen = []
        for k, spec in enumerate(visited):
            # visited is edge-first; cache k sits x = c - k hops from
            # the server, so the edge (k=0) carries the full weight.
            x = c - k
            times_in = sum(caps[k:]) / (self.target_window * mean_cap)
            p = min(1.0, times_in) * (x / c)
            if self._rng.random() < p:
                chosen.append(spec.name)
        return chosen


STRATEGY_NAMES = ("lce", "lcd", "probcache")


def make_strategy(name: str, *, seed: int = 0,
                  target_window: float = 10.0) -> PlacementStrategy:
    """Build a placement strategy by name.

    ``seed`` and ``target_window`` only apply to ``probcache``; they
    are accepted (and ignored) for the deterministic strategies so
    sweep code can pass them uniformly.
    """
    if name == "lce":
        return LeaveCopyEverywhere()
    if name == "lcd":
        return LeaveCopyDown()
    if name == "probcache":
        return ProbCache(target_window=target_window, seed=seed)
    raise ConfigurationError(
        f"unknown placement strategy {name!r}; known: "
        + ", ".join(STRATEGY_NAMES))
