"""Victim-order goldens for the heap-backed policies.

Hit counts do not notice two equal-H victims swapping places; the exact
sequence of departures does.  For each policy one fixed trace is driven
through a :class:`~repro.core.cache.Cache` and every ``on_evict`` call
is recorded as ``(url, cache.clock)``; ``data/victim_order_goldens.json``
pins the sha256 of that sequence, its head in clear (so a wrong order
fails with a readable diff) and the policy's final aging level.

Regenerate with ``python tests/core/test_victim_order.py`` (the first
ten entries in the repo were computed from the sift-based heap, before
``AddressableHeap`` moved onto ``heapq``; ``gd*t(1)``, ``gd*(p)``,
``landlord(p)`` and ``belady`` from the per-policy heaps, before the
ten policies moved onto ``core/heap_policy.py``; the two online-β
cells from the heap policies before their per-entry bookkeeping moved
into ``_key``).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.belady import BeladyPolicy, compute_next_uses
from repro.core.beta_estimator import OnlineBetaEstimator
from repro.core.cache import Cache
from repro.core.cost import ConstantCost
from repro.core.gdstar import GDStarPolicy
from repro.core.gdstar_typed import GDStarTypedPolicy
from repro.core.registry import make_policy
from repro.types import DOCUMENT_TYPES, Request
from repro.workload.generator import generate_trace
from repro.workload.profiles import dfn_like

GOLDENS = Path(__file__).parent / "data" / "victim_order_goldens.json"

#: Golden key -> make_policy arguments.  The trace is too short for the
#: online β estimator to leave 1 (gd*(1) evicts exactly as gdsf(1)
#: here), so a pinned β = 0.5 cell covers the exponentiated key.
#: ``belady`` is not a registry name: its policy is built from the next
#: uses of the golden trace itself.
POLICIES = {name: (name, {}) for name in (
    "gds(1)", "gds(p)", "gd*(1)", "gd*(p)", "gd*t(1)", "gdsf(1)",
    "lfu-da", "lfu", "size", "lru-2", "landlord(1)", "landlord(p)",
    "belady")}
POLICIES["gd*(1) beta=0.5"] = ("gd*(1)", {"fixed_beta": 0.5})


def online_estimator():
    """Refits every 200 reuse gaps from 100 samples: short enough for
    β to leave 1 on the golden trace."""
    return OnlineBetaEstimator(refresh_interval=200, min_samples=100)


#: Online-β cells, which also pin each estimator's final β, refresh
#: count and observation count (one estimator per document type for
#: ``gd*t``).
ONLINE = {
    "gd*(1) online": lambda: GDStarPolicy(ConstantCost(),
                                          online_estimator()),
    "gd*t(1) online": lambda: GDStarTypedPolicy(ConstantCost(),
                                                online_estimator),
}
POLICIES.update({key: (key, {}) for key in ONLINE})

CAPACITY_BYTES = 1_000_000   # ~2 % of the trace's distinct bytes

HEAD = 12


def golden_references():
    """dfn-like 1/1024 trace (6 560 requests, 24 natural size changes)
    with every 17th reference to an already-seen document grown by its
    position, so the modification path runs against resident copies."""
    references = []
    seen = set()
    for position, request in enumerate(
            generate_trace(dfn_like(scale=1.0 / 1024.0, seed=5)).requests):
        size = request.size
        if request.url in seen and position % 17 == 0:
            size += position
        seen.add(request.url)
        references.append((request.url, size, request.doc_type))
    return references


def victim_order(key, references):
    name, kwargs = POLICIES[key]
    if name == "belady":
        policy = BeladyPolicy(compute_next_uses(
            [Request(0.0, url, size, size, doc_type)
             for url, size, doc_type in references]))
    elif key in ONLINE:
        policy = ONLINE[key]()
    else:
        policy = make_policy(name, **kwargs)
    cache = Cache(CAPACITY_BYTES, policy)
    departures = []
    cache.on_evict = lambda entry: departures.append(
        [entry.url, cache.clock])
    for url, size, doc_type in references:
        cache.reference(url, size, doc_type)
    cache.check_invariants()
    observed = {
        "sha256": hashlib.sha256(
            json.dumps(departures).encode("utf-8")).hexdigest(),
        "head": [f"{url} @{clock}" for url, clock in departures[:HEAD]],
        "departures": len(departures),
        "evictions": cache.evictions,
        "invalidations": cache.invalidations,
        "hits": cache.hits,
        # The Greedy-Dual members' final L; None for a queue without aging.
        "level": getattr(policy, "inflation", None),
    }
    if key in ONLINE:
        estimators = getattr(policy, "estimators", None)
        estimators = ([estimators[t] for t in DOCUMENT_TYPES]
                      if estimators is not None else [policy.estimator])
        observed["estimators"] = [
            {"beta": e.beta, "refreshes": e.refreshes,
             "observations": e.observations} for e in estimators]
    return observed


@pytest.fixture(scope="module")
def references():
    return golden_references()


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


def test_goldens_cover_every_pinned_policy(goldens):
    assert sorted(goldens) == sorted(POLICIES)


@pytest.mark.parametrize("key", POLICIES)
def test_victim_order_is_unchanged(key, references, goldens):
    observed = victim_order(key, references)
    expected = goldens[key]
    # Both paths ran, or the golden pins nothing worth pinning.
    assert observed["evictions"] > 100 and observed["invalidations"] > 10
    assert observed == expected


if __name__ == "__main__":
    GOLDENS.parent.mkdir(exist_ok=True)
    refs = golden_references()
    GOLDENS.write_text(json.dumps(
        {key: victim_order(key, refs) for key in POLICIES},
        indent=1, sort_keys=True) + "\n")
