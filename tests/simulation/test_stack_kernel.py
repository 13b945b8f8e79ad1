"""The one stack-distance kernel, against the recurrence it replaced.

:func:`repro.simulation.vectorized.weighted_stack_distances` computes
Mattson stack distances as array operations.  These tests hold it to the
scalar Fenwick recurrence, written out below on
:class:`~repro.structures.fenwick.FenwickTree`, and the LRU ladder built
on it to the per-request :class:`CacheSimulator`, with capacities placed
exactly on the ``distance + size`` hit boundaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stack_distance import COLD, stack_distances
from repro.observability.events import set_event_sink
from repro.simulation.simulator import SimulationConfig
from repro.simulation.vectorized import weighted_stack_distances
from repro.structures.fenwick import FenwickTree
from repro.types import DocumentType, Request, Trace
from tests.simulation.test_engine import (  # noqa: F401 (fixture)
    EventRecorder,
    _null_sink_after,
    assert_cells_match_classic,
)


def fenwick_distances(keys, weights):
    """The scalar recurrence: a Fenwick tree flags each key's latest
    reference with its weight; a re-reference's distance is the flagged
    weight strictly between it and its previous reference (``None`` for
    a first reference)."""
    distances = [None] * len(keys)
    if not keys:
        return distances
    tree = FenwickTree(len(keys))
    latest = {}
    for position, key in enumerate(keys):
        previous = latest.get(key)
        if previous is not None:
            distances[position] = tree.range_sum(previous + 1,
                                                 position - 1)
            tree.add(previous, -tree.range_sum(previous, previous))
        tree.add(position, weights[position])
        latest[key] = position
    return distances


def kernel_distances(keys, weights, dtype=np.int64):
    distances, cold, last = weighted_stack_distances(
        np.array(keys, dtype=np.int64), np.array(weights, dtype=dtype))
    # ``last`` marks each key's final reference.
    final = {key: position for position, key in enumerate(keys)}
    assert np.flatnonzero(last).tolist() == sorted(final.values())
    return [None if is_cold else value
            for value, is_cold in zip(distances.tolist(), cold.tolist())]


#: Weight columns: byte-like sizes, many zeros, and units.
WEIGHTS = st.one_of(st.integers(0, 50_000), st.sampled_from((0, 1)),
                    st.just(1))


@st.composite
def references(draw, weights=WEIGHTS, max_size=300):
    """``(keys, weights)`` with each key's weight free to vary."""
    n = draw(st.integers(0, max_size))
    universe = draw(st.integers(1, 40))
    keys = draw(st.lists(st.integers(0, universe - 1), min_size=n,
                         max_size=n))
    return keys, draw(st.lists(weights, min_size=n, max_size=n))


class TestKernelEqualsRecurrence:
    @settings(max_examples=100, deadline=None)
    @given(references())
    def test_int_keys(self, trace):
        keys, weights = trace
        assert kernel_distances(keys, weights) == \
            fenwick_distances(keys, weights)

    @settings(max_examples=60, deadline=None)
    @given(references(weights=st.integers(0, 1 << 62), max_size=120))
    def test_total_weight_past_2_62_is_exact(self, trace):
        """Totals at or past ``2**62`` run the same code on python ints;
        here a distance reaches ``2**63``, past int64."""
        keys, weights = trace
        keys = keys + [-1, -2, -3, -1]
        weights = weights + [1 << 62] * 4
        expected = fenwick_distances(keys, weights)
        assert expected[-1] >= 1 << 63
        assert kernel_distances(keys, weights) == expected
        assert kernel_distances(keys, weights, dtype=object) == expected

    @settings(max_examples=80, deadline=None)
    @given(references(max_size=200))
    def test_url_keys(self, trace):
        """The analysis API interns URLs and keeps its float contract."""
        keys, sizes = trace
        urls = [f"http://h/{key}.html" for key in keys]
        requests = [Request(float(i), url, size, size, DocumentType.HTML)
                    for i, (url, size) in enumerate(zip(urls, sizes))]
        for byte_weighted, weights in ((True, sizes),
                                       (False, [1] * len(urls))):
            expected = [COLD if d is None else float(d)
                        for d in fenwick_distances(urls, weights)]
            got = stack_distances(requests, byte_weighted=byte_weighted)
            assert got == expected
            assert all(d is COLD for d, e in zip(got, expected)
                       if e is COLD)

    def test_sizes_past_int64(self):
        """Sizes no int64 holds keep the analysis API exact."""
        huge = 1 << 64
        requests = [Request(float(i), url, size, size, DocumentType.HTML)
                    for i, (url, size) in enumerate(
                        (("a", 1), ("b", huge), ("b", huge), ("a", 1)))]
        assert stack_distances(requests, byte_weighted=True) == \
            [COLD, COLD, 0.0, float(huge)]


def ladder_cells_served(trace, configs):
    """Run ``configs`` in one shared pass, each against its reference,
    and return how many of them the LRU ladder served."""
    recorder = EventRecorder()
    previous = set_event_sink(recorder)
    try:
        assert_cells_match_classic(trace, trace, configs)
    finally:
        set_event_sink(previous)
    (finished,) = recorder.named("pass_finished")
    return finished["lru_ladder_cells"]


@st.composite
def stable_traces(draw):
    """A request list in which every document keeps one size."""
    n = draw(st.integers(1, 150))
    documents = draw(st.integers(1, 25))
    sizes = draw(st.lists(st.integers(0, 3_000), min_size=documents,
                          max_size=documents))
    urls = draw(st.lists(st.integers(0, documents - 1), min_size=n,
                         max_size=n))
    types = list(DocumentType)
    return Trace([Request(float(i), f"u{url}", sizes[url], sizes[url],
                          types[url % len(types)])
                  for i, url in enumerate(urls)], name="ladder-property")


class TestLadderEqualsSimulator:
    @settings(max_examples=40, deadline=None)
    @given(stable_traces(), st.sampled_from((0.0, 0.2)))
    def test_capacities_on_hit_boundaries(self, trace, warmup):
        """At ``C = d + size`` a reference just hits and at ``C - 1`` it
        just misses; the ladder must agree with the simulator on both."""
        keys = [int(request.url[1:]) for request in trace]
        sizes = [request.size for request in trace]
        distances = fenwick_distances(keys, sizes)
        floor = max(max(sizes), 1)
        boundaries = sorted({d + size for d, size in zip(distances, sizes)
                             if d is not None})
        capacities = sorted({c + delta for c in boundaries[::3][:8]
                             for delta in (-1, 0) if c + delta >= floor}
                            | {floor})
        configs = [SimulationConfig(capacity_bytes=c, policy="lru",
                                    warmup_fraction=warmup)
                   for c in capacities]
        assert ladder_cells_served(trace, configs) == len(configs)

    @pytest.mark.parametrize("big", [1 << 53, 1 << 62],
                             ids=["float-rounding", "python-ints"])
    def test_hits_are_decided_in_integers(self, big):
        """Past ``2**53`` a float ``d + size`` rounds: ``a b a`` at
        capacity ``big`` needs ``big + 1`` bytes for the hit.  At
        ``2**62`` the ladder runs on python ints."""
        trace = Trace([Request(float(i), url, size, size, DocumentType.HTML)
                       for i, (url, size) in enumerate(
                           (("a", big), ("b", 1), ("a", big)))],
                      name="past-2-53")
        configs = [SimulationConfig(capacity_bytes=c, policy="lru",
                                    warmup_fraction=0.0)
                   for c in (big, big + 1)]
        assert ladder_cells_served(trace, configs) == 2
