"""Equivalence pins of the network engine.

Four families of guarantees, all byte-for-byte:

* the goldens under ``data/`` — ``two_level`` and ``sibling_mesh``
  under LCE across the whole policy registry, first produced by the
  hand-written loops that predate the engine, and the non-LCE walk
  (``tree`` / ``path`` / ``sibling_mesh`` under ``lcd`` and
  ``probcache``, sibling serves both ways, latency) — replayed through
  the same cell builders ``gen_goldens.py`` regenerates them with, the
  walk from every trace *source* (a ``Trace``, a request iterator, an
  ``.rcol``: it reads columns, never ``Request`` objects);
* a ``single`` topology under LCE equals the single-cache
  :class:`~repro.simulation.simulator.CacheSimulator`;
* the vectorized fast path equals the object walk on every eligible
  topology shape, whether the trace is a request list or an ``.rcol``,
  with size changes, bypasses and latency;
* ``run_network`` is ``run_network_cells`` with a batch of one, and
  that one dispatch point validates before it picks a path.
"""

import json
from pathlib import Path

import pytest

from repro.core.lru import LRUPolicy
from repro.errors import ConfigurationError
from repro.network.engine import (NetworkConfig, NetworkSimulator,
                                  run_network, run_network_cells)
from repro.network.fastpath import fastpath_eligible
from repro.network.topology import (path, sibling_mesh, single, tree,
                                    two_level)
from repro.observability.events import set_event_sink
from repro.simulation.simulator import simulate
from repro.trace.columnar import ColumnarTrace, write_columnar
from repro.types import DocumentType, Request, Trace
from tests.network.gen_goldens import (hierarchy_cell, mesh_cell,
                                       walk_cell, walk_keys)
from tests.network.test_accounting import assert_cascade_is_the_walk

DATA_DIR = Path(__file__).parent / "data"

GOLDEN_HIERARCHY = json.loads(
    (DATA_DIR / "golden_hierarchy.json").read_text())
GOLDEN_MESH = json.loads((DATA_DIR / "golden_mesh.json").read_text())
GOLDEN_WALK = json.loads((DATA_DIR / "golden_walk.json").read_text())


@pytest.fixture(scope="session")
def golden_trace(tiny_dfn_trace):
    """The goldens were generated at the shared fixture's scale."""
    assert GOLDEN_HIERARCHY["meta"]["trace_scale"] == 1.0 / 512.0
    assert GOLDEN_HIERARCHY["meta"]["trace_requests"] == \
        len(tiny_dfn_trace)
    return tiny_dfn_trace


class TestHierarchyGoldens:
    @pytest.mark.parametrize("key",
                             sorted(GOLDEN_HIERARCHY["cells"]))
    def test_cell(self, key, golden_trace):
        child_policy, parent_policy, n_children = key.split("|")
        meta = GOLDEN_HIERARCHY["meta"]
        assert hierarchy_cell(
            golden_trace, meta["child_capacity_bytes"],
            meta["parent_capacity_bytes"], child_policy,
            parent_policy, int(n_children)
        ) == GOLDEN_HIERARCHY["cells"][key]


class TestMeshGoldens:
    @pytest.mark.parametrize("key", sorted(GOLDEN_MESH["cells"]))
    def test_cell(self, key, golden_trace):
        policy, mode, n_proxies = key.split("|")
        meta = GOLDEN_MESH["meta"]
        assert mesh_cell(
            golden_trace, meta["proxy_capacity_bytes"], policy,
            mode == "replicate", int(n_proxies)
        ) == GOLDEN_MESH["cells"][key]


@pytest.fixture(scope="session")
def golden_rcol(golden_trace, tmp_path_factory):
    target = tmp_path_factory.mktemp("rcol") / "golden.rcol"
    write_columnar(target, golden_trace.requests, name=golden_trace.name)
    return ColumnarTrace(target)


class TestWalkGoldens:
    """The walk no LCE golden takes: ``get`` probes, strategy-chosen
    copies, sibling serves with and without replication, latency —
    the same pinned cell whichever source the columns come from."""

    def test_every_cell_is_pinned(self):
        assert sorted(GOLDEN_WALK["cells"]) == sorted(walk_keys())

    @pytest.mark.parametrize("key", sorted(GOLDEN_WALK["cells"]))
    def test_cell(self, key, golden_trace, golden_rcol):
        meta = GOLDEN_WALK["meta"]
        feeds = {"trace": golden_trace, "rcol": golden_rcol,
                 "iterator": iter(golden_trace.requests)}
        for source, feed in feeds.items():
            cell = walk_cell(
                feed, meta["child_capacity_bytes"],
                meta["parent_capacity_bytes"],
                meta["proxy_capacity_bytes"], key)
            if source == "iterator":      # carries no name of its own
                assert cell.pop("trace_name") == "trace"
                cell["trace_name"] = golden_trace.name
            assert cell == GOLDEN_WALK["cells"][key], source


class TestSingleNodeEquivalence:
    @pytest.mark.parametrize("policy", ["lru", "gds(1)", "gd*(p)"])
    def test_matches_cache_simulator(self, policy, tiny_dfn_trace):
        capacity = 500_000
        classic = simulate(tiny_dfn_trace, policy, capacity,
                           warmup_fraction=0.10)
        network = NetworkSimulator(NetworkConfig(
            topology=single(capacity, policy),
            strategy="lce")).run(tiny_dfn_trace)
        node = network.nodes["cache"]
        assert network.network.as_dict() == classic.metrics.as_dict()
        assert node.metrics.as_dict() == classic.metrics.as_dict()
        assert node.evictions == classic.evictions
        assert node.bypasses == classic.bypasses
        assert node.invalidations == classic.invalidations


# -- fast path vs object walk ---------------------------------------------

#: Caps object sizes so every document fits every node of
#: :func:`topologies`; the bypass tests below size a node under it.
MAX_SIZE = 200_000


@pytest.fixture(scope="module")
def capped_trace(tiny_dfn_trace):
    # Pin every document to its first-seen (capped) size: the dfn
    # workload contains modification events, which the tests below
    # replay from the raw trace instead.
    pinned = {}
    requests = []
    for r in tiny_dfn_trace:
        size = pinned.setdefault(r.url, min(r.size, MAX_SIZE))
        requests.append(Request(r.timestamp, r.url, size, size,
                                r.doc_type, r.status))
    return Trace(requests, name="capped-dfn")


@pytest.fixture(scope="module")
def columnar_trace(capped_trace, tmp_path_factory):
    target = tmp_path_factory.mktemp("rcol") / "capped.rcol"
    write_columnar(target, capped_trace.requests, name=capped_trace.name)
    return ColumnarTrace(target)


def topologies(policies=("lru",) * 3):
    """The four eligible shapes, with a policy per level, leaves first."""
    total = int(MAX_SIZE * 40)
    per = total // 8
    return [
        single(total, policies[0]),
        two_level(per, per * 4, policies[0], policies[-1], n_children=3),
        path([per, per * 2, per * 4], list(policies)),
        tree([per, per * 2, per * 4], branching=2, policy=list(policies)),
    ]


class TestFastpath:
    @pytest.mark.parametrize("topology", topologies(),
                             ids=lambda t: t.name)
    def test_bit_identical_to_object_walk(self, topology,
                                          columnar_trace, capped_trace):
        config = NetworkConfig(topology=topology, strategy="lce")
        slow = NetworkSimulator(config).run(capped_trace)
        for source in (columnar_trace, capped_trace):
            assert fastpath_eligible(config)
            fast = run_network(source, config)
            assert fast.trace_name == slow.trace_name
            assert fast.total_requests == slow.total_requests
            assert fast.warmup_requests == slow.warmup_requests
            assert fast.network.as_dict() == slow.network.as_dict()
            for name in topology.nodes:
                assert fast.nodes[name].as_dict() == \
                    slow.nodes[name].as_dict(), name

    def test_empty_trace(self):
        """Nothing to cascade is still a run: same result, and the one
        ``network_simulated`` event, from either engine."""
        class Sink:
            def emit(self, event, **fields):
                events.append(event)

        config = NetworkConfig(topology=topologies()[3], strategy="lce")
        empty = Trace([], name="empty")
        assert fastpath_eligible(config)
        results = []
        for engine in (run_network,
                       lambda trace, config:
                       NetworkSimulator(config).run(trace)):
            events = []
            previous = set_event_sink(Sink())
            try:
                results.append(engine(empty, config).as_dict())
            finally:
                set_event_sink(previous)
            assert events == ["network_simulated"]
        assert results[0] == results[1]
        assert results[0]["total_requests"] == 0

    def test_run_network_dispatches_to_fastpath(self, columnar_trace,
                                                capped_trace,
                                                monkeypatch):
        import repro.network.fastpath as fastpath_module

        calls = []
        original = fastpath_module.run_cascade

        def spy(config, columns, tally, name):
            calls.append(columns)
            return original(config, columns, tally, name)

        monkeypatch.setattr(fastpath_module, "run_cascade", spy)
        config = NetworkConfig(topology=topologies()[0],
                               strategy="lce")
        results = [run_network(source, config).as_dict()
                   for source in (columnar_trace, capped_trace,
                                  iter(capped_trace.requests))]
        # The .rcol is read in place; a request list or iterator is
        # gathered into columns once and takes the same cascade.
        assert calls[0] is columnar_trace
        assert len(calls) == 3
        assert results[1] == results[0]
        assert {**results[2], "trace_name": "capped-dfn"} == results[0]

    def test_ineligible_cells_detected(self):
        topology = topologies()[0]
        # A policy no replay takes disqualifies, a subclass of a queue
        # policy included, and so does a node given a policy instance:
        # the walk must drive that very object.
        for policy in ("gd*t(1)", "lru-threshold", LRUPolicy()):
            assert not fastpath_eligible(NetworkConfig(
                topology=single(MAX_SIZE * 40, policy))), policy
        # Non-LCE placement disqualifies.
        assert not fastpath_eligible(NetworkConfig(
            topology=topology, strategy="lcd"))
        # A sibling ring disqualifies.
        assert not fastpath_eligible(NetworkConfig(
            topology=sibling_mesh(MAX_SIZE * 40, n_proxies=2)))

    # Latency, size changes and documents larger than a node are all
    # replayed by the cascade, not refused.

    @pytest.mark.parametrize("topology", topologies(),
                             ids=lambda t: t.name)
    def test_latency_cells_take_the_cascade(self, topology,
                                            columnar_trace):
        assert_cascade_is_the_walk(columnar_trace, NetworkConfig(
            topology=topology, measure_latency=True))

    def test_size_changes_take_the_cascade(self, tiny_dfn_trace):
        """The raw DFN workload: documents change size, so stale copies
        are invalidated where they are found."""
        result = assert_cascade_is_the_walk(tiny_dfn_trace, NetworkConfig(
            topology=topologies()[3], measure_latency=True))
        assert sum(node.invalidations
                   for node in result.nodes.values()) > 0

    def test_oversized_documents_take_the_cascade(self, tiny_dfn_trace):
        """A node smaller than some documents bypasses them, and the
        raw workload's size changes invalidate."""
        result = assert_cascade_is_the_walk(tiny_dfn_trace, NetworkConfig(
            topology=single(MAX_SIZE - 1), measure_latency=True))
        node = result.nodes["cache"]
        assert node.bypasses > 0
        assert node.invalidations > 0

    @pytest.mark.parametrize("shape", range(4),
                             ids=[t.name for t in topologies()])
    @pytest.mark.parametrize("policies", [
        ("gds(1)",) * 3, ("gd*(1)",) * 3, ("gdsf(p)", "lfu-da", "gd*(p)"),
        ("lfu-da", "lru", "gds(p)")], ids="+".join)
    def test_greedy_dual_nodes_take_the_cascade(self, shape, policies,
                                                tiny_dfn_trace):
        """GDS, GDSF, GD* and LFU-DA nodes, alone or beside a queue
        node, run the heap replay over the raw DFN workload, whose size
        changes invalidate: every node's counters, used bytes and
        per-type placement are the walk's."""
        config = NetworkConfig(topology=topologies(policies)[shape])
        fast = assert_cascade_is_the_walk(tiny_dfn_trace, config)
        walk = NetworkSimulator(config).run(tiny_dfn_trace)
        for name, node in walk.nodes.items():
            assert fast.nodes[name].used_bytes == node.used_bytes > 0
            assert fast.nodes[name].placement == node.placement
        assert sum(node.invalidations for node in fast.nodes.values()) > 0
        assert sum(node.evictions for node in fast.nodes.values()) > 0

    def test_placement_types_residents_as_admitted(self):
        """A resident keeps the type it was admitted with, not its
        document's latest request's."""
        trace = Trace([Request(0.0, "a", 100, 100, DocumentType.HTML),
                       Request(1.0, "b", 100, 100, DocumentType.IMAGE),
                       Request(2.0, "a", 100, 100, DocumentType.IMAGE)])
        config = NetworkConfig(topology=single(1000), warmup_fraction=0.0)
        placement = run_network(trace, config).nodes["cache"].placement
        assert placement == NetworkSimulator(config).run(
            trace).nodes["cache"].placement
        assert placement[DocumentType.HTML] == 100
        assert placement[DocumentType.IMAGE] == 100


class TestOneDispatchPoint:
    """``run_network`` is a batch of one through ``run_network_cells``:
    same result, same refusals, whichever path serves the cell."""

    @pytest.mark.parametrize("strategy,eligible",
                             [("lce", True), ("lcd", False)])
    def test_run_network_is_a_batch_of_one(self, strategy, eligible,
                                           columnar_trace):
        config = NetworkConfig(topology=topologies()[1],
                               strategy=strategy)
        assert fastpath_eligible(config) is eligible
        assert run_network(columnar_trace, config).as_dict() == \
            run_network_cells(columnar_trace, [config])[0].as_dict()

    @pytest.mark.parametrize("run", [
        run_network,
        lambda trace, config: run_network_cells(trace, [config]),
    ], ids=["run_network", "run_network_cells"])
    def test_cascade_path_validates_its_config(self, run,
                                               columnar_trace):
        """The cascade used to accept what ``NetworkSimulator``
        refuses (and report more warm-up than trace)."""
        config = NetworkConfig(topology=single(MAX_SIZE * 40),
                               warmup_fraction=1.5)
        with pytest.raises(ConfigurationError, match="warmup_fraction"):
            NetworkSimulator(config)
        with pytest.raises(ConfigurationError, match="warmup_fraction"):
            run(columnar_trace, config)

    def test_trace_checked_once_per_batch(self, columnar_trace,
                                          monkeypatch):
        """One batch builds one tally of its columns, whichever engines
        serve its cells."""
        import repro.network.engine as engine_module

        calls = []
        original = engine_module.Tally.of

        def spy(columns):
            calls.append(columns)
            return original(columns)

        monkeypatch.setattr(engine_module.Tally, "of", spy)
        configs = [NetworkConfig(topology=topology)
                   for topology in topologies()]
        configs.append(NetworkConfig(topology=topologies()[0],
                                     strategy="lcd"))
        assert [fastpath_eligible(config) for config in configs] == \
            [True] * 4 + [False]
        run_network_cells(columnar_trace, configs)
        assert calls == [columnar_trace]


class TestWalkReadsColumns:
    """The walk is a column driver: no ``Request`` is built from an
    ``.rcol``, and an iterator is gathered once for the whole batch."""

    def walk_configs(self):
        return [NetworkConfig(topology=topologies()[3], strategy="lcd"),
                NetworkConfig(topology=topologies()[1],
                              strategy="probcache",
                              measure_latency=True)]

    def test_rcol_walk_builds_no_request(self, columnar_trace,
                                         capped_trace, monkeypatch):
        expected = [result.as_dict() for result in run_network_cells(
            capped_trace, self.walk_configs())]

        def refuse(self, *args):
            raise AssertionError("the walk decoded a Request")

        monkeypatch.setattr(ColumnarTrace, "iter_requests", refuse)
        monkeypatch.setattr(ColumnarTrace, "__getitem__", refuse)
        results = run_network_cells(columnar_trace, self.walk_configs())
        assert [result.as_dict() for result in results] == expected
        assert NetworkSimulator(self.walk_configs()[0]).run(
            columnar_trace).as_dict() == expected[0]

    def test_iterator_is_consumed_exactly_once(self, capped_trace):
        """One gather feeds the cascade cell and both walk cells."""
        pulled = []

        def stream():
            for request in capped_trace.requests:
                pulled.append(request)
                yield request
            pulled.append("exhausted")

        def configs():
            return [NetworkConfig(topology=topologies()[1])] \
                + self.walk_configs()

        assert fastpath_eligible(configs()[0])
        results = run_network_cells(stream(), configs(),
                                    trace_name=capped_trace.name)
        assert pulled == capped_trace.requests + ["exhausted"]
        assert [result.as_dict() for result in results] == [
            result.as_dict() for result
            in run_network_cells(capped_trace, configs())]
