"""The shared pass's column kernels, and the matrix from ``.rcol``.

:func:`repro.simulation.engine.run_cells` reads integer columns and
nothing else, so every kernel in :mod:`repro.simulation.vectorized` —
the LRU ladder, the LRU/FIFO queue, hinted Greedy-Dual keys, masked
boundary tallies — serves a request list or iterator exactly as it
serves an mmap'd file.  The first classes re-run the source-parametrized
equivalence matrix of ``test_engine.py`` with ``.rcol`` as the source;
the rest pin each kernel, from every source, *bit-identical* to the
per-request reference: every counter, rate, occupancy sample, and
latency statistic.
"""

import pytest

from repro.errors import ConfigurationError
from repro.observability.events import set_event_sink
from repro.simulation.engine import CacheCell, run_cells
from repro.simulation.parallel import run_sweep_parallel
from repro.simulation.simulator import (
    CacheSimulator,
    SimulationConfig,
    SizeInterpretation,
)
from repro.simulation.sweep import run_sweep
from repro.trace.columnar import write_columnar
from repro.types import DocumentType, Request, Trace
from tests.simulation import test_engine as matrix
from tests.simulation.test_engine import (  # noqa: F401 (fixtures)
    DOC_TYPES,
    EventRecorder,
    _null_sink_after,
    assert_cells_match_classic,
    assert_ladder,
    classic,
    feed,
    lru_configs,
    mixed_trace,
)

EVERY_SOURCE = ("requests", "generator", "rcol")


class TestFullRegistryEquivalence(matrix.TestFullRegistryEquivalence):
    SOURCES = ("rcol",)


class TestInterpretationAndWarmupEquivalence(
        matrix.TestInterpretationAndWarmupEquivalence):
    SOURCES = ("rcol",)


class TestVectorizedLRULadder:
    def check(self, feed, trace, configs, ladder_cells):
        assert_ladder(feed, ("rcol",), trace, configs, ladder_cells)

    def test_ladder_matches_classic_and_disabled(self, feed):
        """The ladder against per-request simulation of the same cells
        (what the retired ``lru_fast_path=False`` stood in for)."""
        self.check(feed, mixed_trace(),   # stable sizes: eligible
                   lru_configs((9_000, 40_000, 200_000)), 3)

    def test_modified_sizes_disqualify_ladder(self, feed):
        self.check(feed, mixed_trace(modify_every=13),
                   lru_configs((4_000, 50_000)), 0)

    def test_bypass_capacities_disqualify_ladder(self, feed):
        self.check(feed, mixed_trace(),   # max doc > 5_000
                   lru_configs((1_000, 2_000)), 0)

    def test_warmup_ladder(self, feed):
        self.check(feed, mixed_trace(),
                   lru_configs((9_000, 60_000), warmup=0.4), 2)

    def test_zero_size_documents(self, feed):
        requests = []
        for i in range(200):
            url = f"u{i % 9}"
            size = 0 if i % 9 < 3 else 800
            requests.append(Request(float(i), url, size, size,
                                    DocumentType.HTML))
        self.check(feed, Trace(requests, name="zero-size"),
                   lru_configs((800, 2_400, 10_000)), 3)


class TestFIFOFastPath:
    def test_fifo_shadow_queue_exact(self, feed):
        trace = mixed_trace(modify_every=9)   # invalidations + bypasses
        configs = [SimulationConfig(capacity_bytes=c, policy="fifo",
                                    warmup_fraction=w)
                   for c in (1_500, 9_000, 60_000) for w in (0.0, 0.25)]
        for source in EVERY_SOURCE:
            recorder = EventRecorder()
            set_event_sink(recorder)
            assert_cells_match_classic(feed(source, trace), trace,
                                       configs)
            (finished,) = recorder.named("pass_finished")
            assert finished["queue_cells"] == len(configs), source


class TestHintedGreedyDual:
    @pytest.mark.parametrize("policy",
                             ["gds(1)", "gds(p)", "gdsf(1)", "gdsf(p)",
                              "gd*(1)", "gd*(p)"])
    def test_cost_hint_is_bit_identical(self, policy, feed):
        trace = mixed_trace(modify_every=7)
        configs = [
            SimulationConfig(capacity_bytes=c, policy=policy,
                             size_interpretation=interp)
            for c in (4_000, 25_000)
            for interp in (SizeInterpretation.TRUSTED,
                           SizeInterpretation.PAPER_RULE)]
        for source in EVERY_SOURCE:
            assert_cells_match_classic(feed(source, trace), trace,
                                       configs)


class TestAccountingExtras:
    def test_occupancy_latency_ttl_and_cost_report(self, feed):
        from repro.core.cost import PacketCost
        from repro.simulation.freshness import TTLModel
        from repro.simulation.latency import LatencyModel

        trace = mixed_trace()
        configs = [
            SimulationConfig(capacity_bytes=9_000, policy="lru",
                             occupancy_interval=50),
            SimulationConfig(capacity_bytes=9_000, policy="gds(1)",
                             report_cost_model=PacketCost()),
            SimulationConfig(capacity_bytes=9_000, policy="lru",
                             latency_model=LatencyModel()),
            SimulationConfig(capacity_bytes=9_000, policy="lru",
                             ttl_model=TTLModel(default_ttl=120.0)),
        ]
        occupancy = classic(trace, configs[0]).occupancy
        latency = classic(trace, configs[2]).latency
        for source in EVERY_SOURCE:
            results = assert_cells_match_classic(feed(source, trace),
                                                 trace, configs)
            assert results[0].occupancy.samples == occupancy.samples
            assert results[1].cost_savings_ratio() > 0
            assert results[2].latency.total_latency() == \
                latency.total_latency()
            for doc_type in DOC_TYPES:
                assert results[2].latency.mean_latency(doc_type) == \
                    latency.mean_latency(doc_type)
            assert results[3].ttl_expiries == \
                classic(trace, configs[3]).ttl_expiries


class TestEdgeCases:
    def test_empty_columnar_trace(self, feed):
        trace = Trace([], name="empty")
        configs = [SimulationConfig(capacity_bytes=5_000, policy=p)
                   for p in ("lru", "fifo", "gd*(1)")]
        for source in EVERY_SOURCE:
            results = assert_cells_match_classic(feed(source, trace),
                                                 trace, configs)
            for result in results:
                assert result.total_requests == 0
                assert result.metrics.overall.hits == 0

    def test_single_request(self, feed):
        trace = Trace([Request(0.0, "u0", 500, 500,
                               DocumentType.HTML)], name="one")
        configs = [SimulationConfig(capacity_bytes=1_000, policy="lru")]
        for source in EVERY_SOURCE:
            assert_cells_match_classic(feed(source, trace), trace,
                                       configs)

    @pytest.mark.parametrize("policy,modify_every", [
        ("lru", 0), ("lru", 9), ("fifo", 9), ("gds(1)", 9),
        ("lfu-da", 9)], ids=["ladder", "lru", "fifo", "hinted", "plain"])
    def test_served_cell_is_refused(self, policy, modify_every):
        """The kernels replay from an empty cache, so a prebuilt cell
        whose cache has served a reference is refused, not silently
        restarted; ``CacheSimulator`` still runs on from a warm cache."""
        trace = mixed_trace(modify_every=modify_every)
        config = SimulationConfig(capacity_bytes=9_000, policy=policy,
                                  warmup_fraction=0.0)
        cell = CacheCell(config)
        run_cells(trace, [cell])
        with pytest.raises(ConfigurationError, match="empty cache"):
            run_cells(trace, [cell])
        warm = CacheCell(config)
        warm.cache.reference("u0", 200, DocumentType.HTML)
        with pytest.raises(ConfigurationError, match="empty cache"):
            run_cells(trace, [warm])
        simulator = CacheSimulator(config)
        simulator.run(trace)
        assert len(simulator.cache)
        simulator.run(trace)        # runs on from its warm cache


class TestEntryPoints:
    POLICIES = ["lru", "fifo", "gds(1)", "gd*(p)"]
    CAPACITIES = [4_000, 20_000]

    def write(self, tmp_path, trace):
        path = tmp_path / "t.rcol"
        write_columnar(path, trace.requests, name=trace.name)
        return path

    def grid_sans_name(self, sweep):
        flat = {}
        for policy, per_cap in sweep.grid.items():
            for capacity, cell in per_cap.items():
                d = cell.as_dict()
                d.pop("trace_name", None)  # file sweeps use path stem
                flat[(policy, capacity)] = d
        return flat

    def classic_grid(self, trace):
        """The reference side: one CacheSimulator per cell."""
        flat = {}
        for policy in self.POLICIES:
            for capacity in self.CAPACITIES:
                d = classic(trace, SimulationConfig(
                    capacity_bytes=capacity, policy=policy)).as_dict()
                d.pop("trace_name", None)
                flat[(policy, capacity)] = d
        return flat

    def test_file_sweep_both_engines(self, tmp_path):
        """An ``.rcol`` file sweep (mmap'd columns) equals the
        in-memory sweep (gathered columns) and the per-cell simulator."""
        trace = mixed_trace(modify_every=17)
        path = self.write(tmp_path, trace)
        memory = self.grid_sans_name(
            run_sweep(trace, self.POLICIES, self.CAPACITIES))
        from_file = self.grid_sans_name(
            run_sweep(path, self.POLICIES, self.CAPACITIES))
        assert from_file == memory
        assert from_file == self.classic_grid(trace)

    def test_columnar_trace_object_sweep(self, feed):
        trace = mixed_trace(modify_every=17)
        columnar = feed("rcol", trace)
        memory = run_sweep(trace, self.POLICIES, self.CAPACITIES)
        direct = run_sweep(columnar, self.POLICIES, self.CAPACITIES)
        assert direct.as_dict() == memory.as_dict()
        assert self.grid_sans_name(direct) == self.classic_grid(trace)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_parallel_columnar_path(self, tmp_path, n_workers):
        trace = mixed_trace(modify_every=17)
        path = self.write(tmp_path, trace)
        reference = self.classic_grid(trace)
        for cells_per_pass in (None, 1):
            parallel = self.grid_sans_name(run_sweep_parallel(
                str(path), self.POLICIES, self.CAPACITIES,
                n_workers=n_workers, cells_per_pass=cells_per_pass))
            assert parallel == reference


class TestServiceTrialParity:
    def test_objects_and_columnar_trials_match(self, tmp_path,
                                               monkeypatch):
        """One spec, the trace held both ways, the same stored bytes —
        for a hinted Greedy-Dual cell and a ladder-candidate LRU cell."""
        from repro.experiments.service import (
            TrialSpec,
            _WorkerTraceCache,
            execute_trial,
        )
        from repro.experiments.store import canonical_json
        import repro.experiments.service as service

        specs = [TrialSpec(trace="dfn", scale=0.01, policy=policy,
                           size_fraction=0.01, seed=42)
                 for policy in ("gd*(1)", "lru")]
        monkeypatch.delenv("REPRO_SERVICE_TRACE_DIR", raising=False)
        monkeypatch.setattr(service, "_TRACES", _WorkerTraceCache())
        objects = [execute_trial(spec) for spec in specs]
        monkeypatch.setenv("REPRO_SERVICE_TRACE_DIR",
                           str(tmp_path / "traces"))
        monkeypatch.setattr(service, "_TRACES", _WorkerTraceCache())
        columnar = [execute_trial(spec) for spec in specs]
        assert [canonical_json(payload) for payload in columnar] == \
            [canonical_json(payload) for payload in objects]
        assert (tmp_path / "traces" / "dfn-0.01-42.rcol").exists()
        # Second execution reuses the spilled file (and still matches).
        assert execute_trial(specs[0]) == objects[0]


class TestTelemetry:
    def test_columnar_pass_events(self, feed):
        trace = mixed_trace()
        configs = [SimulationConfig(capacity_bytes=c, policy=p)
                   for p in ("lru", "fifo", "gds(1)")
                   for c in (9_000, 20_000)]
        for source in EVERY_SOURCE:
            recorder = EventRecorder()
            set_event_sink(recorder)
            run_cells(feed(source, trace), configs,
                      trace_name=trace.name)
            (started,) = recorder.named("pass_started")
            (finished,) = recorder.named("pass_finished")
            assert started["cells"] == len(configs)
            assert started["requests"] == len(trace)
            assert finished["cells"] == len(configs)
            # Every vectorized fast path fired: 2 plain-LRU ladder
            # cells, 2 FIFO queue cells and 2 GDS heap cells.
            assert finished["lru_ladder_cells"] == 2
            assert finished["queue_cells"] == 2
            assert finished["heap_cells"] == 2
