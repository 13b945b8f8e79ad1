"""Columnar shared-pass engine equivalence: mmap'd columns == objects.

The contract of the vectorized engine
(:mod:`repro.simulation.vectorized`, reached through
:func:`repro.simulation.engine.run_cells` whenever the trace is a
:class:`~repro.trace.columnar.ColumnarTrace`) is *bit identity* with
the object path: every counter, rate, occupancy sample, and latency
statistic must match what the classic per-Request loop produces on the
same workload.  These tests extend the equivalence matrix of
``test_engine.py`` across the format boundary — every registered
policy, every size interpretation, warmup fractions, the vectorized
LRU ladder, the FIFO shadow-queue fast path, hinted Greedy-Dual cost
models, accounting extras, and the sweep/parallel/service entry points.
"""

import random

import pytest

from repro.core.registry import POLICY_NAMES
from repro.observability.events import read_events, set_event_sink
from repro.simulation.engine import run_cells
from repro.simulation.parallel import run_sweep_parallel
from repro.simulation.simulator import (
    CacheSimulator,
    SimulationConfig,
    SizeInterpretation,
)
from repro.simulation.sweep import run_sweep
from repro.trace.columnar import write_columnar
from repro.types import DocumentType, Request, Trace

DOC_TYPES = list(DocumentType)


@pytest.fixture(autouse=True)
def _null_sink_after():
    yield
    set_event_sink(None)


def mixed_trace(n=600, seed=7, modify_every=0):
    """Same construction as ``test_engine.mixed_trace`` (shape matters:
    skewed sizes, all five types, optional size modifications)."""
    rng = random.Random(seed)
    requests = []
    for i in range(n):
        url_id = rng.randrange(40)
        base = 200 + 137 * url_id
        size = base
        if modify_every and i % modify_every == 0:
            size = base * 2 + 31
        transfer = max(int(size * rng.choice((0.4, 1.0, 1.0))), 1)
        requests.append(Request(float(i), f"u{url_id}", size, transfer,
                                DOC_TYPES[url_id % len(DOC_TYPES)]))
    return Trace(requests, name="engine-test")


@pytest.fixture
def columnar_of(tmp_path):
    """Factory: object trace -> open ColumnarTrace with the same name."""
    from repro.trace.columnar import open_columnar

    opened = []

    def factory(trace):
        path = tmp_path / f"{len(opened)}.rcol"
        write_columnar(path, trace.requests, name=trace.name)
        columnar = open_columnar(path)
        opened.append(columnar)
        return columnar

    yield factory
    for columnar in opened:
        columnar.close()


def classic(trace, config):
    return CacheSimulator(config).run(trace, trace_name=trace.name)


def assert_identical(columnar_result, reference):
    assert columnar_result.as_dict() == reference.as_dict()
    assert columnar_result.evictions == reference.evictions
    assert columnar_result.invalidations == reference.invalidations
    assert columnar_result.bypasses == reference.bypasses


class TestFullRegistryEquivalence:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_every_registered_policy(self, policy, columnar_of):
        trace = mixed_trace()
        columnar = columnar_of(trace)
        configs = [SimulationConfig(capacity_bytes=c, policy=policy)
                   for c in (3_000, 12_000, 60_000)]
        results = run_cells(columnar, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))


class TestInterpretationAndWarmupEquivalence:
    @pytest.mark.parametrize("interp", list(SizeInterpretation))
    @pytest.mark.parametrize("warmup", [0.0, 0.1, 0.5])
    def test_modification_heavy(self, interp, warmup, columnar_of):
        trace = mixed_trace(modify_every=7)
        columnar = columnar_of(trace)
        configs = [
            SimulationConfig(capacity_bytes=c, policy=p,
                             warmup_fraction=warmup,
                             size_interpretation=interp)
            for p in ("lru", "fifo", "gd*(p)") for c in (4_000, 25_000)]
        results = run_cells(columnar, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))

    def test_mixed_interpretations_in_one_pass(self, columnar_of):
        trace = mixed_trace(modify_every=11)
        columnar = columnar_of(trace)
        configs = [SimulationConfig(capacity_bytes=9_000, policy="lru",
                                    size_interpretation=interp)
                   for interp in SizeInterpretation]
        results = run_cells(columnar, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))


class TestVectorizedLRULadder:
    def lru_configs(self, capacities, warmup=0.10):
        return [SimulationConfig(capacity_bytes=c, policy="lru",
                                 warmup_fraction=warmup)
                for c in capacities]

    def test_ladder_matches_classic_and_disabled(self, columnar_of):
        trace = mixed_trace()     # stable sizes: ladder-eligible
        columnar = columnar_of(trace)
        capacities = (9_000, 40_000, 200_000)
        fast = run_cells(columnar, self.lru_configs(capacities),
                         trace_name=trace.name)
        slow = run_cells(columnar, self.lru_configs(capacities),
                         trace_name=trace.name, lru_fast_path=False)
        for config, f, s in zip(self.lru_configs(capacities), fast,
                                slow):
            assert_identical(f, s)
            assert_identical(f, classic(trace, config))

    def test_modified_sizes_disqualify_ladder(self, columnar_of):
        trace = mixed_trace(modify_every=13)
        columnar = columnar_of(trace)
        configs = self.lru_configs((4_000, 50_000))
        results = run_cells(columnar, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))

    def test_bypass_capacities_disqualify_ladder(self, columnar_of):
        trace = mixed_trace()     # max doc > 5_000
        columnar = columnar_of(trace)
        configs = self.lru_configs((1_000, 2_000))
        results = run_cells(columnar, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))

    def test_warmup_ladder(self, columnar_of):
        trace = mixed_trace()
        columnar = columnar_of(trace)
        configs = self.lru_configs((9_000, 60_000), warmup=0.4)
        results = run_cells(columnar, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))

    def test_zero_size_documents(self, columnar_of):
        requests = []
        for i in range(200):
            url = f"u{i % 9}"
            size = 0 if i % 9 < 3 else 800
            requests.append(Request(float(i), url, size, size,
                                    DocumentType.HTML))
        trace = Trace(requests, name="zero-size")
        columnar = columnar_of(trace)
        configs = self.lru_configs((800, 2_400, 10_000))
        results = run_cells(columnar, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))


class TestFIFOFastPath:
    def test_fifo_shadow_queue_exact(self, columnar_of):
        trace = mixed_trace(modify_every=9)   # invalidations + bypasses
        columnar = columnar_of(trace)
        configs = [SimulationConfig(capacity_bytes=c, policy="fifo",
                                    warmup_fraction=w)
                   for c in (1_500, 9_000, 60_000) for w in (0.0, 0.25)]
        results = run_cells(columnar, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))


class TestHintedGreedyDual:
    @pytest.mark.parametrize("policy",
                             ["gds(1)", "gds(p)", "gdsf(1)", "gdsf(p)",
                              "gd*(1)", "gd*(p)"])
    def test_cost_hint_is_bit_identical(self, policy, columnar_of):
        trace = mixed_trace(modify_every=7)
        columnar = columnar_of(trace)
        configs = [
            SimulationConfig(capacity_bytes=c, policy=policy,
                             size_interpretation=interp)
            for c in (4_000, 25_000)
            for interp in (SizeInterpretation.TRUSTED,
                           SizeInterpretation.PAPER_RULE)]
        results = run_cells(columnar, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))


class TestAccountingExtras:
    def test_occupancy_latency_ttl_and_cost_report(self, columnar_of):
        from repro.core.cost import PacketCost
        from repro.simulation.freshness import TTLModel
        from repro.simulation.latency import LatencyModel

        trace = mixed_trace()
        columnar = columnar_of(trace)
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
        results = run_cells(columnar, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            reference = classic(trace, config)
            assert_identical(result, reference)
        assert results[0].occupancy is not None
        occupancy = classic(trace, configs[0]).occupancy
        assert results[0].occupancy.samples == occupancy.samples
        latency = classic(trace, configs[2]).latency
        assert results[2].latency.mean_latency() == \
            latency.mean_latency()
        assert results[2].latency.total_latency() == \
            latency.total_latency()
        for doc_type in DOC_TYPES:
            assert results[2].latency.mean_latency(doc_type) == \
                latency.mean_latency(doc_type)
        assert results[3].ttl_expiries == \
            classic(trace, configs[3]).ttl_expiries


class TestEdgeCases:
    def test_empty_columnar_trace(self, tmp_path):
        from repro.trace.columnar import open_columnar

        path = tmp_path / "empty.rcol"
        write_columnar(path, [], name="empty")
        with open_columnar(path) as columnar:
            results = run_cells(
                columnar,
                [SimulationConfig(capacity_bytes=5_000, policy=p)
                 for p in ("lru", "fifo", "gd*(1)")],
                trace_name="empty")
        for result in results:
            assert result.total_requests == 0
            assert result.metrics.overall.hits == 0

    def test_single_request(self, columnar_of):
        trace = Trace([Request(0.0, "u0", 500, 500,
                               DocumentType.HTML)], name="one")
        columnar = columnar_of(trace)
        configs = [SimulationConfig(capacity_bytes=1_000, policy="lru")]
        (result,) = run_cells(columnar, configs, trace_name="one")
        assert_identical(result, classic(trace, configs[0]))


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
        """An ``.rcol`` file sweep (column kernels) equals the
        in-memory sweep (object pass) and the per-cell simulator."""
        trace = mixed_trace(modify_every=17)
        path = self.write(tmp_path, trace)
        memory = self.grid_sans_name(
            run_sweep(trace, self.POLICIES, self.CAPACITIES))
        from_file = self.grid_sans_name(
            run_sweep(path, self.POLICIES, self.CAPACITIES))
        assert from_file == memory
        assert from_file == self.classic_grid(trace)

    def test_columnar_trace_object_sweep(self, tmp_path, columnar_of):
        trace = mixed_trace(modify_every=17)
        columnar = columnar_of(trace)
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
        """One spec, both trace formats, the same stored bytes — for a
        hinted Greedy-Dual cell and a ladder-candidate LRU cell."""
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
        monkeypatch.delenv("REPRO_TRACE_FORMAT", raising=False)
        monkeypatch.setattr(service, "_TRACES", _WorkerTraceCache())
        objects = [execute_trial(spec) for spec in specs]
        monkeypatch.setenv("REPRO_TRACE_FORMAT", "columnar")
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
    def test_columnar_pass_events(self, tmp_path, columnar_of):
        from repro.observability.events import EventLog

        trace = mixed_trace()
        columnar = columnar_of(trace)
        configs = [SimulationConfig(capacity_bytes=c, policy=p)
                   for p in ("lru", "fifo", "gds(1)")
                   for c in (9_000, 20_000)]
        with EventLog(tmp_path / "events.jsonl") as log:
            previous = set_event_sink(log)
            try:
                run_cells(columnar, configs, trace_name=trace.name)
            finally:
                set_event_sink(previous)
        (started,) = read_events(tmp_path / "events.jsonl",
                                 "pass_started")
        (finished,) = read_events(tmp_path / "events.jsonl",
                                  "pass_finished")
        assert started["cells"] == len(configs)
        assert started["requests"] == len(trace)
        assert finished["cells"] == len(configs)
        # Both vectorized fast paths fired: 2 plain-LRU ladder cells
        # and 2 FIFO shadow-queue cells.
        assert finished["lru_fast_path_cells"] == 2
        assert finished["fifo_fast_path_cells"] == 2
