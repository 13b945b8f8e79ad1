"""Shared-pass engine equivalence: run_cells == classic simulator.

The contract of :func:`repro.simulation.engine.run_cells` is that a
whole grid of (policy, capacity) cells run over one trace pass produces
*bit-identical* :class:`SimulationResult`s to running
:class:`CacheSimulator` once per cell.  These tests pin that contract
across every registered policy, every size interpretation, warmup
fractions, modification-heavy traces, the LRU fast-path ladder (and
its eligibility edges), and both sweep entry points.
"""

import random

import pytest

from repro.core.cache import Cache
from repro.core.registry import POLICY_NAMES, make_policy
from repro.errors import SimulationError
from repro.observability.events import read_events, set_event_sink
from repro.simulation.engine import run_cells
from repro.simulation.parallel import cell_key, run_sweep_parallel
from repro.simulation.simulator import (
    CacheSimulator,
    SimulationConfig,
    SizeInterpretation,
)
from repro.simulation.sweep import run_sweep
from repro.types import DocumentType, Request, Trace

DOC_TYPES = list(DocumentType)


@pytest.fixture(autouse=True)
def _null_sink_after():
    yield
    set_event_sink(None)


def mixed_trace(n=600, seed=7, modify_every=0):
    """Deterministic trace over ~40 urls with skewed sizes.

    With ``modify_every`` > 0, every that-many-th request to a url
    changes the document's size (a modification under every
    interpretation mode, and a delta large enough to trip the 5 %
    tolerance rule).
    """
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


def classic(trace, config):
    return CacheSimulator(config).run(trace, trace_name=trace.name)


def assert_identical(batched, reference):
    assert batched.as_dict() == reference.as_dict()
    assert batched.evictions == reference.evictions
    assert batched.invalidations == reference.invalidations


def classic_grid(trace, policies, capacities):
    """The sweep's reference side: one CacheSimulator per cell."""
    return {(policy, capacity): classic(trace, SimulationConfig(
        capacity_bytes=capacity, policy=policy)).as_dict()
        for policy in policies for capacity in capacities}


def sweep_grid(sweep):
    return {(policy, capacity): cell.as_dict()
            for policy, per_capacity in sweep.grid.items()
            for capacity, cell in per_capacity.items()}


class TestFullRegistryEquivalence:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_every_registered_policy(self, policy):
        trace = mixed_trace()
        configs = [SimulationConfig(capacity_bytes=c, policy=policy)
                   for c in (3_000, 12_000, 60_000)]
        results = run_cells(trace, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))


class TestInterpretationAndWarmupEquivalence:
    @pytest.mark.parametrize("interp", list(SizeInterpretation))
    @pytest.mark.parametrize("warmup", [0.0, 0.1, 0.5])
    def test_modification_heavy(self, interp, warmup):
        trace = mixed_trace(modify_every=7)
        configs = [
            SimulationConfig(capacity_bytes=c, policy=p,
                             warmup_fraction=warmup,
                             size_interpretation=interp)
            for p in ("lru", "gd*(p)") for c in (4_000, 25_000)]
        results = run_cells(trace, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))

    def test_mixed_interpretations_in_one_pass(self):
        """Cells with different resolvers share a pass correctly."""
        trace = mixed_trace(modify_every=11)
        configs = [SimulationConfig(capacity_bytes=9_000, policy="lru",
                                    size_interpretation=interp)
                   for interp in SizeInterpretation]
        results = run_cells(trace, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))

    def test_accounting_cells_share_pass_with_deferred(self):
        """Occupancy-sampling cells (general mode) coexist with
        deferred cells in the same pass."""
        trace = mixed_trace()
        configs = [
            SimulationConfig(capacity_bytes=9_000, policy="lru"),
            SimulationConfig(capacity_bytes=9_000, policy="lru",
                             occupancy_interval=50),
            SimulationConfig(capacity_bytes=9_000, policy="lfu-da"),
        ]
        results = run_cells(trace, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))
        assert results[1].occupancy is not None


class TestLRUFastPath:
    def lru_configs(self, capacities):
        return [SimulationConfig(capacity_bytes=c, policy="lru")
                for c in capacities]

    def test_ladder_matches_classic(self):
        trace = mixed_trace()
        configs = self.lru_configs((2_000, 9_000, 40_000, 200_000))
        fast = run_cells(trace, configs, trace_name=trace.name)
        slow = run_cells(trace, self.lru_configs(
            (2_000, 9_000, 40_000, 200_000)),
            trace_name=trace.name, lru_fast_path=False)
        # A lazy stream cannot be scanned for the ladder's trace-side
        # conditions up front, so the same cells are simulated.
        streamed = run_cells(iter(trace.requests), self.lru_configs(
            (2_000, 9_000, 40_000, 200_000)),
            trace_name=trace.name, total_requests=len(trace))
        for config, f, s, lazy in zip(configs, fast, slow, streamed):
            assert_identical(f, s)
            assert_identical(f, classic(trace, config))
            assert_identical(lazy, classic(trace, config))

    def test_zero_size_documents(self):
        """0-byte documents occupy no space but still hit/miss."""
        requests = []
        for i in range(200):
            url = f"u{i % 9}"
            size = 0 if i % 9 < 3 else 800
            requests.append(Request(float(i), url, size, size,
                                    DocumentType.HTML))
        trace = Trace(requests, name="zero-size")
        configs = self.lru_configs((800, 2_400, 10_000))
        results = run_cells(trace, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))

    def test_capacity_below_max_doc_size_still_exact(self):
        """Bypassed documents disqualify the ladder; the engine must
        fall back to per-cell simulation and stay exact."""
        trace = mixed_trace()   # max size > 5_000 for high url ids
        configs = self.lru_configs((1_000, 2_000))
        results = run_cells(trace, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))

    def test_modified_sizes_disqualify_ladder(self):
        trace = mixed_trace(modify_every=13)
        configs = self.lru_configs((4_000, 50_000))
        results = run_cells(trace, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))

    def test_warmup_with_ladder(self):
        trace = mixed_trace()
        configs = [SimulationConfig(capacity_bytes=c, policy="lru",
                                    warmup_fraction=w)
                   for c in (9_000, 60_000) for w in (0.1, 0.4)]
        results = run_cells(trace, configs, trace_name=trace.name)
        for config, result in zip(configs, results):
            assert_identical(result, classic(trace, config))


class TestSweepEntryPoints:
    POLICIES = ["lru", "lfu-da", "gds(1)", "gd*(p)"]
    CAPACITIES = [4_000, 20_000]

    def test_run_sweep_batched_equals_percell(self):
        """The one-pass sweep equals a per-cell CacheSimulator loop."""
        trace = mixed_trace(modify_every=17)
        sweep = run_sweep(trace, self.POLICIES, self.CAPACITIES)
        assert sweep_grid(sweep) == classic_grid(
            trace, self.POLICIES, self.CAPACITIES)

    def test_sweep_entry_points_take_no_engine_argument(self):
        """The knob is gone, not shimmed: the keyword fails as any
        unknown keyword does."""
        with pytest.raises(TypeError):
            run_sweep(mixed_trace(60), ["lru"], [4_000],
                      engine="batched")
        with pytest.raises(TypeError):
            run_sweep_parallel(mixed_trace(60), ["lru"], [4_000],
                               engine="batched")

    def test_parallel_batched_equals_serial(self):
        trace = mixed_trace(modify_every=17)
        serial = run_sweep(trace, self.POLICIES, self.CAPACITIES)
        for n_workers in (1, 2):
            parallel = run_sweep_parallel(
                trace, self.POLICIES, self.CAPACITIES,
                n_workers=n_workers)
            for policy in self.POLICIES:
                assert parallel.series(policy) == serial.series(policy)
                assert parallel.series(policy, byte_rate=True) == \
                    serial.series(policy, byte_rate=True)

    def test_parallel_batched_cells_per_pass(self):
        trace = mixed_trace()
        serial = run_sweep(trace, self.POLICIES, self.CAPACITIES)
        parallel = run_sweep_parallel(
            trace, self.POLICIES, self.CAPACITIES, n_workers=2,
            cells_per_pass=3)
        for policy in self.POLICIES:
            assert parallel.series(policy) == serial.series(policy)


class TestStreamingPass:
    """Bounded-memory passes: lazy request streams and trace files."""

    def test_iterator_with_total_matches_materialized(self):
        trace = mixed_trace(modify_every=19)
        def configs():
            return [SimulationConfig(capacity_bytes=c, policy=p)
                    for p in ("lru", "gds(1)") for c in (4_000, 20_000)]
        materialized = run_cells(trace, configs(), trace_name="t")
        streamed = run_cells(iter(trace.requests), configs(),
                             trace_name="t",
                             total_requests=len(trace))
        for m, s in zip(materialized, streamed):
            assert_identical(s, m)

    def test_wrong_declared_total_raises(self):
        trace = mixed_trace(100)
        with pytest.raises(SimulationError):
            run_cells(iter(trace.requests),
                      [SimulationConfig(capacity_bytes=5_000)],
                      total_requests=len(trace) + 7)

    def test_file_backed_sweep_both_engines(self, tmp_path):
        """A streamed file sweep equals both the in-memory sweep and
        the reference simulator streaming the same file per cell."""
        from repro.trace.pipeline import count_requests, iter_trace
        from repro.trace.writer import write_trace
        trace = mixed_trace(modify_every=13)
        path = tmp_path / "trace.csv"
        write_trace(path, trace.requests)
        assert count_requests(path) == len(trace)
        policies = ["lru", "gd*(1)"]
        capacities = [4_000, 20_000]
        memory = run_sweep(trace, policies, capacities)
        swept = run_sweep(path, policies, capacities)
        # Reference side: one CacheSimulator stream per cell over the
        # same file (csv rounds timestamps, so compare like sources).
        warmup = int(len(trace) * 0.10)
        for policy in policies:
            for capacity in capacities:
                reference = CacheSimulator(SimulationConfig(
                    capacity_bytes=capacity, policy=policy)).run_stream(
                        iter_trace(path), warmup_requests=warmup,
                        trace_name="trace")
                assert_identical(swept.grid[policy][capacity], reference)
            assert swept.series(policy) == memory.series(policy)
            assert swept.series(policy, byte_rate=True) == \
                memory.series(policy, byte_rate=True)


class TestTelemetry:
    def test_pass_events_emitted(self, tmp_path):
        from repro.observability.events import EventLog
        trace = mixed_trace()
        configs = [SimulationConfig(capacity_bytes=c, policy=p)
                   for p in ("lru", "gds(1)") for c in (9_000, 20_000)]
        with EventLog(tmp_path / "events.jsonl") as log:
            previous = set_event_sink(log)
            try:
                run_cells(trace, configs, trace_name=trace.name)
            finally:
                set_event_sink(previous)
        (started,) = read_events(tmp_path / "events.jsonl",
                                 "pass_started")
        (finished,) = read_events(tmp_path / "events.jsonl",
                                  "pass_finished")
        assert started["cells"] == len(configs)
        assert started["requests"] == len(trace)
        assert finished["cells"] == len(configs)
        assert finished["duration_seconds"] >= 0
        # Two of the four cells are plain-LRU ladder cells.
        assert finished["lru_fast_path_cells"] == 2

    def test_batched_parallel_preserves_cell_lifecycle(self, tmp_path):
        """Per-cell scheduled/finished events survive batching, so
        checkpoint/resume tooling reconstructs the same history."""
        trace = mixed_trace()
        policies = ["lru", "gds(1)"]
        capacities = [4_000, 20_000]
        run_sweep_parallel(trace, policies, capacities, n_workers=2,
                           telemetry_dir=tmp_path / "tel")
        records = read_events(tmp_path / "tel" / "events.jsonl")
        for policy in policies:
            for capacity in capacities:
                key = cell_key(policy, capacity)
                lifecycle = [(r["event"], r["attempt"]) for r in records
                             if r.get("key") == key and "attempt" in r]
                assert lifecycle == [("cell_scheduled", 1),
                                     ("cell_finished", 1)]

    def test_workers_never_write_into_an_installed_sink(self, tmp_path):
        """Fork-started workers inherit the parent's process-wide
        event sink (the CLI installs one for --telemetry-dir); if the
        shared pass emitted through it from inside a worker, stale
        forked seq counters would corrupt the parent's events.jsonl."""
        from repro.observability.events import EventLog
        trace = mixed_trace()
        with EventLog(tmp_path / "events.jsonl") as log:
            previous = set_event_sink(log)
            try:
                run_sweep_parallel(trace, ["lru", "gds(1)"],
                                   [4_000, 20_000], n_workers=2)
            finally:
                set_event_sink(previous)
        records = read_events(tmp_path / "events.jsonl")
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(set(seqs)), "worker events leaked in"
        # Pass lifecycle runs inside the workers, so it must be absent.
        assert not [r for r in records
                    if r["event"].startswith("pass_")]
        assert len(read_events(tmp_path / "events.jsonl",
                               "cell_finished")) == 4


class TestAttachContract:
    def test_policy_instance_cannot_serve_two_caches(self):
        policy = make_policy("lru")
        Cache(capacity_bytes=1_000, policy=policy)
        with pytest.raises(SimulationError):
            Cache(capacity_bytes=2_000, policy=policy)

    def test_reattach_same_cache_is_idempotent(self):
        policy = make_policy("lru")
        cache = Cache(capacity_bytes=1_000, policy=policy)
        policy.attach(cache)   # no-op, not an error
