"""Shared-pass engine equivalence: run_cells == the per-request reference.

The contract of :func:`repro.simulation.engine.run_cells` is that a
whole grid of cells run over one trace pass produces *bit-identical*
:class:`SimulationResult`s to running :class:`CacheSimulator` — the
independent per-request loop — once per cell, **however the trace is
held**: a request list, a request iterator, or an mmap'd ``.rcol``
file all reach the pass as the same integer columns.  This module is
that one equivalence matrix, parametrized by trace *source*: every
registered policy × every size interpretation × warm-up fractions ×
{plain, cost, latency, occupancy, TTL} cells, plus the LRU ladder's
eligibility edges, the sweep entry points, and pins of the reference
itself.  ``SOURCES`` names the sources a class runs; this module runs
the in-memory ones and ``test_engine_columnar.py`` re-runs the same
classes from ``.rcol`` files beside its column-kernel tests.
"""

import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.cache import Cache
from repro.core.cost import PacketCost
from repro.core.registry import POLICY_NAMES, make_policy
from repro.errors import SimulationError
from repro.observability.events import read_events, set_event_sink
from repro.observability.profiling import phase_timer
from repro.simulation.engine import run_cells
from repro.simulation.freshness import TTLModel
from repro.simulation.latency import LatencyModel
from repro.simulation.parallel import (
    cell_key,
    run_sweep_parallel,
    supervise_workers,
)
from repro.simulation.simulator import (
    CacheSimulator,
    SimulationConfig,
    SizeInterpretation,
)
from repro.simulation.sweep import run_sweep
from repro.trace.columnar import open_columnar, write_columnar
from repro.types import DocumentType, Request, Trace

DOC_TYPES = list(DocumentType)

GOLDENS = Path(__file__).parent / "data" / "simulator_goldens.json"


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


@pytest.fixture
def feed(tmp_path):
    """``feed(source, trace)``: the same requests, held the way
    ``source`` names, ready to hand to ``run_cells``."""
    opened = []

    def factory(source, trace):
        if source == "requests":
            return trace
        if source == "generator":
            return (request for request in trace.requests)
        assert source == "rcol"
        path = tmp_path / f"{len(opened)}.rcol"
        write_columnar(path, trace.requests, name=trace.name)
        opened.append(open_columnar(path))
        return opened[-1]

    yield factory
    for columnar in opened:
        columnar.close()


class EventRecorder:
    """An in-memory event sink."""

    def __init__(self):
        self.events = []

    def emit(self, event, **fields):
        self.events.append({"event": event, **fields})

    def named(self, event):
        return [e for e in self.events if e["event"] == event]


def classic(trace, config):
    return CacheSimulator(config).run(trace, trace_name=trace.name)


def observed(result):
    """Everything a result reports: ``as_dict()`` plus the latency
    statistics it leaves out."""
    data = result.as_dict()
    if result.latency is not None:
        data["latency"] = {
            "mean": result.latency.mean_latency(),
            "total": result.latency.total_latency(),
            "by_type": {t.value: result.latency.mean_latency(t)
                        for t in DOC_TYPES}}
    return data


def assert_identical(batched, reference):
    assert observed(batched) == observed(reference)
    assert batched.evictions == reference.evictions
    assert batched.invalidations == reference.invalidations
    assert batched.bypasses == reference.bypasses


def assert_cells_match_classic(source_trace, trace, configs):
    """One shared pass over ``source_trace`` against one per-request
    reference run per config over the in-memory ``trace``."""
    results = run_cells(source_trace, configs, trace_name=trace.name)
    for config, result in zip(configs, results):
        assert_identical(result, classic(trace, config))
    return results


def classic_grid(trace, policies, capacities):
    """The sweep's reference side: one CacheSimulator per cell."""
    return {(policy, capacity): classic(trace, SimulationConfig(
        capacity_bytes=capacity, policy=policy)).as_dict()
        for policy in policies for capacity in capacities}


def sweep_grid(sweep):
    return {(policy, capacity): cell.as_dict()
            for policy, per_capacity in sweep.grid.items()
            for capacity, cell in per_capacity.items()}


#: The accounting a cell may carry: cost and latency ride every kernel,
#: occupancy keeps a cell off the ladder and the FIFO queue, and a TTL
#: keeps it on the plain loop.
CELL_KINDS = {
    "plain": {},
    "cost": {"report_cost_model": PacketCost()},
    "latency": {"latency_model": LatencyModel()},
    "occupancy": {"occupancy_interval": 50},
    "ttl": {"ttl_model": TTLModel(default_ttl=120.0)},
}


def matrix_configs(policy):
    """interpretation × warm-up × cell kind at one capacity, then the
    plain capacity ladder of the original registry test."""
    configs = [SimulationConfig(capacity_bytes=12_000, policy=policy,
                                warmup_fraction=warmup,
                                size_interpretation=interp, **extras)
               for interp in SizeInterpretation
               for warmup in (0.0, 0.1, 0.5)
               for extras in CELL_KINDS.values()]
    configs += [SimulationConfig(capacity_bytes=c, policy=policy)
                for c in (3_000, 60_000)]
    return configs


@functools.lru_cache(maxsize=None)
def matrix_reference(policy, modify_every):
    """The reference side of the matrix, computed once per policy and
    shared by every source (and by ``test_engine_columnar``)."""
    trace = mixed_trace(modify_every=modify_every)
    return [observed(classic(trace, config))
            for config in matrix_configs(policy)]


class TestFullRegistryEquivalence:
    SOURCES = ("requests", "generator")

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_every_registered_policy(self, policy, feed):
        # Stable sizes (ladder-eligible) and modified sizes
        # (where the three interpretations actually differ).
        for modify_every in (0, 7):
            trace = mixed_trace(modify_every=modify_every)
            expected = matrix_reference(policy, modify_every)
            for source in self.SOURCES:
                results = run_cells(feed(source, trace),
                                    matrix_configs(policy),
                                    trace_name=trace.name)
                assert [observed(r) for r in results] == expected, source


class TestInterpretationAndWarmupEquivalence:
    SOURCES = ("requests", "generator")

    @pytest.mark.parametrize("interp", list(SizeInterpretation))
    @pytest.mark.parametrize("warmup", [0.0, 0.1, 0.5])
    def test_modification_heavy(self, interp, warmup, feed):
        trace = mixed_trace(modify_every=7)
        configs = [
            SimulationConfig(capacity_bytes=c, policy=p,
                             warmup_fraction=warmup,
                             size_interpretation=interp)
            for p in ("lru", "fifo", "gd*(p)") for c in (4_000, 25_000)]
        for source in self.SOURCES:
            assert_cells_match_classic(feed(source, trace), trace,
                                       configs)

    def test_mixed_interpretations_in_one_pass(self, feed):
        """Cells with different resolvers share a pass correctly."""
        trace = mixed_trace(modify_every=11)
        configs = [SimulationConfig(capacity_bytes=9_000, policy="lru",
                                    size_interpretation=interp)
                   for interp in SizeInterpretation]
        for source in self.SOURCES:
            assert_cells_match_classic(feed(source, trace), trace,
                                       configs)

    def test_accounting_cells_share_pass_with_deferred(self, feed):
        """Occupancy-sampling cells coexist with plain cells in the
        same pass."""
        trace = mixed_trace()
        configs = [
            SimulationConfig(capacity_bytes=9_000, policy="lru"),
            SimulationConfig(capacity_bytes=9_000, policy="lru",
                             occupancy_interval=50),
            SimulationConfig(capacity_bytes=9_000, policy="lfu-da"),
        ]
        for source in self.SOURCES:
            results = assert_cells_match_classic(feed(source, trace),
                                                 trace, configs)
            assert results[1].occupancy is not None


def lru_configs(capacities, warmup=0.10):
    return [SimulationConfig(capacity_bytes=c, policy="lru",
                             warmup_fraction=warmup)
            for c in capacities]


def assert_ladder(feed, sources, trace, configs, ladder_cells):
    """Exact against the reference from every source, and the ladder
    took exactly the cells it is proven for."""
    for source in sources:
        recorder = EventRecorder()
        previous = set_event_sink(recorder)
        try:
            assert_cells_match_classic(feed(source, trace), trace,
                                       configs)
        finally:
            set_event_sink(previous)
        (finished,) = recorder.named("pass_finished")
        assert finished["lru_ladder_cells"] == ladder_cells, source


class TestLRUFastPath:
    SOURCES = ("requests", "generator")

    def check(self, feed, trace, configs, ladder_cells):
        assert_ladder(feed, self.SOURCES, trace, configs, ladder_cells)

    def test_ladder_matches_classic(self, feed):
        self.check(feed, mixed_trace(), lru_configs(
            (9_000, 40_000, 200_000)), ladder_cells=3)

    def test_zero_size_documents(self, feed):
        """0-byte documents occupy no space but still hit/miss."""
        requests = []
        for i in range(200):
            url = f"u{i % 9}"
            size = 0 if i % 9 < 3 else 800
            requests.append(Request(float(i), url, size, size,
                                    DocumentType.HTML))
        self.check(feed, Trace(requests, name="zero-size"),
                   lru_configs((800, 2_400, 10_000)),
                   ladder_cells=3)

    def test_capacity_below_max_doc_size_still_exact(self, feed):
        """Bypassed documents disqualify the ladder; the engine must
        fall back to per-cell simulation and stay exact."""
        # max size > 5_000 for high url ids
        self.check(feed, mixed_trace(), lru_configs(
            (1_000, 2_000, 9_000)), ladder_cells=1)

    def test_modified_sizes_disqualify_ladder(self, feed):
        self.check(feed, mixed_trace(modify_every=13),
                   lru_configs((4_000, 50_000)), ladder_cells=0)

    def test_warmup_with_ladder(self, feed):
        configs = [config for warmup in (0.1, 0.4)
                   for config in lru_configs((9_000, 60_000),
                                                  warmup)]
        self.check(feed, mixed_trace(), configs, ladder_cells=4)


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


class TestRemovedKnobs:
    """Gone, not shimmed: each keyword fails as any unknown one does."""

    def test_total_requests_is_refused(self):
        trace = mixed_trace(100)
        with pytest.raises(TypeError):
            run_cells(iter(trace.requests),
                      [SimulationConfig(capacity_bytes=5_000)],
                      total_requests=len(trace))

    def test_lru_fast_path_is_refused(self):
        with pytest.raises(TypeError):
            run_cells(mixed_trace(100),
                      [SimulationConfig(capacity_bytes=5_000)],
                      lru_fast_path=False)

    @pytest.mark.parametrize("function, option", [
        (run_cells, "chunk_size"), (run_cells, "timings"),
        (run_sweep_parallel, "events"), (phase_timer, "log"),
        (run_sweep_parallel, "retry_policy"),
        (run_sweep_parallel, "sleep"),
        (supervise_workers, "poll_seconds")])
    def test_options_nobody_set_are_refused(self, function, option):
        with pytest.raises(TypeError, match="unexpected keyword"):
            function(**{option: None})


class TestStreamingPass:
    """Request iterators and trace files."""

    def test_iterator_matches_materialized(self):
        """An iterator is gathered into the same columns, so it takes
        the same fast paths — no declared length needed."""
        trace = mixed_trace(modify_every=19)
        def configs():
            return [SimulationConfig(capacity_bytes=c, policy=p)
                    for p in ("lru", "gds(1)") for c in (4_000, 20_000)]
        materialized = run_cells(trace, configs(), trace_name="t")
        streamed = run_cells(iter(trace.requests), configs(),
                             trace_name="t")
        for m, s in zip(materialized, streamed):
            assert_identical(s, m)

    def test_file_backed_sweep_both_engines(self, tmp_path):
        """A text-file sweep (gathered into columns a chunk of
        requests at a time, with no file written) equals both the
        in-memory sweep and the reference simulator streaming the same
        file per cell."""
        from repro.trace.pipeline import iter_trace
        from repro.trace.writer import write_trace
        trace = mixed_trace(modify_every=13)
        path = tmp_path / "trace.csv"
        write_trace(path, trace.requests)
        policies = ["lru", "gd*(1)"]
        capacities = [4_000, 20_000]
        memory = run_sweep(trace, policies, capacities)
        swept = run_sweep(path, policies, capacities)
        # The sweep leaves nothing beside the trace.
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]
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


def simulator_goldens():
    """What ``data/simulator_goldens.json`` pins: ``CacheSimulator.run``
    for the paper's four policies, every size interpretation and cell
    kind — headline counters in clear, the full ``as_dict()`` by
    digest.  Regenerate with ``python tests/simulation/test_engine.py``
    (the file in the repo was computed before ``run`` lost its
    deferred-tally path)."""
    trace = mixed_trace(modify_every=7)
    cells = {}
    for policy in ("lru", "lfu-da", "gds(1)", "gd*(1)"):
        for interp in SizeInterpretation:
            for kind, extras in CELL_KINDS.items():
                result = classic(trace, SimulationConfig(
                    capacity_bytes=12_000, policy=policy,
                    size_interpretation=interp, **extras))
                text = json.dumps(observed(result), sort_keys=True)
                cells[f"{policy}/{interp.value}/{kind}"] = {
                    "hits": result.metrics.overall.hits,
                    "hit_bytes": result.metrics.overall.hit_bytes,
                    "evictions": result.evictions,
                    "sha256": hashlib.sha256(
                        text.encode("utf-8")).hexdigest()}
    return cells


class TestReferenceGoldens:
    def test_cache_simulator_run_is_unchanged(self):
        assert simulator_goldens() == json.loads(GOLDENS.read_text())


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
        assert finished["lru_ladder_cells"] == 2

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


if __name__ == "__main__":
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(simulator_goldens(), indent=1,
                                  sort_keys=True) + "\n")
