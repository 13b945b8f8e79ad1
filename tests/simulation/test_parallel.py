"""Tests for the parallel sweep runner."""

import pytest

from repro.errors import ConfigurationError
from repro.observability.events import (
    EventLog,
    event_sink,
    read_events,
    set_event_sink,
)
from repro.resilience import FaultInjector
from repro.simulation.parallel import cell_key, run_sweep_parallel
from repro.simulation.sweep import cache_sizes_from_fractions, run_sweep
from repro.types import DocumentType, Request, Trace


def small_trace():
    requests = []
    for i in range(300):
        for url, size, doc_type in (
                (f"u{i % 17}", 500, DocumentType.IMAGE),
                (f"h{i % 5}", 1500, DocumentType.HTML)):
            requests.append(Request(float(i), url, size, size, doc_type))
    return Trace(requests, name="par-test")


def test_empty_grid_rejected():
    with pytest.raises(ConfigurationError):
        run_sweep_parallel(small_trace(), [], [])


def test_single_worker_matches_serial():
    trace = small_trace()
    capacities = [5000, 20_000]
    serial = run_sweep(trace, ["lru", "gds(1)"], capacities)
    single = run_sweep_parallel(trace, ["lru", "gds(1)"], capacities,
                                n_workers=1)
    for policy in serial.policies:
        assert single.series(policy) == serial.series(policy)
        assert single.series(policy, byte_rate=True) == \
            serial.series(policy, byte_rate=True)


def test_single_worker_sweep_leaves_the_callers_sink_installed(tmp_path):
    """The caller only schedules; it used to arm itself as a worker
    for one-worker grids, which reset its event sink to the null log
    and lost every event emitted afterwards."""
    log = EventLog(tmp_path / "events.jsonl")
    previous = set_event_sink(log)
    try:
        run_sweep_parallel(small_trace(), ["lru"], [5000], n_workers=1)
        assert event_sink() is log
    finally:
        set_event_sink(previous)
        log.close()
    names = [r["event"] for r in read_events(tmp_path / "events.jsonl")]
    assert names == ["cell_scheduled", "cell_finished"]


def test_two_workers_match_serial():
    trace = small_trace()
    capacities = [5000, 20_000]
    serial = run_sweep(trace, ["lru", "lfu-da", "gd*(1)"], capacities)
    parallel = run_sweep_parallel(trace, ["lru", "lfu-da", "gd*(1)"],
                                  capacities, n_workers=2)
    assert sorted(parallel.policies) == sorted(serial.policies)
    assert parallel.capacities == serial.capacities
    for policy in serial.policies:
        assert parallel.series(policy) == serial.series(policy)
        for doc_type in (DocumentType.IMAGE, DocumentType.HTML):
            assert parallel.series(policy, doc_type) == \
                serial.series(policy, doc_type)


def test_grid_order_is_the_cells_not_the_finishing_order():
    """The first batch is held back a second, so the second answers
    first; the grid still lists policies and capacities as asked, as
    ``run_sweep`` does (reports iterate the grid)."""
    trace = small_trace()
    capacities = [5000, 20_000]
    serial = run_sweep(trace, ["gds(1)", "lru"], capacities)
    parallel = run_sweep_parallel(
        trace, ["gds(1)", "lru"], capacities, n_workers=2,
        fault_injector=FaultInjector.hang_once(cell_key("gds(1)", 5000),
                                               hang_seconds=1.0))
    assert parallel.policies == serial.policies == ["gds(1)", "lru"]
    assert [list(per) for per in parallel.grid.values()] == \
        [capacities, capacities]
    assert parallel.series("lru") == serial.series("lru")


def test_workers_capped_by_cells():
    trace = small_trace()
    sweep = run_sweep_parallel(trace, ["lru"], [5000], n_workers=16)
    assert sweep.series("lru")


def test_parallel_on_generated_trace(tiny_dfn_trace):
    capacities = cache_sizes_from_fractions(tiny_dfn_trace, [0.01, 0.04])
    parallel = run_sweep_parallel(
        tiny_dfn_trace, ["lru", "gd*(1)"], capacities, n_workers=2)
    serial = run_sweep(tiny_dfn_trace, ["lru", "gd*(1)"], capacities)
    for policy in ("lru", "gd*(1)"):
        assert parallel.series(policy) == serial.series(policy)


def test_csv_path_matches_serial_sweep(tmp_path):
    """A csv path is gathered into columns once, in the caller, and
    named by its file stem: every cell equals a serial sweep of the
    loaded trace, trace name included."""
    from repro.trace.pipeline import load_trace
    from repro.trace.writer import write_trace

    path = tmp_path / "par-csv.csv"
    write_trace(path, small_trace().requests)
    policies, capacities = ["lru", "gd*(1)"], [5000, 20_000]
    serial = run_sweep(load_trace(path), policies, capacities)
    parallel = run_sweep_parallel(path, policies, capacities,
                                  n_workers=2)

    def flat(sweep):
        return {(policy, capacity): cell.as_dict()
                for policy, per_capacity in sweep.grid.items()
                for capacity, cell in per_capacity.items()}
    assert parallel.trace_name == serial.trace_name == "par-csv"
    assert flat(parallel) == flat(serial)
