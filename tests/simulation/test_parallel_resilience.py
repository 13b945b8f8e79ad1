"""Fault-injected tests for the resilient parallel sweep runner.

These are the end-to-end proofs of the resilience subsystem: worker
crashes, hangs, and corrupt payloads are injected deterministically
(:mod:`repro.resilience.faults`) and the sweep must still produce
results bit-identical to the serial :func:`run_sweep`.
"""

import os
import signal
import time

import pytest

from repro.errors import (
    CellTimeoutError,
    ConfigurationError,
    SimulationError,
    WorkerCrashError,
)
from repro.observability.events import read_events
from repro.resilience import CheckpointStore, FaultInjector, FaultSpec
from repro.simulation.parallel import (
    _run_batch,
    _reset_worker,
    cell_key,
    run_sweep_parallel,
)
from repro.simulation.sweep import run_sweep
from repro.types import DocumentType, Request, Trace

POLICIES = ["lru", "lfu-da", "gds(1)", "gd*(1)"]
CAPACITIES = [4000, 12000, 40000]


def small_trace():
    requests = []
    for i in range(300):
        for url, size, doc_type in (
                (f"u{i % 17}", 500, DocumentType.IMAGE),
                (f"h{i % 5}", 1500, DocumentType.HTML),
                (f"m{i % 29}", 4000, DocumentType.MULTIMEDIA)):
            requests.append(Request(float(i), url, size, size, doc_type))
    return Trace(requests, name="resilience-test")


@pytest.fixture(scope="module")
def trace():
    return small_trace()


@pytest.fixture(scope="module")
def serial(trace):
    return run_sweep(trace, POLICIES, CAPACITIES)


def assert_bit_identical(sweep, serial):
    assert sorted(sweep.policies) == sorted(serial.policies)
    assert sweep.capacities == serial.capacities
    for policy in serial.policies:
        for capacity in CAPACITIES:
            assert sweep.grid[policy][capacity].as_dict() == \
                serial.grid[policy][capacity].as_dict(), \
                (policy, capacity)


class TestEndToEndResilience:
    def test_crash_and_hang_recovered_bit_identical(self, trace, serial):
        """The acceptance scenario: a 4x3 grid survives one injected
        worker crash and one injected hang, via retry and timeout."""
        injector = FaultInjector.of(
            FaultSpec(key=cell_key("lfu-da", 12000), kind="crash"),
            FaultSpec(key=cell_key("gd*(1)", 4000), kind="hang",
                      hang_seconds=120.0),
        )
        sweep = run_sweep_parallel(
            trace, POLICIES, CAPACITIES, n_workers=3,
            fault_injector=injector, cell_timeout=2.0, max_retries=2)
        assert sweep.complete
        assert_bit_identical(sweep, serial)

    def test_corrupt_payload_retried_bit_identical(self, trace, serial):
        injector = FaultInjector.corrupt_once(cell_key("lru", 4000))
        sweep = run_sweep_parallel(
            trace, POLICIES, CAPACITIES, n_workers=2,
            fault_injector=injector)
        assert sweep.complete
        assert_bit_identical(sweep, serial)


class TestCrash:
    def test_crash_without_retries_raises_worker_crash(self, trace):
        injector = FaultInjector.crash_once(cell_key("lru", 4000))
        with pytest.raises(WorkerCrashError):
            run_sweep_parallel(trace, ["lru"], [4000], n_workers=2,
                               fault_injector=injector, max_retries=0)

    def test_crash_with_partial_policy_records_failure(self, trace):
        injector = FaultInjector.of(
            FaultSpec(key=cell_key("lru", 4000), kind="crash",
                      attempts=(1, 2, 3, 4)))
        sweep = run_sweep_parallel(
            trace, ["lru", "gds(1)"], [4000], n_workers=2,
            fault_injector=injector, max_retries=1,
            failure_policy="partial")
        assert not sweep.complete
        (failure,) = sweep.failures
        assert (failure.policy, failure.capacity_bytes) == ("lru", 4000)
        assert failure.attempts == 2
        # The healthy cell still completed with its full budget intact.
        assert sweep.grid["gds(1)"][4000].counted_requests > 0


class TestBatchIsolation:
    def test_failed_batch_loses_only_the_guilty_cell(self, trace, serial,
                                                     tmp_path):
        """One batch of three cells, one of which fails on every
        attempt: the batch is split, the batch-mates complete
        bit-identically, and only the guilty cell spends its retry
        budget and is recorded as lost."""
        policies = ["lru", "lfu-da", "gds(1)"]
        guilty = cell_key("lfu-da", 4000)
        injector = FaultInjector.of(
            FaultSpec(key=guilty, kind="raise", attempts=(1, 2, 3, 4)))
        sweep = run_sweep_parallel(
            trace, policies, [4000], n_workers=2, cells_per_pass=3,
            fault_injector=injector, max_retries=2,
            failure_policy="partial", telemetry_dir=tmp_path / "tel")
        (failure,) = sweep.failures
        assert (failure.policy, failure.capacity_bytes) == \
            ("lfu-da", 4000)
        assert failure.attempts == 3
        records = read_events(tmp_path / "tel" / "events.jsonl")

        def lifecycle(key):
            return [(r["event"], r.get("attempt", r.get("attempts")))
                    for r in records if r.get("key") == key]

        for policy in ("lru", "gds(1)"):
            assert sweep.grid[policy][4000].as_dict() == \
                serial.grid[policy][4000].as_dict()
            # The rerun alone is the attempt already announced.
            assert lifecycle(cell_key(policy, 4000)) == [
                ("cell_scheduled", 1), ("cell_finished", 1)]
        assert lifecycle(guilty) == [
            ("cell_scheduled", 1), ("cell_retried", 1),
            ("cell_scheduled", 2), ("cell_retried", 2),
            ("cell_scheduled", 3), ("cell_failed", 3)]


class TestHang:
    def test_hang_without_retries_raises_cell_timeout(self, trace):
        injector = FaultInjector.hang_once(cell_key("lru", 4000),
                                           hang_seconds=60.0)
        with pytest.raises(CellTimeoutError) as info:
            run_sweep_parallel(trace, ["lru"], [4000], n_workers=2,
                               fault_injector=injector,
                               cell_timeout=1.0, max_retries=0)
        assert info.value.timeout_seconds == 1.0

    def test_hang_with_partial_policy_records_timeout(self, trace):
        injector = FaultInjector.of(
            FaultSpec(key=cell_key("lru", 4000), kind="hang",
                      attempts=(1, 2), hang_seconds=60.0))
        sweep = run_sweep_parallel(
            trace, ["lru"], [4000], n_workers=2,
            fault_injector=injector, cell_timeout=1.0, max_retries=1,
            failure_policy="partial")
        (failure,) = sweep.failures
        assert failure.error_type == "CellTimeoutError"
        assert failure.attempts == 2


class DeafHang:
    """Duck-typed injector: every cell ignores SIGTERM, then hangs."""

    def on_start(self, key, attempt):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(20.0)

    def on_result(self, key, attempt, payload):
        return payload


class StartLog:
    """Duck-typed injector: logs every start to a file, crashes
    ``crasher`` late on its first attempt, and keeps ``sleeper``
    running past that crash."""

    def __init__(self, path, crasher, sleeper):
        self.path, self.crasher, self.sleeper = path, crasher, sleeper

    def on_start(self, key, attempt):
        with open(self.path, "a") as log:
            log.write(f"{key} {attempt}\n")
        if key == self.crasher and attempt == 1:
            time.sleep(0.2)
            os._exit(113)
        if key == self.sleeper:
            time.sleep(1.0)

    def on_result(self, key, attempt, payload):
        return payload


class TestProcessIsTheUnitOfBlame:
    def test_hang_deaf_to_sigterm_is_killed(self, trace):
        """The batch's process gets SIGKILL: a cell that ignores
        SIGTERM cannot stall the sweep for the length of its hang."""
        started = time.monotonic()
        with pytest.raises(CellTimeoutError):
            run_sweep_parallel(trace, ["lru"], [4000], n_workers=1,
                               fault_injector=DeafHang(),
                               cell_timeout=0.5, max_retries=0)
        assert time.monotonic() - started < 5.0

    def test_crash_never_reruns_the_neighbour(self, trace, serial,
                                              tmp_path):
        """A dies while B is mid-pass beside it: A is retried, B is
        not disturbed — three process starts, not five."""
        a, b = cell_key("lru", 4000), cell_key("gds(1)", 4000)
        log = tmp_path / "starts.log"
        sweep = run_sweep_parallel(
            trace, ["lru", "gds(1)"], [4000], n_workers=2,
            cells_per_pass=1, fault_injector=StartLog(log, a, b))
        assert sorted(log.read_text().splitlines()) == \
            [f"{b} 1", f"{a} 1", f"{a} 2"]
        for policy in ("lru", "gds(1)"):
            assert sweep.grid[policy][4000].as_dict() == \
                serial.grid[policy][4000].as_dict()


class TestPermanentErrors:
    def test_deterministic_error_not_retried(self, trace):
        """A bad policy name fails in the worker identically every
        time; it must fail fast, not burn the retry budget."""
        sweep = run_sweep_parallel(
            trace, ["lru", "no-such-policy"], [4000], n_workers=2,
            max_retries=3, failure_policy="partial")
        (failure,) = sweep.failures
        assert failure.policy == "no-such-policy"
        assert failure.attempts == 1
        assert sweep.grid["lru"][4000].counted_requests > 0


class TestValidation:
    def test_bad_failure_policy_rejected(self, trace):
        with pytest.raises(ConfigurationError):
            run_sweep_parallel(trace, ["lru"], [4000],
                               failure_policy="ignore")

    def test_bad_cell_timeout_rejected(self, trace):
        with pytest.raises(ConfigurationError):
            run_sweep_parallel(trace, ["lru"], [4000], cell_timeout=0)

    def test_run_batch_without_initializer_raises(self):
        _reset_worker()
        with pytest.raises(SimulationError, match="initializer"):
            _run_batch(((("lru", 4000),), 0.1, "trusted", 1, None))


class TestCellCheckpoints:
    def test_completed_cells_checkpointed_and_resumed(self, trace,
                                                      serial, tmp_path):
        store = CheckpointStore(tmp_path)
        first = run_sweep_parallel(trace, POLICIES, CAPACITIES,
                                   n_workers=2, checkpoint_store=store)
        assert_bit_identical(first, serial)
        keys = store.completed_keys()
        assert len(keys) == len(POLICIES) * len(CAPACITIES)
        assert cell_key("lru", 4000) in keys
        # A rerun adopts every checkpointed cell (even with a fault
        # injector primed to crash everything: nothing executes).
        injector = FaultInjector.of(*[
            FaultSpec(key=cell_key(p, c), kind="crash",
                      attempts=(1, 2, 3))
            for p in POLICIES for c in CAPACITIES])
        resumed = run_sweep_parallel(
            trace, POLICIES, CAPACITIES, n_workers=2,
            checkpoint_store=store, fault_injector=injector,
            max_retries=0)
        assert_bit_identical(resumed, serial)

    def test_partial_checkpoints_rerun_only_missing_cells(
            self, trace, serial, tmp_path):
        store = CheckpointStore(tmp_path)
        # Seed the store with an interrupted run: only lru cells done.
        run_sweep_parallel(trace, ["lru"], CAPACITIES, n_workers=1,
                           checkpoint_store=store)
        assert len(store.completed_keys()) == len(CAPACITIES)
        # Crash injectors on the already-done cells prove they are
        # loaded, not rerun; the missing cells run normally.
        injector = FaultInjector.of(*[
            FaultSpec(key=cell_key("lru", c), kind="crash",
                      attempts=(1, 2, 3))
            for c in CAPACITIES])
        sweep = run_sweep_parallel(
            trace, POLICIES, CAPACITIES, n_workers=2,
            checkpoint_store=store, fault_injector=injector,
            max_retries=0)
        assert_bit_identical(sweep, serial)
        assert len(store.completed_keys()) == \
            len(POLICIES) * len(CAPACITIES)
