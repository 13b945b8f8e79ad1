"""Fault-tolerant parallel cache-size sweeps.

A full figure regeneration at paper scale is ~30 independent
(policy, capacity) simulations over millions of requests; they share
nothing but the read-only trace, so a process pool gives near-linear
speedup.  The trace is shipped to each worker once (pool initializer),
not once per cell.  The calling process only schedules: every grid,
one worker included, runs its passes in pool workers, so there is one
execution path and the caller's own state (its event sink above all)
is never rearmed as a worker's.

The unit of scheduling is a **batch** of cells: the grid is
partitioned into ``cells_per_pass``-sized batches (by default an even
split across the workers) and each worker runs its whole batch over
**one** shared trace pass via
:func:`repro.simulation.engine.run_cells`, so a worker pays the trace
tax once per batch instead of once per cell.  The results are
bit-identical whatever the batch size.

Because every cell is a pure function of its config and the trace, a
failed batch can simply be rerun: the scheduler submits batches as
individual futures, retries transient failures (worker crashes, hangs
past the batch's timeout budget, corrupt payloads) with a bounded
deterministic backoff, and rebuilds the pool when a dead worker breaks
it — resubmitting only the unfinished batches.  Isolation stays **per
cell**: a failed batch of several cells cannot say which cell is to
blame, so its cells are requeued as singleton batches, uncharged, and
only a cell that fails while running alone spends retry budget or is
recorded as lost.  Telemetry events (the scheduler's
:func:`repro.observability.events.emit` calls, which are also its log
lines), checkpoints, and ``failure_policy="partial"``
:class:`~repro.simulation.results.FailureRecord`\\ s are per cell
too, so a resumed or partially failed grid has the same cell-by-cell
lifecycle whatever the batch size.

Results are bit-identical to :func:`repro.simulation.sweep.run_sweep`
— every policy is deterministic, and retries rerun the identical
computation — which the tests assert, fault injection included.
"""

from __future__ import annotations

import math
import os
import re
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    CellTimeoutError,
    ConfigurationError,
    SimulationError,
    WorkerCrashError,
)
from repro.observability import events as _events
from repro.observability.logs import get_logger
from repro.observability.manifest import TelemetryRun
from repro.observability.profiling import maybe_profile
from repro.observability.trace import span as _span
from repro.resilience.checkpoint import CheckpointStore, config_hash
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy
from repro.simulation.engine import run_cells
from repro.simulation.results import (
    FailureRecord,
    SimulationResult,
    SweepResult,
)
from repro.simulation.simulator import SimulationConfig, SizeInterpretation
from repro.types import Trace

#: How long the scheduler sleeps in ``wait()`` before re-checking
#: deadlines; kept short so cell timeouts are detected promptly.
_POLL_SECONDS = 0.1

#: Accepted values for ``failure_policy``.
FAILURE_POLICIES = ("raise", "partial")

# Per-worker state, populated by the pool initializer.  The trace is
# either a materialized Trace (request list shipped by pickle) or a
# ColumnarTrace each worker mmaps itself from a shipped path string —
# the kernel page cache then backs every worker with one copy.
_worker_trace = None
_worker_injector: Optional[FaultInjector] = None

_logger = get_logger("simulation.parallel")


def cell_key(policy_name: str, capacity: int) -> str:
    """Stable identity of one sweep cell (also the fault-spec key)."""
    return f"{policy_name}@{capacity}"


def batch_key(cells: Sequence[Tuple[str, int]]) -> str:
    """Stable identity of one scheduled batch; a singleton batch goes
    by its cell's key."""
    if len(cells) == 1:
        return cell_key(*cells[0])
    return (f"pass[{cell_key(*cells[0])}.."
            f"{cell_key(*cells[-1])}#{len(cells)}]")


def partition_cells(cells: Sequence[Tuple[str, int]], n_workers: int,
                    cells_per_pass: Optional[int] = None,
                    ) -> List[Tuple[Tuple[str, int], ...]]:
    """Split the grid into scheduling batches: contiguous chunks of
    ``cells_per_pass`` cells, defaulting to an even split across the
    workers so one round of passes covers the grid."""
    if cells_per_pass is None:
        cells_per_pass = max(1, math.ceil(len(cells) / n_workers))
    return [tuple(cells[i:i + cells_per_pass])
            for i in range(0, len(cells), cells_per_pass)]


def _profile_path(profile_dir: Optional[str], key: str,
                  attempt: int) -> Optional[str]:
    """Per-(cell, attempt) cProfile dump path; None when disabled."""
    if not profile_dir:
        return None
    safe = re.sub(r"[^A-Za-z0-9_.@-]+", "_", key)
    return str(Path(profile_dir) / f"{safe}.attempt{attempt}.prof")


def _init_worker(trace_source, name: str,
                 injector: Optional[FaultInjector] = None) -> None:
    """Arm a worker with the sweep's trace.

    ``trace_source`` is either a request sequence (shipped via pickle)
    or a path string to a columnar trace, which the worker mmaps
    itself — no per-worker decode, no per-worker copy.
    """
    global _worker_trace, _worker_injector
    if isinstance(trace_source, (str, Path)):
        from repro.trace.columnar import open_columnar

        _worker_trace = open_columnar(trace_source, verify=False)
        _worker_trace.name = name
    else:
        _worker_trace = Trace(trace_source, name=name)
    _worker_injector = injector
    # Fork-started workers inherit the parent's process-wide event
    # sink, including its open events.jsonl handle and a stale copy of
    # its seq counter; anything the worker emitted (e.g. the shared
    # pass lifecycle from run_cells) would interleave out-of-sequence
    # records into the parent's telemetry.  Cell lifecycle events are
    # the parent's job, so workers write nowhere.
    _events.set_event_sink(None)


def _run_batch(batch: tuple) -> List[dict]:
    """Run one batch of cells in a worker; one payload per cell.

    ``batch`` is ``(cells, warmup_fraction, interpretation, attempt,
    profile_path)`` with ``cells`` a tuple of ``(policy_name,
    capacity)`` pairs; the whole batch rides one shared trace pass.
    """
    cells, warmup_fraction, interpretation, attempt, profile_path = batch
    keys = [cell_key(policy_name, capacity)
            for policy_name, capacity in cells]
    if _worker_injector is not None:
        for key in keys:
            _worker_injector.on_start(key, attempt)
    if _worker_trace is None:
        raise SimulationError(
            f"worker has no trace for batch {batch_key(cells)!r}: the "
            "process pool was created without the _init_worker "
            "initializer")
    configs = [
        SimulationConfig(
            capacity_bytes=capacity,
            policy=policy_name,
            warmup_fraction=warmup_fraction,
            size_interpretation=SizeInterpretation(interpretation),
        )
        for policy_name, capacity in cells
    ]
    with maybe_profile(profile_path):
        results = run_cells(_worker_trace, configs)
    payloads = [result.as_dict() for result in results]
    if _worker_injector is not None:
        payloads = [_worker_injector.on_result(key, attempt, payload)
                    for key, payload in zip(keys, payloads)]
    return payloads


def _reset_worker() -> None:
    global _worker_trace, _worker_injector
    _worker_trace = None
    _worker_injector = None


def _deserialize(payload: object, key: str) -> SimulationResult:
    """Parse a worker payload, mapping corruption to a transient error."""
    try:
        return SimulationResult.from_dict(payload)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise WorkerCrashError(
            f"worker returned corrupt payload for cell {key!r}: "
            f"{type(exc).__name__}: {exc}") from exc


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even if its workers are hung or dead.

    A graceful ``shutdown(wait=True)`` would block behind a hung cell,
    so kill the worker processes first.
    """
    for process in list(getattr(pool, "_processes", {}).values()):
        if process.is_alive():
            process.terminate()
    pool.shutdown(wait=True, cancel_futures=True)


class _BatchRun:
    """Bookkeeping for one in-flight (batch, attempt) submission."""

    __slots__ = ("cells", "attempt", "started")

    def __init__(self, cells: Tuple[Tuple[str, int], ...], attempt: int,
                 started: float):
        self.cells = cells
        self.attempt = attempt
        self.started = started

    @property
    def key(self) -> str:
        return batch_key(self.cells)

    @property
    def cell_keys(self) -> List[str]:
        return [cell_key(policy, capacity)
                for policy, capacity in self.cells]


def run_sweep_parallel(trace,
                       policies: Iterable[str],
                       capacities: Sequence[int],
                       warmup_fraction: float = 0.10,
                       size_interpretation: SizeInterpretation =
                       SizeInterpretation.TRUSTED,
                       n_workers: Optional[int] = None,
                       *,
                       cells_per_pass: Optional[int] = None,
                       max_retries: int = 2,
                       cell_timeout: Optional[float] = None,
                       failure_policy: str = "raise",
                       retry_policy: Optional[RetryPolicy] = None,
                       fault_injector: Optional[FaultInjector] = None,
                       checkpoint_store: Optional[CheckpointStore] = None,
                       telemetry_dir=None,
                       profile_dir=None,
                       sleep=time.sleep) -> SweepResult:
    """Run the (policy × capacity) grid across worker processes.

    Positional args match :func:`~repro.simulation.sweep.run_sweep`
    (minus the per-cell callbacks, which cannot cross process
    boundaries); ``n_workers`` defaults to the CPU count capped by the
    cell count, and even one worker is a pool process — the caller
    never runs a pass itself.  ``trace`` may be a :class:`~repro.types.Trace`, a
    :class:`~repro.trace.columnar.ColumnarTrace`, or a columnar file
    path: columnar sweeps ship only the *path* to workers, which mmap
    the file themselves — one kernel page-cache copy serves the whole
    pool, and the passes consume the columns directly.

    Keyword-only knobs:

    Args:
        cells_per_pass: How many cells each task carries; they ride
            **one** shared trace pass in their worker
            (:func:`repro.simulation.engine.run_cells`).  Defaults to
            an even split of the grid across the workers; ``1`` gives
            every cell its own task and pass.  Results are
            bit-identical whatever the value; telemetry events,
            checkpoints, and failure records stay per cell.
        max_retries: Reruns allowed per cell for *transient* failures
            (worker crash, timeout, corrupt payload).  Deterministic
            errors from the cells themselves are never retried.  A
            failed batch of several cells is first split into
            singleton batches at no charge, so only the guilty cell
            spends its budget.
        cell_timeout: Per-cell wall-clock budget in seconds; a batch
            past ``cell_timeout × len(batch)`` has its worker killed
            and counts as a transient failure.  ``None`` disables
            timeouts.
        failure_policy: ``"raise"`` (default) re-raises the first
            permanently failed cell; ``"partial"`` returns whatever
            completed, with a :class:`FailureRecord` per lost cell on
            ``SweepResult.failures``.
        retry_policy: Full backoff schedule; defaults to
            ``RetryPolicy(max_retries=max_retries, base_delay=0)``
            (immediate resubmission — cells are CPU-bound and
            deterministic, so waiting buys nothing by default).
        fault_injector: Deterministic chaos plan shipped to workers
            (see :mod:`repro.resilience.faults`); used by the tests to
            prove the machinery above works.
        checkpoint_store: Optional
            :class:`~repro.resilience.checkpoint.CheckpointStore`.
            Each completed cell is persisted as it finishes, and cells
            already checkpointed under the same sweep config are
            loaded instead of rerun — an interrupted grid resumes
            from where it stopped.
        telemetry_dir: When set, the sweep writes its own
            ``manifest.json`` + ``events.jsonl`` telemetry directory
            (see :mod:`repro.observability.manifest`) and installs it
            as the process-wide event sink until it returns.  Without
            it, cell lifecycle events go to whatever sink the caller
            (``run_suite``, say) installed — a no-op by default.
        profile_dir: When set, each cell attempt is run under cProfile
            in its worker and dumps ``<cell>.attempt<n>.prof`` here.
        sleep: Injectable sleep used for retry backoff.
    """
    if isinstance(trace, (str, Path)):
        from repro.trace.columnar import is_columnar_file, open_columnar

        path = Path(trace)
        if is_columnar_file(path):
            trace = open_columnar(path, verify=False)
        else:
            from repro.trace.pipeline import load_trace

            trace = load_trace(path)
    columnar_path: Optional[str] = None
    if getattr(trace, "is_columnar", False):
        columnar_path = str(trace.path)
    total_requests = (len(trace.requests) if isinstance(trace, Trace)
                      else len(trace))
    cells: List[Tuple[str, int]] = [
        (policy_name, capacity)
        for policy_name in policies
        for capacity in capacities
    ]
    if not cells:
        raise ConfigurationError("empty sweep grid")
    if cells_per_pass is not None and cells_per_pass <= 0:
        raise ConfigurationError("cells_per_pass must be positive")
    if failure_policy not in FAILURE_POLICIES:
        raise ConfigurationError(
            f"failure_policy must be one of {FAILURE_POLICIES}, "
            f"got {failure_policy!r}")
    if cell_timeout is not None and cell_timeout <= 0:
        raise ConfigurationError("cell_timeout must be positive")
    if retry_policy is None:
        retry_policy = RetryPolicy(max_retries=max_retries,
                                   base_delay=0.0)
    if n_workers is None:
        n_workers = min(os.cpu_count() or 1, len(cells))
    n_workers = max(min(n_workers, len(cells)), 1)

    sweep = SweepResult(trace_name=trace.name)

    telemetry: Optional[TelemetryRun] = None
    if telemetry_dir is not None:
        telemetry = TelemetryRun(
            telemetry_dir, kind="sweep",
            settings={
                "trace": trace.name,
                "policies": list(dict.fromkeys(p for p, _ in cells)),
                "capacities": list(capacities),
                "warmup_fraction": warmup_fraction,
                "size_interpretation": size_interpretation.value,
                "n_workers": n_workers,
                "cells_per_pass": cells_per_pass,
                "max_retries": max_retries,
                "cell_timeout": cell_timeout,
                "failure_policy": failure_policy,
            })

    sweep_span = _span("sweep", trace=trace.name, cells=len(cells),
                       workers=n_workers)

    def _finish() -> SweepResult:
        sweep_span.set_attribute("failures", len(sweep.failures))
        sweep_span.end()
        if telemetry is not None:
            telemetry.finalize(
                "partial" if sweep.failures else "complete")
        return sweep

    try:
        # Cells already checkpointed under this exact sweep config are
        # adopted instead of rerun; the rest of the grid proceeds
        # normally.
        sweep_digest = None
        if checkpoint_store is not None:
            sweep_digest = config_hash({
                "trace": trace.name,
                "requests": total_requests,
                "warmup_fraction": warmup_fraction,
                "size_interpretation": size_interpretation.value,
            })
            done_payloads = checkpoint_store.completed(sweep_digest)
            remaining = []
            for policy_name, capacity in cells:
                key = cell_key(policy_name, capacity)
                payload = done_payloads.get(key)
                if payload is not None:
                    try:
                        sweep.add(_deserialize(payload, key))
                    except WorkerCrashError:
                        pass  # unreadable checkpoint: rerun the cell
                    else:
                        _events.emit("cell_checkpoint_restored", key=key)
                        continue
                remaining.append((policy_name, capacity))
            cells = remaining
            if not cells:
                return _finish()

        def _checkpoint_cell(policy_name: str, capacity: int,
                             payload: dict) -> None:
            if checkpoint_store is not None:
                checkpoint_store.save(cell_key(policy_name, capacity),
                                      payload, sweep_digest)

        batches = partition_cells(cells, n_workers, cells_per_pass)

        _Scheduler(
            trace_source=(columnar_path if columnar_path is not None
                          else trace.requests),
            trace_name=trace.name,
            batches=batches,
            warmup_fraction=warmup_fraction,
            size_interpretation=size_interpretation,
            n_workers=max(min(n_workers, len(batches)), 1),
            retry_policy=retry_policy,
            cell_timeout=cell_timeout,
            failure_policy=failure_policy,
            fault_injector=fault_injector,
            on_cell_done=_checkpoint_cell,
            profile_dir=profile_dir,
            sleep=sleep,
        ).run(sweep)
        return _finish()
    except BaseException:
        sweep_span.end("error")
        if telemetry is not None:
            telemetry.finalize("failed")
        raise


def supervise_workers(target, args: tuple = (), n_workers: int = 2, *,
                      max_restarts: int = 2,
                      poll_seconds: float = 0.05) -> List[dict]:
    """Run ``target(*args)`` in ``n_workers`` processes, restarting
    casualties.

    The durable experiment service uses this to keep its worker count
    up: a worker that dies abnormally (SIGKILL, OOM, an injected
    crash) is replaced up to ``max_restarts`` times — its half-done
    work is *not* resubmitted here, because the service's lease layer
    already re-queues it; supervision is purely about capacity.  A
    clean exit (code 0) means the worker drained the queue and is not
    replaced.

    Returns one summary dict per worker slot:
    ``{"worker": i, "exitcode": last, "restarts": n}``.
    """
    import multiprocessing

    if n_workers < 1:
        raise ConfigurationError("n_workers must be >= 1")
    context = multiprocessing.get_context()

    def _spawn() -> multiprocessing.Process:
        process = context.Process(target=target, args=args)
        process.start()
        return process

    processes = [_spawn() for _ in range(n_workers)]
    restarts = [0] * n_workers
    exitcodes: List[Optional[int]] = [None] * n_workers
    while any(process is not None for process in processes):
        for slot, process in enumerate(processes):
            if process is None or process.is_alive():
                continue
            process.join()
            exitcodes[slot] = process.exitcode
            if process.exitcode == 0 \
                    or restarts[slot] >= max_restarts:
                processes[slot] = None
                continue
            restarts[slot] += 1
            _events.emit("service_worker_restarted", worker=slot,
                         exitcode=process.exitcode,
                         restarts=restarts[slot],
                         max_restarts=max_restarts)
            processes[slot] = _spawn()
        time.sleep(poll_seconds)
    return [{"worker": slot, "exitcode": exitcodes[slot],
             "restarts": restarts[slot]}
            for slot in range(n_workers)]


class _Scheduler:
    """Submits batches as futures, retries transient failures, and
    rebuilds the pool when workers die or hang.

    Scheduling is per batch; events, checkpoints, and failure records
    are per cell, and so is blame: only a singleton batch is ever
    charged an attempt (see :meth:`_retry_or_fail`).
    """

    def __init__(self, trace_source, trace_name, batches,
                 warmup_fraction, size_interpretation, n_workers,
                 retry_policy, cell_timeout, failure_policy,
                 fault_injector, on_cell_done, profile_dir, sleep):
        self.trace_source = trace_source
        self.trace_name = trace_name
        self.warmup_fraction = warmup_fraction
        self.size_interpretation = size_interpretation
        self.n_workers = n_workers
        self.retry_policy = retry_policy
        self.cell_timeout = cell_timeout
        self.failure_policy = failure_policy
        self.fault_injector = fault_injector
        self.on_cell_done = on_cell_done
        self.profile_dir = profile_dir
        self.sleep = sleep
        #: Wall-clock seconds burned per batch key across attempts,
        #: including attempts that crashed or timed out.
        self.elapsed: Dict[str, float] = {}
        #: (batch_cells, attempt) runnable now.
        self.queue = deque((batch, 1) for batch in batches)
        #: Batches suspected of crashing a worker.  When a pool breaks
        #: with several batches in flight there is no way to tell which
        #: one killed it, so none is charged; instead they all land
        #: here and rerun one at a time — a batch that breaks the pool
        #: while running alone is provably the crasher.
        self.isolation = deque()
        self.isolated: Optional[_BatchRun] = None
        #: (cell key, attempt) pairs already announced with
        #: ``cell_scheduled``: an uncharged rerun (a split batch's
        #: cells, a pool break's suspects) is the same attempt, not a
        #: new one, and is not announced again.
        self.announced = set()
        self.in_flight: Dict[object, _BatchRun] = {}
        self.failures: List[FailureRecord] = []
        self.pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle ---------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_init_worker,
            initargs=(self.trace_source, self.trace_name,
                      self.fault_injector))

    def _rebuild_pool(self, reason: str = "worker crash") -> None:
        if self.pool is not None:
            _terminate_pool(self.pool)
        self.pool = self._new_pool()
        _events.emit("pool_rebuilt", reason=reason)

    def _charge_elapsed(self, run: _BatchRun) -> float:
        """Accumulate the wall clock a leaving in-flight run burned."""
        spent = time.monotonic() - run.started
        self.elapsed[run.key] = self.elapsed.get(run.key, 0.0) + spent
        return spent

    def _requeue_in_flight(self) -> None:
        """Return in-flight batches to the queue after a deliberate
        teardown (timeout) whose cause is known.  The requeued batches
        never ran to completion, so their retry budget is untouched.
        """
        for run in self.in_flight.values():
            self._charge_elapsed(run)
            self.queue.append((run.cells, run.attempt))
        self.in_flight.clear()

    def _suspect_in_flight(self) -> None:
        """Move every in-flight batch to the isolation queue, uncharged.

        Used when the pool breaks and blame is ambiguous: the suspects
        rerun one at a time so the actual crasher convicts itself.
        """
        for run in self.in_flight.values():
            self._charge_elapsed(run)
            self.isolation.append((run.cells, run.attempt))
        self.in_flight.clear()
        self.isolated = None

    # -- outcome handling -------------------------------------------------

    def _retry_or_fail(self, run: _BatchRun, exc: Exception,
                       isolate: bool = False) -> None:
        """Charge a failed attempt; requeue the batch or record losses.

        ``isolate`` requeues into the isolation queue so a known
        crasher keeps running alone instead of taking fresh neighbours
        down with it.  A batch of several cells cannot say which cell
        failed, so — the rule pool breaks already follow — its cells
        rerun as singleton batches, uncharged and under the attempt
        already announced; the guilty one then fails alone, and per-cell
        events, failure records and the attempts they report read
        exactly as if every cell had been scheduled on its own.
        """
        target = self.isolation if isolate else self.queue
        if len(run.cells) > 1:
            _logger.warning(
                "batch %s attempt %d failed (%s); rerunning its %d "
                "cells one per batch", run.key, run.attempt,
                type(exc).__name__, len(run.cells),
                extra={"key": run.key, "attempt": run.attempt,
                       "error_type": type(exc).__name__})
            target.extend(((cell,), run.attempt) for cell in run.cells)
            return
        transient = isinstance(exc, (WorkerCrashError, CellTimeoutError,
                                     BrokenProcessPool))
        if transient and run.attempt < self.retry_policy.max_attempts:
            delay = self.retry_policy.delay(run.attempt)
            for key in run.cell_keys:
                _events.emit("cell_retried", key=key,
                             attempt=run.attempt,
                             error_type=type(exc).__name__,
                             delay_seconds=delay)
            self.sleep(delay)
            target.append((run.cells, run.attempt + 1))
            return
        for key in run.cell_keys:
            _events.emit("cell_failed", key=key, attempts=run.attempt,
                         error_type=type(exc).__name__,
                         message=str(exc))
        if self.failure_policy == "raise":
            raise exc
        batch_elapsed = round(self.elapsed.get(run.key, 0.0), 6)
        for policy, capacity in run.cells:
            self.failures.append(FailureRecord(
                policy=policy,
                capacity_bytes=capacity,
                attempts=run.attempt,
                error_type=type(exc).__name__,
                message=str(exc),
                duration_seconds=batch_elapsed,
            ))

    def _handle_done(self, future, sweep: SweepResult) -> bool:
        """Process one finished future; True if the pool broke."""
        run = self.in_flight.pop(future)
        self._charge_elapsed(run)
        was_isolated = run is self.isolated
        if was_isolated:
            self.isolated = None
        try:
            payloads = future.result()
        except BrokenProcessPool as exc:
            # The pool is gone; every other in-flight future is doomed
            # too.  A batch that was running alone is provably the
            # crasher and gets charged; otherwise blame is ambiguous,
            # so the batch joins the isolation queue uncharged.
            if was_isolated:
                self._retry_or_fail(run, WorkerCrashError(
                    f"worker process died while running batch "
                    f"{run.key!r} (attempt {run.attempt}): {exc}"),
                    isolate=True)
            else:
                self.isolation.append((run.cells, run.attempt))
            return True
        except (WorkerCrashError, CellTimeoutError) as exc:
            self._retry_or_fail(run, exc)
            return False
        except Exception as exc:
            # Deterministic error from the cells themselves (bad
            # config, a policy bug, injected non-transient failure):
            # retrying would fail identically.
            self._retry_or_fail(run, exc)
            return False
        try:
            if (not isinstance(payloads, (list, tuple))
                    or len(payloads) != len(run.cells)):
                raise WorkerCrashError(
                    f"worker returned corrupt batch payload for "
                    f"{run.key!r}: expected {len(run.cells)} cell "
                    f"payload(s), got {type(payloads).__name__}")
            results = [_deserialize(payload, key)
                       for key, payload in zip(run.cell_keys, payloads)]
        except WorkerCrashError as exc:
            self._retry_or_fail(run, exc)
        else:
            batch_elapsed = self.elapsed.get(run.key, 0.0)
            for (policy, capacity), key, result, payload in zip(
                    run.cells, run.cell_keys, results, payloads):
                result.duration_seconds = batch_elapsed
                result.attempts = run.attempt
                sweep.add(result)
                self.on_cell_done(policy, capacity, payload)
                _events.emit("cell_finished", key=key,
                             attempt=run.attempt,
                             duration_seconds=round(batch_elapsed, 6))
        return False

    def _batch_timeout(self, run: _BatchRun) -> float:
        """A batch's wall-clock budget scales with its cell count."""
        return self.cell_timeout * len(run.cells)

    def _check_timeouts(self) -> bool:
        """Kill the pool if any batch is past its budget; True if so."""
        if self.cell_timeout is None:
            return False
        now = time.monotonic()
        hung = [(future, run) for future, run in self.in_flight.items()
                if not future.done()
                and now - run.started > self._batch_timeout(run)]
        if not hung:
            return False
        # Tear down once, then charge every hung batch.  Non-hung
        # neighbours are requeued without losing budget.
        hung_runs = {run for _, run in hung}
        for future, run in list(self.in_flight.items()):
            if run in hung_runs:
                del self.in_flight[future]
        if self.isolated in hung_runs:
            self.isolated = None
        for _, run in hung:
            self._charge_elapsed(run)
            if len(run.cells) == 1:  # else unattributable: split below
                _events.emit("cell_timed_out", key=run.key,
                             attempt=run.attempt,
                             timeout_seconds=self._batch_timeout(run))
        self._requeue_in_flight()
        self._rebuild_pool(reason="cell timeout")
        for _, run in hung:
            self._retry_or_fail(run, CellTimeoutError(
                f"batch {run.key!r} exceeded "
                f"{self._batch_timeout(run):g}s on attempt "
                f"{run.attempt}",
                timeout_seconds=self._batch_timeout(run)))
        return True

    # -- main loop --------------------------------------------------------

    def _submit_next(self) -> None:
        """Top up the pool: isolation suspects run strictly alone, the
        normal queue fills up to ``n_workers`` in-flight batches."""
        while len(self.in_flight) < self.n_workers:
            if self.isolated is not None:
                return  # an isolated batch is running; nothing else may
            if self.isolation:
                if self.in_flight:
                    return  # drain neighbours before isolating
                cells, attempt = self.isolation.popleft()
                isolate = True
            elif self.queue:
                cells, attempt = self.queue.popleft()
                isolate = False
            else:
                return
            key = batch_key(cells)
            try:
                future = self.pool.submit(
                    _run_batch,
                    (cells, self.warmup_fraction,
                     self.size_interpretation.value, attempt,
                     _profile_path(self.profile_dir, key, attempt)))
            except BrokenProcessPool:
                # Worker died between polls; nothing was submitted, so
                # no attempt is charged.
                target = self.isolation if isolate else self.queue
                target.appendleft((cells, attempt))
                self._suspect_in_flight()
                self._rebuild_pool()
                continue
            for policy, capacity in cells:
                cell = cell_key(policy, capacity)
                if (cell, attempt) not in self.announced:
                    self.announced.add((cell, attempt))
                    _events.emit("cell_scheduled", key=cell,
                                 attempt=attempt)
            run = _BatchRun(cells, attempt, time.monotonic())
            self.in_flight[future] = run
            if isolate:
                self.isolated = run

    def run(self, sweep: SweepResult) -> None:
        self.pool = self._new_pool()
        try:
            while self.queue or self.isolation or self.in_flight:
                self._submit_next()
                if not self.in_flight:
                    continue
                done, _ = wait(set(self.in_flight),
                               timeout=_POLL_SECONDS,
                               return_when=FIRST_COMPLETED)
                broke = False
                for future in done:
                    if future in self.in_flight:
                        broke = self._handle_done(future, sweep) or broke
                if broke:
                    self._suspect_in_flight()
                    self._rebuild_pool()
                    continue
                self._check_timeouts()
        finally:
            if self.pool is not None:
                _terminate_pool(self.pool)
        sweep.failures.extend(self.failures)
