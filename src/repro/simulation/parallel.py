"""Fault-tolerant parallel cache-size sweeps.

A full figure regeneration at paper scale is ~30 independent
(policy, capacity) simulations over millions of requests; they share
nothing but the read-only trace, so running them in several processes
gives near-linear speedup.  The calling process only schedules: every
grid, one worker included, runs its passes in child processes, so
there is one execution path and the caller's own state (its event sink
above all) is never rearmed as a worker's.

The unit of scheduling is a **batch** of cells: the grid is
partitioned into ``cells_per_pass``-sized batches (by default an even
split across the workers) and each batch runs over **one** shared
trace pass via :func:`repro.simulation.engine.run_cells`, paying the
trace tax once per batch instead of once per cell.  The results are
bit-identical whatever the batch size.

A batch is its own **process**: the scheduler starts one
``multiprocessing.Process`` per batch, at most ``n_workers`` at a
time, and reads one answer from the batch's pipe — the per-cell
payload list, or the exception the cells raised.  The trace's columns
(:func:`~repro.trace.columnar.columns_of`, taken once by the caller)
are the process argument: a fork-started child inherits them (arrays
or file mapping, nothing copied), a spawn-started child unpickles
them, which for a :class:`~repro.trace.columnar.ColumnarTrace` means
reopening the file by path, so the kernel page cache backs every
child with one copy.

That makes the process the unit of blame.  A pipe that closes without
an answer is that batch's :class:`~repro.errors.WorkerCrashError`, and
a batch past its timeout budget is killed alone (``SIGKILL``: a hang
may ignore anything gentler) and is that batch's
:class:`~repro.errors.CellTimeoutError`; batches running beside it
are never touched.  Because every cell is a pure function of its
config and the trace, a failed batch can simply be rerun, and
transient failures (crashes, hangs, corrupt payloads) are, immediately
and up to ``max_retries`` times.  Isolation stays **per cell**: a
failed batch of several cells cannot say which cell is to blame, so
its cells are requeued as singleton batches, uncharged, and only a
cell that fails while running alone spends retry budget or is recorded
as lost.  Telemetry events (the scheduler's
:func:`repro.observability.events.emit` calls, which are also its log
lines), checkpoints, and ``failure_policy="partial"``
:class:`~repro.simulation.results.FailureRecord`\\ s are per cell
too, so a resumed or partially failed grid has the same cell-by-cell
lifecycle whatever the batch size.

Results are bit-identical to :func:`repro.simulation.sweep.run_sweep`
— every policy is deterministic, and retries rerun the identical
computation — which the tests assert, fault injection included.  The
grid is filled in the order the cells were asked for, once every batch
has answered, so the order batches finish in (or a resume restores
them in) never reaches a report.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import re
import time
from collections import deque
from multiprocessing.connection import wait as _wait
from pathlib import Path
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

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
from repro.simulation.engine import run_cells
from repro.simulation.results import (
    FailureRecord,
    SimulationResult,
    SweepResult,
)
from repro.simulation.simulator import SimulationConfig, SizeInterpretation
from repro.trace.columnar import columns_of

#: Accepted values for ``failure_policy``.
FAILURE_POLICIES = ("raise", "partial")

# Per-process state of a batch's child, set by _init_worker.
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


def _init_worker(trace, injector: Optional[FaultInjector] = None) -> None:
    """Arm this process with the sweep's trace and fault plan."""
    global _worker_trace, _worker_injector
    _worker_trace = trace
    _worker_injector = injector
    # A fork-started child inherits the parent's process-wide event
    # sink, including its open events.jsonl handle and a stale copy of
    # its seq counter; anything the child emitted (e.g. the shared
    # pass lifecycle from run_cells) would interleave out-of-sequence
    # records into the parent's telemetry.  Cell lifecycle events are
    # the parent's job, so children write nowhere.
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
            "process was started without the _init_worker initializer")
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


def _batch_main(connection, trace, injector: Optional[FaultInjector],
                batch: tuple) -> None:
    """Entry point of a batch's process: one answer down the pipe, the
    payload list or the exception the cells raised.  A process that
    dies instead closes the pipe unanswered."""
    _init_worker(trace, injector)
    try:
        answer = _run_batch(batch)
    except Exception as exc:
        answer = exc
    connection.send(answer)
    connection.close()


class _BatchRun(NamedTuple):
    """Bookkeeping for one in-flight (batch, attempt) process."""

    cells: Tuple[Tuple[str, int], ...]
    attempt: int
    started: float
    process: multiprocessing.process.BaseProcess

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
                       fault_injector: Optional[FaultInjector] = None,
                       checkpoint_store: Optional[CheckpointStore] = None,
                       telemetry_dir=None,
                       profile_dir=None) -> SweepResult:
    """Run the (policy × capacity) grid across worker processes.

    Positional args match :func:`~repro.simulation.sweep.run_sweep`
    (minus the per-cell callbacks, which cannot cross process
    boundaries); ``n_workers`` — how many batch processes run at once —
    defaults to the CPU count capped by the cell count, and even one
    worker is a child process: the caller never runs a pass itself.
    ``trace`` is anything :func:`~repro.trace.columnar.columns_of`
    opens or gathers — a :class:`~repro.types.Trace`, a
    :class:`~repro.trace.columnar.ColumnarTrace`, or a trace file path —
    and its columns are taken once, here.  Each batch's process gets
    those columns: a forked child inherits them, a spawned child
    unpickles them — gathered columns travel as arrays, a columnar
    trace as its path, which the child mmaps itself (one kernel
    page-cache copy serves every process).

    The process is the unit of blame: a death
    (:class:`~repro.errors.WorkerCrashError`) or a timeout (``kill()``,
    :class:`~repro.errors.CellTimeoutError`) fails that batch alone,
    and the batches running beside it carry on.

    Keyword-only knobs:

    Args:
        cells_per_pass: How many cells each batch carries; they ride
            **one** shared trace pass in their process
            (:func:`repro.simulation.engine.run_cells`).  Defaults to
            an even split of the grid across the workers; ``1`` gives
            every cell its own process and pass.  Results are
            bit-identical whatever the value; telemetry events,
            checkpoints, and failure records stay per cell.
        max_retries: Immediate reruns allowed per cell for *transient*
            failures (worker crash, timeout, corrupt payload); cells
            are CPU-bound and deterministic, so waiting between
            attempts would buy nothing.  Deterministic errors from the
            cells themselves are never retried.  A
            failed batch of several cells is first split into
            singleton batches at no charge, so only the guilty cell
            spends its budget.
        cell_timeout: Per-cell wall-clock budget in seconds; a batch
            past ``cell_timeout × len(batch)`` has its process killed
            and counts as a transient failure.  ``None`` disables
            timeouts.
        failure_policy: ``"raise"`` (default) re-raises the first
            permanently failed cell; ``"partial"`` returns whatever
            completed, with a :class:`FailureRecord` per lost cell on
            ``SweepResult.failures``.
        fault_injector: Deterministic chaos plan handed to every batch
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
            in its process and dumps ``<cell>.attempt<n>.prof`` here.
    """
    trace = columns_of(trace)
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
    if max_retries < 0:
        raise ConfigurationError("max_retries must be >= 0")
    if n_workers is None:
        n_workers = min(os.cpu_count() or 1, len(cells))
    n_workers = max(min(n_workers, len(cells)), 1)

    sweep = SweepResult(trace_name=trace.name)
    # Batches finish in any order: results wait here until _finish.
    finished: Dict[Tuple[str, int], SimulationResult] = {}
    grid_cells = cells

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
        for cell in grid_cells:
            if cell in finished:
                sweep.add(finished[cell])
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
                "requests": len(trace),
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
                        finished[(policy_name, capacity)] = \
                            _deserialize(payload, key)
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
            trace=trace,
            batches=batches,
            warmup_fraction=warmup_fraction,
            size_interpretation=size_interpretation,
            n_workers=max(min(n_workers, len(batches)), 1),
            max_retries=max_retries,
            cell_timeout=cell_timeout,
            failure_policy=failure_policy,
            fault_injector=fault_injector,
            on_cell_done=_checkpoint_cell,
            finished=finished,
            profile_dir=profile_dir,
        ).run(sweep)
        return _finish()
    except BaseException:
        sweep_span.end("error")
        if telemetry is not None:
            telemetry.finalize("failed")
        raise


def supervise_workers(target, args: tuple = (), n_workers: int = 2, *,
                      max_restarts: int = 2) -> List[dict]:
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
        exited = _wait([process.sentinel for process in processes
                        if process is not None])
        for slot, process in enumerate(processes):
            if process is None or process.sentinel not in exited:
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
    return [{"worker": slot, "exitcode": exitcodes[slot],
             "restarts": restarts[slot]}
            for slot in range(n_workers)]


class _Scheduler:
    """Runs each batch in a process of its own, at most ``n_workers``
    at a time, and retries transient failures.

    Scheduling is per batch; events, checkpoints, and failure records
    are per cell, and so is blame: only a singleton batch is ever
    charged an attempt (see :meth:`_retry_or_fail`).
    """

    def __init__(self, trace, batches, warmup_fraction,
                 size_interpretation, n_workers, max_retries,
                 cell_timeout, failure_policy, fault_injector,
                 on_cell_done, profile_dir, finished):
        self.trace = trace
        self.warmup_fraction = warmup_fraction
        self.size_interpretation = size_interpretation
        self.n_workers = n_workers
        self.max_retries = max_retries
        self.cell_timeout = cell_timeout
        self.failure_policy = failure_policy
        self.fault_injector = fault_injector
        self.on_cell_done = on_cell_done
        self.profile_dir = profile_dir
        self.context = multiprocessing.get_context()
        #: Wall-clock seconds burned per batch key across attempts,
        #: including attempts that crashed or timed out.
        self.elapsed: Dict[str, float] = {}
        #: (batch_cells, attempt) runnable now.
        self.queue = deque((batch, 1) for batch in batches)
        #: (cell key, attempt) pairs already announced with
        #: ``cell_scheduled``: a split batch's cells rerun uncharged,
        #: which is the same attempt, not a new one, and is not
        #: announced again.
        self.announced = set()
        #: Receiving pipe end -> the batch whose answer it carries.
        self.in_flight: Dict[object, _BatchRun] = {}
        self.failures: List[FailureRecord] = []
        #: (policy, capacity) -> its result, as batches answer.
        self.finished = finished

    # -- process lifecycle ------------------------------------------------

    def _start(self, cells, attempt: int) -> None:
        """Start one batch's process and announce its cells."""
        receiver, sender = self.context.Pipe(duplex=False)
        process = self.context.Process(
            target=_batch_main,
            args=(sender, self.trace, self.fault_injector,
                  (cells, self.warmup_fraction,
                   self.size_interpretation.value, attempt,
                   _profile_path(self.profile_dir, batch_key(cells),
                                 attempt))))
        process.start()
        # The child holds the only sending end now, so its death reads
        # as EOF here.
        sender.close()
        for policy, capacity in cells:
            cell = cell_key(policy, capacity)
            if (cell, attempt) not in self.announced:
                self.announced.add((cell, attempt))
                _events.emit("cell_scheduled", key=cell, attempt=attempt)
        self.in_flight[receiver] = _BatchRun(
            cells, attempt, time.monotonic(), process)

    def _reap(self, connection, kill: bool = False) -> _BatchRun:
        """Take a batch out of flight: charge the wall clock it burned
        and collect its process, killing it first if asked."""
        run = self.in_flight.pop(connection)
        spent = time.monotonic() - run.started
        self.elapsed[run.key] = self.elapsed.get(run.key, 0.0) + spent
        if kill:
            # SIGKILL, not terminate(): a hung cell may ignore SIGTERM.
            run.process.kill()
        connection.close()
        run.process.join()
        return run

    # -- outcome handling -------------------------------------------------

    def _retry_or_fail(self, run: _BatchRun, exc: Exception) -> None:
        """Charge a failed attempt; requeue the batch or record losses.

        A batch of several cells cannot say which cell failed, so its
        cells rerun as singleton batches, uncharged and under the
        attempt already announced; the guilty one then fails alone, and
        per-cell events, failure records and the attempts they report
        read exactly as if every cell had been scheduled on its own.
        """
        if len(run.cells) > 1:
            _logger.warning(
                "batch %s attempt %d failed (%s); rerunning its %d "
                "cells one per batch", run.key, run.attempt,
                type(exc).__name__, len(run.cells),
                extra={"key": run.key, "attempt": run.attempt,
                       "error_type": type(exc).__name__})
            self.queue.extend(((cell,), run.attempt) for cell in run.cells)
            return
        # Anything but these is a deterministic error from the cells
        # themselves (bad config, a policy bug, an injected
        # non-transient failure): retrying would fail identically.
        transient = isinstance(exc, (WorkerCrashError, CellTimeoutError))
        if transient and run.attempt <= self.max_retries:
            for key in run.cell_keys:
                _events.emit("cell_retried", key=key,
                             attempt=run.attempt,
                             error_type=type(exc).__name__,
                             delay_seconds=0.0)
            self.queue.append((run.cells, run.attempt + 1))
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

    def _handle_answer(self, connection) -> None:
        """Process one batch whose pipe has an answer, or has closed."""
        try:
            payloads = connection.recv()
        except EOFError:
            payloads = None
        run = self._reap(connection)
        try:
            if payloads is None:
                raise WorkerCrashError(
                    f"worker process died while running batch "
                    f"{run.key!r} (attempt {run.attempt}): exit code "
                    f"{run.process.exitcode}")
            if isinstance(payloads, Exception):
                raise payloads
            if (not isinstance(payloads, (list, tuple))
                    or len(payloads) != len(run.cells)):
                raise WorkerCrashError(
                    f"worker returned corrupt batch payload for "
                    f"{run.key!r}: expected {len(run.cells)} cell "
                    f"payload(s), got {type(payloads).__name__}")
            results = [_deserialize(payload, key)
                       for key, payload in zip(run.cell_keys, payloads)]
        except Exception as exc:
            self._retry_or_fail(run, exc)
            return
        batch_elapsed = self.elapsed.get(run.key, 0.0)
        for (policy, capacity), key, result, payload in zip(
                run.cells, run.cell_keys, results, payloads):
            result.duration_seconds = batch_elapsed
            result.attempts = run.attempt
            self.finished[(policy, capacity)] = result
            self.on_cell_done(policy, capacity, payload)
            _events.emit("cell_finished", key=key, attempt=run.attempt,
                         duration_seconds=round(batch_elapsed, 6))

    def _budget(self, run: _BatchRun) -> float:
        """A batch's wall-clock budget scales with its cell count."""
        return self.cell_timeout * len(run.cells)

    def _wait_seconds(self) -> Optional[float]:
        """How long the loop may block: until the nearest batch
        deadline, or indefinitely when there are no timeouts."""
        if self.cell_timeout is None:
            return None
        now = time.monotonic()
        return max(0.0, min(run.started + self._budget(run) - now
                            for run in self.in_flight.values()))

    def _kill_overdue(self) -> None:
        """Kill each batch past its budget, and only that batch."""
        if self.cell_timeout is None:
            return
        now = time.monotonic()
        for connection, run in list(self.in_flight.items()):
            budget = self._budget(run)
            if now - run.started <= budget or connection.poll():
                continue
            self._reap(connection, kill=True)
            if len(run.cells) == 1:  # else unattributable: split below
                _events.emit("cell_timed_out", key=run.key,
                             attempt=run.attempt, timeout_seconds=budget)
            self._retry_or_fail(run, CellTimeoutError(
                f"batch {run.key!r} exceeded {budget:g}s on attempt "
                f"{run.attempt}", timeout_seconds=budget))

    # -- main loop --------------------------------------------------------

    def run(self, sweep: SweepResult) -> None:
        try:
            while self.queue or self.in_flight:
                while self.queue and len(self.in_flight) < self.n_workers:
                    self._start(*self.queue.popleft())
                for connection in _wait(list(self.in_flight),
                                        self._wait_seconds()):
                    self._handle_answer(connection)
                self._kill_overdue()
        finally:
            for connection in list(self.in_flight):
                self._reap(connection, kill=True)
        sweep.failures.extend(self.failures)
