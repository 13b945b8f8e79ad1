"""Inputs and the six workloads of the perf ledger.

Every workload is driven from outside, through public entry points of
``repro`` only.  A workload object is constructed once per worker
(set-up), then :meth:`Workload.run_pass` is called once untimed (warm
up) and once per timed pass; :meth:`Workload.settle` does the untimed
bookkeeping of a pass (output comparison, hit counts).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import sys
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.policy import AccessOutcome  # noqa: E402
from repro.network.engine import (NetworkConfig, NetworkSimulator,  # noqa: E402
                                  run_network_cells)
from repro.network.topology import tree  # noqa: E402
from repro.serving.client import CacheClient, ServingProtocolError  # noqa: E402
from repro.serving.server import CacheServer  # noqa: E402
from repro.serving.sharding import ShardedCache  # noqa: E402
from repro.simulation.engine import SimulationConfig, run_cells  # noqa: E402
from repro.simulation.simulator import CacheSimulator  # noqa: E402
from repro.simulation.sweep import cache_sizes_from_fractions  # noqa: E402
from repro.trace.columnar import open_columnar, write_columnar  # noqa: E402
from repro.types import Trace  # noqa: E402
from repro.workload.generator import generate_trace  # noqa: E402
from repro.workload.profiles import dfn_like  # noqa: E402

from spans import NO_SPANS  # noqa: E402

#: The paper's DFN mix at 1/256 of the real trace: 26 242 requests.
PROFILE_SCALE = 1.0 / 256.0
#: Largest cacheable object (squid's ``maximum_object_size`` idiom, as
#: in ``bench_columnar.py``): every paper-range capacity admits every
#: document, the no-bypass precondition of the LRU ladder.
MAX_OBJECT_BYTES = 200_000
#: ``C2``: the paper's mid-range cache size, 2 % of distinct bytes.
C2_FRACTION = 0.02
LADDER_POINTS = 32
LADDER_RANGE = (0.005, 0.04)
#: Per-level capacities of the 7-cache binary tree, leaves first (the
#: ``bench_network.py`` provisioning).
_TREE_TOTAL = 60 * MAX_OBJECT_BYTES
TREE_LEVELS = (_TREE_TOTAL // 14, _TREE_TOTAL // 7, 2 * _TREE_TOTAL // 7)
N_SHARDS = 4
SOCKET_REQUEST_OPS = 4_000
SOCKET_GETPUT_OPS = 1_000
#: The opcode count runs over this many leading requests.
BYTECODE_REQUESTS = 3_000
#: Leading passes (warm-up first) whose hit counts enter a serving
#: workload's digest; fixed so the digest does not depend on how many
#: passes a time-boxed run managed.
DIGEST_PASSES = 3

Op = Tuple[str, int, object]        # (url, size, doc_type)


# ----- inputs ---------------------------------------------------------------


@dataclass
class Inputs:
    """What a workload is given: the generated trace, in memory and as
    ``.rcol``, and the cache sizes derived from it."""

    trace: Trace
    rcol_path: Path
    c2: int
    ladder: List[int]

    @property
    def ops(self) -> List[Op]:
        return [(r.url, r.size, r.doc_type) for r in self.trace.requests]


def stable_trace(seed: int) -> Trace:
    """The DFN-like workload with each document pinned at its
    first-seen, capped size (one size per document: ladder- and
    fastpath-eligible, the configuration the paper's grids sweep)."""
    generated = generate_trace(dfn_like(scale=PROFILE_SCALE, seed=seed))
    first: Dict[str, int] = {}
    requests = []
    for request in generated.requests:
        size = first.setdefault(request.url,
                                min(request.size, MAX_OBJECT_BYTES))
        requests.append(replace(request, size=size, transfer_size=size))
    return Trace(requests, name="dfn-stable")


def make_inputs(trace: Trace, rcol_path: Path) -> Inputs:
    write_columnar(rcol_path, trace.requests, name=trace.name)
    low, high = LADDER_RANGE
    step = (high - low) / (LADDER_POINTS - 1)
    return Inputs(
        trace=trace, rcol_path=rcol_path,
        c2=cache_sizes_from_fractions(trace, [C2_FRACTION])[0],
        ladder=cache_sizes_from_fractions(
            trace, [low + step * i for i in range(LADDER_POINTS)]))


def head_inputs(inputs: Inputs, n: int) -> Inputs:
    """The first ``n`` requests with their own ``.rcol`` (the opcode
    count's small trace).  Cache sizes stay those of the full trace:
    sized against the head alone, the low ladder rungs fall under the
    largest document on some seeds and those cells leave the ladder —
    a different code path, 20 % more bytecodes, decided by the seed."""
    head = Trace(inputs.trace.requests[:n], name=inputs.trace.name)
    path = inputs.rcol_path.with_name(
        inputs.rcol_path.stem + f"-head{n}.rcol")
    write_columnar(path, head.requests, name=head.name)
    return replace(inputs, trace=head, rcol_path=path)


# ----- digests --------------------------------------------------------------


def canonical(value):
    """Results reduced to JSON types with a fixed spelling: dict keys
    as strings, enums by value, tuples as lists, floats at 12
    significant digits (exact for every ratio of counters the
    simulators report, blind to last-bit summation-order noise)."""
    if isinstance(value, dict):
        return {str(canonical(k)): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, Enum):
        return canonical(value.value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, (int, str)):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def digest_of(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----- the workload contract ------------------------------------------------


class Workload:
    """One named workload (``BENCHMARK.json`` says why each exists).
    ``ops_per_pass`` is what ``ops_per_s`` counts."""

    name = ""
    ops_per_pass = 0
    #: Filled by socket workloads: per-op round-trip seconds of the
    #: most recent pass.
    last_latencies: Optional[List[float]] = None

    def run_pass(self, spans):
        """The timed body.  Returns whatever :meth:`settle` needs."""
        raise NotImplementedError

    def settle(self, outcome) -> int:
        """Untimed bookkeeping of one pass; returns its failed ops."""
        raise NotImplementedError

    def verify(self) -> List[str]:
        """Output checks against a reference path; problems found."""
        raise NotImplementedError

    def results(self):
        """What the digest is taken over."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----- sweep and network workloads -------------------------------------------


class _TracePass(Workload):
    """Shared shape of the three file-driven workloads: a pass opens
    the ``.rcol`` and runs one batch of cells; every pass must return
    the same results as the first."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self._first = None

    def _run(self, trace):
        raise NotImplementedError

    def run_pass(self, spans):
        with spans.span("trace.open_rcol"):
            trace = open_columnar(self.inputs.rcol_path)
        with trace:
            with spans.span(self.layer_span):
                return self._run(trace)

    def settle(self, outcome) -> int:
        dicts = [result.as_dict() for result in outcome]
        if self._first is None:
            self._first = dicts
        return 0 if dicts == self._first else self.ops_per_pass

    def results(self):
        return self._first


class _Sweep(_TracePass):
    layer_span = "simulation.run_cells"

    def __init__(self, inputs: Inputs, cells: Sequence[Tuple[str, int]],
                 reference_cells: Sequence[int]):
        super().__init__(inputs)
        self.configs = [SimulationConfig(capacity_bytes=capacity,
                                         policy=policy)
                        for policy, capacity in cells]
        self._reference_cells = reference_cells
        self.ops_per_pass = len(inputs.trace.requests) * len(cells)

    def _run(self, trace):
        return run_cells(trace, self.configs,
                         trace_name=self.inputs.trace.name)

    def verify(self) -> List[str]:
        problems = []
        for index in self._reference_cells:
            config = self.configs[index]
            reference = CacheSimulator(config).run(
                self.inputs.trace, trace_name=self.inputs.trace.name)
            if reference.as_dict() != self._first[index]:
                problems.append(
                    f"cell {config.policy}@{config.capacity_bytes} "
                    "differs from CacheSimulator")
        return problems


class SweepGD(_Sweep):
    name = "sweep_gd"

    def __init__(self, inputs: Inputs):
        super().__init__(inputs, [("gds(1)", inputs.c2),
                                  ("gd*(1)", inputs.c2)], (0, 1))


class SweepLadder(_Sweep):
    name = "sweep_ladder"

    def __init__(self, inputs: Inputs):
        super().__init__(inputs, [("lru", c) for c in inputs.ladder],
                         (0, len(inputs.ladder) - 1))


def tree_config(policy: str = "gds(1)",
                strategy: str = "lcd") -> NetworkConfig:
    return NetworkConfig(topology=tree(TREE_LEVELS, 2, policy),
                         strategy=strategy)


class NetworkTree(_TracePass):
    name = "network_tree"
    layer_span = "network.run_network_cells"

    def __init__(self, inputs: Inputs):
        super().__init__(inputs)
        self.config = tree_config()
        self.ops_per_pass = len(inputs.trace.requests)

    def _run(self, trace):
        return run_network_cells(trace, [self.config],
                                 trace_name=self.inputs.trace.name)

    def verify(self) -> List[str]:
        reference = NetworkSimulator(self.config).run(
            self.inputs.trace, trace_name=self.inputs.trace.name)
        if reference.as_dict() != self._first[0]:
            return ["columnar network run differs from the in-memory "
                    "object walk"]
        return []


# ----- serving workloads ----------------------------------------------------


def cycle_slice(ops: Sequence, position: int, count: int
                ) -> Tuple[list, int]:
    """``count`` consecutive items of the endlessly repeated ``ops``
    starting at ``position``; also the position after them."""
    n = len(ops)
    position %= n
    out = list(ops[position:position + count])
    while len(out) < count:
        out.extend(ops[:count - len(out)])
    return out, (position + count) % n


class ServerThread:
    """A :class:`CacheServer` on its own event-loop thread."""

    def __init__(self, cache):
        self.server = CacheServer(cache)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._serve,
                                        name="perf-server")
        self._thread.start()
        if not self._started.wait(10.0):
            raise RuntimeError("cache server did not start")

    @property
    def port(self) -> int:
        return self.server.port

    def _serve(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._started.set()
        self._loop.run_forever()
        self._loop.run_until_complete(self._shut_down())
        self._loop.close()

    async def _shut_down(self) -> None:
        await self.server.stop()
        # Connection handlers end on their client's EOF; the caller
        # closed its client before stopping the server.
        handlers = [task for task in asyncio.all_tasks(self._loop)
                    if task is not asyncio.current_task()]
        await asyncio.wait_for(asyncio.gather(*handlers), 10.0)

    def stop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10.0)
        if self._thread.is_alive():
            raise RuntimeError("cache server thread did not stop")


class _Serve(Workload):
    """Shared shape of the serving workloads: one long-lived sharded
    cache, the trace's requests issued in order and cycling, hits
    counted by the caller."""

    policy = "lru"

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.ops = inputs.ops
        # The class says how many ops a pass is; 0 means one traversal.
        self.ops_per_pass = type(self).ops_per_pass or len(self.ops)
        self.position = 0
        self.hits_by_pass: List[int] = []
        self.cache = self._new_cache()

    def _new_cache(self) -> ShardedCache:
        return ShardedCache(self.inputs.c2, n_shards=N_SHARDS,
                            policy=self.policy)

    def _loop(self, ops: List[Op], spans) -> Tuple[int, int]:
        """Issue ``ops``; returns (hits, failed ops)."""
        raise NotImplementedError

    def _reference_hit(self, cache: ShardedCache, op: Op) -> bool:
        """The same op applied in process (the sequential replay)."""
        raise NotImplementedError

    def run_pass(self, spans):
        ops, self.position = cycle_slice(self.ops, self.position,
                                         self.ops_per_pass)
        return self._loop(ops, spans)

    def settle(self, outcome) -> int:
        hits, failed = outcome
        self.hits_by_pass.append(hits)
        return failed

    def server_counters(self) -> dict:
        return self.cache.stats()["total"]

    def verify(self) -> List[str]:
        """Replay the leading passes' op sequence sequentially on a
        fresh cache and compare hits pass by pass, for as many passes
        as three traversals of the trace hold (replaying all 61
        traversals of a full serve_inproc run would take longer than
        the run).  Over the whole run, the hits the caller saw must
        equal the hits the cache counted."""
        problems = []
        n_check = min(len(self.hits_by_pass),
                      3 * len(self.ops) // self.ops_per_pass)
        replica = self._new_cache()
        position = 0
        for index in range(n_check):
            ops, position = cycle_slice(self.ops, position,
                                        self.ops_per_pass)
            hits = sum(self._reference_hit(replica, op) for op in ops)
            if hits != self.hits_by_pass[index]:
                problems.append(
                    f"pass {index}: {self.hits_by_pass[index]} hits, "
                    f"sequential replay has {hits}")
        counted = self.server_counters()["hits"]
        if counted != sum(self.hits_by_pass):
            problems.append(
                f"caller saw {sum(self.hits_by_pass)} hits, the cache "
                f"counted {counted}")
        return problems

    def results(self):
        return {"policy": self.policy, "capacity_bytes": self.inputs.c2,
                "shards": N_SHARDS, "ops_per_pass": self.ops_per_pass,
                "hits": self.hits_by_pass[:DIGEST_PASSES]}


class ServeInproc(_Serve):
    name = "serve_inproc"
    policy = "gdsf(1)"

    def _loop(self, ops, spans):
        request = self.cache.request
        hit = AccessOutcome.HIT
        hits = 0
        if spans.enabled:
            leaf = spans.add_leaf
            for url, size, doc_type in ops:
                started = perf_counter()
                outcome = request(url, size, doc_type)
                leaf("serving.sharded_request", started, perf_counter())
                if outcome is hit:
                    hits += 1
        else:
            for url, size, doc_type in ops:
                if request(url, size, doc_type) is hit:
                    hits += 1
        return hits, 0

    def _reference_hit(self, cache, op):
        return cache.request(*op) is AccessOutcome.HIT


class _ServeSocket(_Serve):
    """Closed loop, one connection: a blocking client on the calling
    thread, the server on its own event-loop thread."""

    def __init__(self, inputs: Inputs):
        super().__init__(inputs)
        self.server = ServerThread(self.cache)
        self.client = CacheClient(port=self.server.port)

    def server_counters(self) -> dict:
        return self.client.stats()["total"]

    def close(self) -> None:
        self.client.close()
        self.server.stop()


class ServeSocketRequest(_ServeSocket):
    name = "serve_socket_request"
    ops_per_pass = SOCKET_REQUEST_OPS

    def _loop(self, ops, spans):
        request = self.client.request
        leaf = spans.add_leaf if spans.enabled else None
        latencies = []
        record = latencies.append
        hits = failed = 0
        for url, size, doc_type in ops:
            started = perf_counter()
            try:
                outcome = request(url, size, doc_type)
            except ServingProtocolError:
                outcome = None
            ended = perf_counter()
            record(ended - started)
            if leaf is not None:
                leaf("serving.roundtrip.request", started, ended)
            if outcome == "hit":
                hits += 1
            elif outcome is None:
                failed += 1
        self.last_latencies = latencies
        return hits, failed

    def _reference_hit(self, cache, op):
        return cache.request(*op) is AccessOutcome.HIT


def payload_buffer() -> bytes:
    """The one buffer every payload is sliced from.  High-entropy
    bytes, as images and archives are: every byte value crosses the
    latin-1-through-JSON framing."""
    return random.Random(0).randbytes(MAX_OBJECT_BYTES)


class ServeSocketGetPut(_ServeSocket):
    name = "serve_socket_getput"
    ops_per_pass = SOCKET_GETPUT_OPS

    def __init__(self, inputs: Inputs):
        super().__init__(inputs)
        self._buffer = payload_buffer()

    def _loop(self, ops, spans):
        get, put = self.client.get, self.client.put
        buffer = self._buffer
        leaf = spans.add_leaf if spans.enabled else None
        latencies = []
        record = latencies.append
        hits = failed = 0
        for url, size, doc_type in ops:
            started = perf_counter()
            try:
                document = get(url)
                if document is None:
                    put(url, size, doc_type, buffer[:size])
                    wrong = False
                else:
                    wrong = len(document["payload"]) != size
            except ServingProtocolError:
                document, wrong = None, True
            ended = perf_counter()
            record(ended - started)
            if leaf is not None:
                leaf("serving.roundtrip.getput", started, ended)
            if wrong:
                failed += 1
            elif document is not None:
                hits += 1
        self.last_latencies = latencies
        return hits, failed

    def _reference_hit(self, cache, op):
        url, size, doc_type = op
        if cache.get(url) is not None:
            return True
        cache.put(url, size, doc_type)
        return False


WORKLOADS = {cls.name: cls for cls in (
    SweepGD, SweepLadder, NetworkTree, ServeInproc, ServeSocketRequest,
    ServeSocketGetPut)}


# ----- the opcode count -----------------------------------------------------


class OpcodeCounter:
    """Counts Python bytecodes executed, per thread, through
    ``sys.settrace`` with per-opcode events.  C code (numpy, json's
    accelerator, socket calls) executes no bytecodes and is invisible:
    this is a count of interpreter work, not a time."""

    def __init__(self):
        self._cells: Dict[int, list] = {}
        self._locals: Dict[int, object] = {}

    def trace(self, frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        ident = threading.get_ident()
        local = self._locals.get(ident)
        if local is None:
            cell = self._cells[ident] = [0]

            def local(frame, event, arg):
                if event == "opcode":
                    cell[0] += 1
                return local

            self._locals[ident] = local
        return local

    def total(self) -> int:
        return sum(cell[0] for cell in self._cells.values())


def count_bytecodes(cls, inputs: Inputs) -> Tuple[int, int]:
    """(bytecodes, ops) of one pass of a fresh ``cls`` whose trace is
    the leading :data:`BYTECODE_REQUESTS` requests.

    Threads the workload starts (the socket server) are counted too;
    their counters are read once they have gone idle.
    """
    small = head_inputs(inputs, BYTECODE_REQUESTS)
    counter = OpcodeCounter()
    threading.settrace(counter.trace)
    try:
        workload = cls(small)
    finally:
        threading.settrace(None)
    try:
        time.sleep(0.05)
        before = counter.total()
        sys.settrace(counter.trace)
        try:
            outcome = workload.run_pass(NO_SPANS)
        finally:
            sys.settrace(None)
        time.sleep(0.05)
        executed = counter.total() - before
        workload.settle(outcome)
    finally:
        workload.close()
    return executed, workload.ops_per_pass
