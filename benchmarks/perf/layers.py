"""Layer replays: the per-layer half of the ledger.

Each layer of ``repro`` is timed from outside by pushing the *same
reference sequence* the workloads use straight through that layer's
public entry point.  Run as ``layers.py SEED OUT_DIR`` by the traced
run; prints one JSON line ``{"metrics": {name: value}, "budgets": {...}}``.

Every timing is the median of :data:`REPEATS` calls, each bracketed by
the calibration kernel and speed-corrected exactly as the workload
passes are.  Differences of two timings (``*_self_*``) inherit the
noise of both and are informational.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Tuple

from calib import TimedPass, calib, correct_passes, pin_to_one_cpu

REPEATS = 3
#: Payload bytes of the "payload" frame the codec rows use — about the
#: mean document size of the DFN-like mix.
FRAME_PAYLOAD_BYTES = 8_192
CODEC_CALLS = 5_000

CORE_POLICIES = (("lru", "lru"), ("lfu-da", "lfu-da"),
                 ("gds1", "gds(1)"), ("gdsf1", "gdsf(1)"),
                 ("gdstar1", "gd*(1)"))


def timed_with_speed(fn: Callable[[], object]
                     ) -> Tuple[float, object, float]:
    """(speed-corrected median seconds, last return value, median
    speed factor) of ``fn``.  Consecutive repeats share the
    calibration between them."""
    passes = []
    value = None
    gc.collect()
    before = calib()
    for _ in range(REPEATS):
        started = perf_counter()
        value = fn()
        work = perf_counter() - started
        after = calib()
        passes.append(TimedPass(before, work, after))
        before = after
    corrected = correct_passes(passes)
    return corrected.median_s, value, statistics.median(corrected.speeds)


def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    seconds, value, _ = timed_with_speed(fn)
    return seconds, value


def measure(seed: int, out_dir: Path) -> Tuple[Dict[str, float], dict]:
    import workloads as W
    from repro.core.cache import Cache
    from repro.core.policy import AccessOutcome
    from repro.core.registry import make_policy
    from repro.network.engine import NetworkSimulator, run_network
    from repro.serving.cache import ServedCache
    from repro.serving.server import encode_frame
    from repro.serving.sharding import HashRing, ShardedCache
    from repro.simulation.engine import SimulationConfig, run_cells
    from repro.structures.addressable_heap import AddressableHeap
    from repro.structures.fenwick import FenwickTree
    from repro.trace.columnar import open_columnar, write_columnar
    from repro.workload.generator import generate_trace
    from repro.workload.profiles import dfn_like
    from spans import NO_SPANS

    m: Dict[str, float] = {}
    us = 1e6

    # -- workload, trace ---------------------------------------------------
    m["workload.generate_s"], _ = timed(lambda: generate_trace(
        dfn_like(scale=W.PROFILE_SCALE, seed=seed)))
    trace = W.stable_trace(seed)
    path = out_dir / "layers.rcol"
    m["trace.write_rcol_s"], _ = timed(lambda: write_columnar(
        path, trace.requests, name=trace.name))
    inputs = W.make_inputs(trace, path)
    ops = inputs.ops
    n = len(ops)
    c2 = inputs.c2

    def open_and_len():
        with open_columnar(path) as opened:
            return len(opened)

    open_s, _ = timed(open_and_len)
    m["trace.open_rcol_us"] = open_s * us

    with open_columnar(path) as columnar:
        seconds, _ = timed(lambda: list(columnar))
        m["trace.decode_us_per_req"] = seconds / n * us

        # -- simulation ----------------------------------------------------
        for tag, policy in (("gds1", "gds(1)"), ("gdstar1", "gd*(1)")):
            seconds, _ = timed(lambda: run_cells(
                columnar, [SimulationConfig(capacity_bytes=c2,
                                            policy=policy)]))
            m[f"simulation.run_cells_gd_us_per_ref.{tag}"] = \
                seconds / n * us
        capacities = inputs.ladder
        one, _ = timed(lambda: run_cells(columnar, [SimulationConfig(
            capacity_bytes=capacities[0], policy="lru")]))
        full, _ = timed(lambda: run_cells(columnar, [
            SimulationConfig(capacity_bytes=c, policy="lru")
            for c in capacities]))
        m["simulation.ladder_fixed_s"] = one
        m["simulation.ladder_marginal_ms_per_cell"] = \
            (full - one) / (len(capacities) - 1) * 1e3

        # -- network fast path (informational: no workload takes it) -------
        fast_config = W.tree_config("lru", "lce")
        seconds, _ = timed(lambda: run_network(columnar, fast_config))
        m["network.fastpath_us_per_req"] = seconds / n * us

    # -- core --------------------------------------------------------------
    def reference_loop(policy: str):
        cache = Cache(c2, make_policy(policy))
        reference = cache.reference
        for url, size, doc_type in ops:
            reference(url, size, doc_type)
        return cache

    for tag, policy in CORE_POLICIES:
        seconds, cache = timed(lambda: reference_loop(policy))
        m[f"core.reference_us.{tag}"] = seconds / n * us
        m[f"core.hit_ratio.{tag}"] = cache.hits / n
        m[f"core.evictions_per_ref.{tag}"] = cache.evictions / n
    for tag in ("gds1", "gdstar1"):
        m[f"simulation.driver_self_us_per_ref.{tag}"] = (
            m[f"simulation.run_cells_gd_us_per_ref.{tag}"]
            - m[f"core.reference_us.{tag}"])

    # -- structures --------------------------------------------------------
    # The heap operations gds(1) performs on this reference sequence:
    # recorded from a real run, then replayed on a bare heap with the
    # policy's own key arithmetic (H = L + cost/size).
    recorder = Cache(c2, make_policy("gds(1)"))
    cost = recorder.policy.cost_model.cost
    script = []
    for url, size, doc_type in ops:
        evicted = recorder.evictions
        hit = recorder.reference(url, size, doc_type) is AccessOutcome.HIT
        floor = max(size, 1)
        script.append((url, cost(floor) / floor, hit,
                       recorder.evictions - evicted))

    def heap_replay():
        heap = AddressableHeap()
        inflation = 0.0
        for url, value, hit, pops in script:
            if hit:
                heap.update_key(url, inflation + value)
            else:
                for _ in range(pops):
                    inflation = heap.pop()[1]
                heap.push(url, inflation + value)
        return heap

    seconds, _ = timed(heap_replay)
    m["structures.heap_us_per_ref"] = seconds / n * us

    def fenwick_pairs():
        fenwick = FenwickTree(n)
        add, prefix_sum = fenwick.add, fenwick.prefix_sum
        state = 1
        for _ in range(n):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            index = state % n
            add(index, 1)
            prefix_sum(index)

    seconds, _ = timed(fenwick_pairs)
    m["structures.fenwick_us_per_op"] = seconds / n * us

    # -- network -----------------------------------------------------------
    config = W.tree_config()
    requests = trace.requests
    seconds, result = timed(lambda: NetworkSimulator(config).run(requests))
    m["network.walk_us_per_req"] = seconds / n * us
    m["network.lookups_per_req"] = sum(
        node.hits + node.misses for node in result.nodes.values()) / n
    m["network.self_us_per_req"] = (
        m["network.walk_us_per_req"]
        - m["network.lookups_per_req"] * m["core.reference_us.gds1"])

    # -- serving, in process -----------------------------------------------
    ring = HashRing([f"shard-{i}" for i in range(W.N_SHARDS)])

    def ring_loop():
        owner = ring.owner
        for url, _, _ in ops:
            owner(url)

    seconds, _ = timed(ring_loop)
    m["serving.ring_owner_us"] = seconds / n * us

    def request_loop(cache):
        request = cache.request
        for url, size, doc_type in ops:
            request(url, size, doc_type)

    seconds, _ = timed(lambda: request_loop(ServedCache(c2, "gdsf(1)")))
    m["serving.served_request_us"] = seconds / n * us
    m["serving.lock_self_us"] = (m["serving.served_request_us"]
                                 - m["core.reference_us.gdsf1"])
    for tag, policy in (("gdsf1", "gdsf(1)"), ("lru", "lru")):
        seconds, _ = timed(lambda: request_loop(ShardedCache(
            c2, n_shards=W.N_SHARDS, policy=policy)))
        m[f"serving.sharded_request_us.{tag}"] = seconds / n * us

    buffer = W.payload_buffer()
    documents = list({url: (url, size, doc_type)
                      for url, size, doc_type in ops}.values())

    def put_loop():
        cache = ShardedCache(c2, n_shards=W.N_SHARDS, policy="lru")
        put = cache.put
        for url, size, doc_type in documents:
            put(url, size, doc_type, buffer[:size])
        return cache

    seconds, filled = timed(put_loop)
    m["serving.put_payload_us"] = seconds / len(documents) * us
    resident = [url for name in filled.shard_names
                for url in filled.shard(name).resident_urls()]
    absent = [f"absent/{i}" for i in range(len(resident))]

    def get_loop(urls):
        get = filled.get
        for _ in range(8):
            for url in urls:
                get(url)

    seconds, _ = timed(lambda: get_loop(resident))
    m["serving.get_hit_us"] = seconds / (8 * len(resident)) * us
    seconds, _ = timed(lambda: get_loop(absent))
    m["serving.get_miss_us"] = seconds / (8 * len(absent)) * us

    # -- serving, the codec ------------------------------------------------
    url, size, doc_type = ops[0]
    messages = {
        "small": {"op": "request", "url": url, "size": size,
                  "doc_type": doc_type.value},
        "payload": {"op": "put", "url": url, "size": FRAME_PAYLOAD_BYTES,
                    "doc_type": doc_type.value,
                    "payload": buffer[:FRAME_PAYLOAD_BYTES]
                    .decode("latin-1")}}
    for tag, message in messages.items():
        def encode_loop():
            for _ in range(CODEC_CALLS):
                encode_frame(message)

        body = encode_frame(message)[4:]

        def decode_loop():
            loads = json.loads
            for _ in range(CODEC_CALLS):
                loads(body.decode("utf-8"))

        seconds, _ = timed(encode_loop)
        m[f"serving.encode_frame_us.{tag}"] = seconds / CODEC_CALLS * us
        seconds, _ = timed(decode_loop)
        m[f"serving.decode_frame_us.{tag}"] = seconds / CODEC_CALLS * us

    # -- serving, over the socket -------------------------------------------
    per_op = {}
    speed = {}
    for tag, cls in (("request", W.ServeSocketRequest),
                     ("getput", W.ServeSocketGetPut)):
        workload = cls(inputs)
        try:
            workload.settle(workload.run_pass(NO_SPANS))     # warm-up
            latencies = []

            def one_pass():
                workload.settle(workload.run_pass(NO_SPANS))
                latencies.extend(workload.last_latencies)

            seconds, _, speed[tag] = timed_with_speed(one_pass)
            per_op[tag] = seconds / workload.ops_per_pass * us
            latencies.sort()
            m[f"serving.rtt_p50_us.{tag}"] = \
                statistics.median(latencies) * us
            m[f"serving.rtt_p99_us.{tag}"] = \
                latencies[int(0.99 * len(latencies))] * us
            m[f"serving.rtt_samples.{tag}"] = len(latencies)
            if tag == "getput":
                total = workload.server_counters()
                # A cache-aside miss is counted twice by the server:
                # once by the get, once by the put's reference.
                puts = total["misses"] / 2
                lookups = total["hits"] + puts
                m["serving.hit_ratio"] = total["hits"] / lookups
                m["serving.puts_per_lookup"] = puts / lookups
        finally:
            workload.close()
    codec = 2 * (m["serving.encode_frame_us.small"]
                 + m["serving.decode_frame_us.small"])
    # rtt_p50_us is the raw twin of latency_p50_us; every other row is
    # speed-corrected, so the subtraction uses the corrected round trip.
    corrected_rtt = m["serving.rtt_p50_us.request"] * speed["request"]
    m["serving.wire_self_us"] = (
        corrected_rtt - m["serving.sharded_request_us.lru"] - codec)

    # -- where one request's time goes, per path ---------------------------
    # Each budget lists layer self-times per op; what they leave of the
    # path's measured pass time is the unexplained share.
    def measured_us(cls, ops_in_pass) -> float:
        workload = cls(inputs)
        try:
            workload.settle(workload.run_pass(NO_SPANS))
            seconds, _ = timed(lambda: workload.settle(
                workload.run_pass(NO_SPANS)))
        finally:
            workload.close()
        return seconds / ops_in_pass * us

    heap = m["structures.heap_us_per_ref"]
    core_gd = (m["core.reference_us.gds1"]
               + m["core.reference_us.gdstar1"]) / 2
    lookups = m["network.lookups_per_req"]
    ring = m["serving.ring_owner_us"]
    core_lru = m["core.reference_us.lru"]
    budgets = {
        "sweep": {
            "unit": "us per reference x cell, sweep_gd",
            "measured_us": measured_us(W.SweepGD, 2 * n),
            "rows": [
                ["trace: open_columnar", m["trace.open_rcol_us"] / (2 * n)],
                ["simulation: run_cells driver self",
                 (m["simulation.driver_self_us_per_ref.gds1"]
                  + m["simulation.driver_self_us_per_ref.gdstar1"]) / 2],
                ["core: Cache.reference less the heap", core_gd - heap],
                ["structures: AddressableHeap", heap]]},
        "network": {
            "unit": "us per client request, network_tree",
            "measured_us": measured_us(W.NetworkTree, n),
            "rows": [
                ["trace: open_columnar", m["trace.open_rcol_us"] / n],
                ["trace: decode to Request objects",
                 m["trace.decode_us_per_req"]],
                ["network: node walk self", m["network.self_us_per_req"]],
                ["core: Cache.reference less the heap",
                 lookups * (m["core.reference_us.gds1"] - heap)],
                ["structures: AddressableHeap", lookups * heap]]},
        "serving": {
            "unit": "us per round trip, serve_socket_request",
            "measured_us": per_op["request"],
            "rows": [
                ["serving: asyncio streams, syscalls, thread hand-off",
                 m["serving.wire_self_us"]],
                ["serving: frame encode + decode, both directions", codec],
                ["serving: HashRing.owner", ring],
                ["serving: shard routing + lock self",
                 m["serving.sharded_request_us.lru"] - ring - core_lru],
                ["core: Cache.reference (lru)", core_lru]]},
    }
    for path, budget in budgets.items():
        explained = sum(value for _, value in budget["rows"])
        m[f"harness.unexplained_share.{path}"] = (
            1.0 - explained / budget["measured_us"])
    return m, budgets


def main(argv) -> int:
    seed, out_dir = argv
    pin_to_one_cpu()
    metrics, budgets = measure(int(seed), Path(out_dir))
    sys.stdout.write(json.dumps({"metrics": metrics,
                                 "budgets": budgets}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
