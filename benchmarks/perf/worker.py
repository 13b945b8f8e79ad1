"""One workload in its own process, driven pass by pass over a pipe.

Started by ``run.py`` as ``worker.py WORKLOAD SEED OUT_DIR TAG
SPAWNED_AT``.  It sets itself up (imports, trace generation, ``.rcol``
write, construction, one warm-up pass), prints a ``ready`` line, then
obeys one JSON command per stdin line, answering each with one JSON
line on stdout:

* ``{"cmd": "pass", "traced": bool}`` — ``gc.collect()``, calibrate,
  run one timed pass, calibrate, settle; acknowledges.
* ``{"cmd": "finish", "full": bool}`` — peak RSS, per-pass records,
  digest, and (``full``) the reference output checks and the opcode
  count; writes the spans it recorded; exits.

Between commands the process blocks on the pipe, so the parent can
interleave passes of several workers without them competing.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

from calib import calib, pin_to_one_cpu


def main(argv) -> int:
    name, seed, out_dir, tag, spawned_at = argv
    pin_to_one_cpu()
    # Set-up is timed in segments, a calibration after each, so a host
    # that changes speed half way through is corrected piecewise.
    setup = []
    segment_started = float(spawned_at)

    def end_segment() -> None:
        nonlocal segment_started
        work = time.time() - segment_started
        after = calib()
        before = setup[-1]["calib_after"] if setup else after
        setup.append({"calib_before": before, "work": work,
                      "calib_after": after})
        segment_started = time.time()

    end_segment()                           # interpreter start
    import workloads
    from spans import NO_SPANS, SpanRecorder
    end_segment()                           # imports
    cls = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(workloads.stable_trace(int(seed)),
                                   Path(out_dir) / f"{tag}.rcol")
    end_segment()                           # trace generation, .rcol
    workload = cls(inputs)
    warmup_failed = workload.settle(workload.run_pass(NO_SPANS))
    end_segment()                           # construction, warm-up pass

    def reply(message: dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    reply({"ready": name})
    recorder = SpanRecorder()
    passes = []
    try:
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "pass":
                traced = command["traced"]
                gc.collect()
                before = calib()
                started = perf_counter()
                if traced:
                    with recorder.span("pass"):
                        outcome = workload.run_pass(recorder)
                else:
                    outcome = workload.run_pass(NO_SPANS)
                work = perf_counter() - started
                after = calib()
                record = {"calib_before": before, "work": work,
                          "calib_after": after, "traced": traced,
                          "failed": workload.settle(outcome)}
                if workload.last_latencies:
                    record["latencies_s"] = workload.last_latencies
                passes.append(record)
                reply({"done": len(passes)})
            elif command["cmd"] == "finish":
                result = {
                    "workload": name,
                    "setup": setup,
                    "ops_per_pass": workload.ops_per_pass,
                    "warmup_failed": warmup_failed,
                    "passes": passes,
                    "peak_rss_kib": resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss,
                    "digest": workloads.digest_of(workload.results()),
                    "problems": [],
                    "bytecodes": None,
                }
                if command["full"]:
                    result["problems"] = workload.verify()
                    result["bytecodes"] = workloads.count_bytecodes(
                        cls, inputs)
                if len(recorder):
                    result["span_self_s"] = recorder.self_time_by_name()
                    spans_path = Path(out_dir) / f"spans-{tag}.json"
                    spans_path.write_text(
                        json.dumps(recorder.as_columns(name)))
                reply(result)
                return 0
            else:
                raise ValueError(f"unknown command {command!r}")
    finally:
        workload.close()
    return 1        # stdin closed without a finish: the parent died


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
