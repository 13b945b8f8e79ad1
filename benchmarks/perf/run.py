"""Perf ledger v1 — one command, every metric.

    python benchmarks/perf/run.py [--seed 42] [--workload NAME]
                                  [--seconds S] [--trace [0|1]]
                                  [--smoke] [--selfcheck [N]]

Each workload runs in its own worker process (``worker.py``); workers
set up one after another, then this parent drives them round-robin,
one short pass at a time, so a slow spell of the host is shared by all
of them.  Every pass is bracketed by the frozen calibration kernel
(``calib.py``) and its time is speed-corrected; the median of the
corrected passes is what is reported.  See ``README.md`` beside this
file for every metric, workload and the reasoning.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from calib import (CALIB_REF_S, TimedPass, correct_passes,  # noqa: E402
                   relative_iqr, speed_of)

#: Timed passes per workload when the run is not time-boxed — fixed,
#: the same on every commit; never lengthen a pass instead.
DEFAULT_PASSES = 60
SMOKE_PASSES = 4
#: A traced run alternates this many traced and untraced passes.
TRACED_PASSES = 8
#: A time-boxed run still makes this many rounds, however slow the host.
MIN_ROUNDS = 4
#: Workers per workload when one workload runs alone: set-up happens
#: this many times and its median is reported.
SETUPS_WHEN_ALONE = 3
WORKER_TIMEOUT_S = 170.0
#: Where ``bytecodes_per_op`` must repeat exactly.  The socket workloads
#: are held to the metric's bound instead: a large frame reaches the
#: reader in a timing-dependent number of chunks, and each extra chunk
#: is a few more bytecodes (1 getput run in 12 differed while sizing).
EXACT_BYTECODE_WORKLOADS = ("sweep_gd", "sweep_ladder", "network_tree",
                            "serve_inproc")


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


# ----- workers --------------------------------------------------------------


class Worker:
    """One ``worker.py`` subprocess and its command pipe."""

    def __init__(self, workload: str, seed: int, tag: str):
        self.workload = workload
        env = dict(os.environ, PYTHONHASHSEED="0")
        self._process = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload,
             str(seed), str(OUT_DIR), tag, repr(time.time())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)
        self._read()                                    # the ready line

    def _read(self) -> dict:
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"worker for {self.workload} exited with code "
                f"{self._process.wait()} (its stderr is above)")
        return json.loads(line)

    def _ask(self, command: dict) -> dict:
        self._process.stdin.write(json.dumps(command) + "\n")
        self._process.stdin.flush()
        return self._read()

    def run_pass(self, traced: bool) -> None:
        self._ask({"cmd": "pass", "traced": traced})

    def finish(self, full: bool) -> dict:
        result = self._ask({"cmd": "finish", "full": full})
        self._process.stdin.close()
        self._process.wait(WORKER_TIMEOUT_S)
        return result

    def kill(self) -> None:
        if self._process.poll() is None:
            self._process.kill()
        self._process.wait()
        for pipe in (self._process.stdin, self._process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


def run_layers(seed: int) -> dict:
    """``{"metrics": ..., "budgets": ...}`` from ``layers.py``."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "layers.py"), str(seed),
         str(OUT_DIR)],
        stdout=subprocess.PIPE, env=dict(os.environ, PYTHONHASHSEED="0"),
        text=True, timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(completed.stdout.splitlines()[-1])


# ----- one run --------------------------------------------------------------


def run_once(names: Sequence[str], seed: int, *, passes: int,
             seconds: Optional[float], traced: bool):
    """Set up, drive and finish one worker set.  Returns ``{workload:
    report}`` and, for a traced run, the layer replays' output.

    ``seconds`` time-boxes the measuring loop (the driver's mode);
    otherwise every worker makes ``passes`` timed passes.
    """
    OUT_DIR.mkdir(exist_ok=True)
    copies = SETUPS_WHEN_ALONE if len(names) == 1 and not traced else 1
    workers: List[Worker] = []
    try:
        for name in names:
            for copy in range(copies):
                workers.append(Worker(name, seed, f"{name}-{copy}"))
        started = time.perf_counter()
        rounds = 0
        while True:
            for worker in workers:
                if traced:
                    worker.run_pass(True)
                worker.run_pass(False)
            rounds += 1
            if seconds is None:
                if rounds >= passes:
                    break
            elif (rounds >= MIN_ROUNDS
                  and time.perf_counter() - started >= seconds):
                break
        results: Dict[str, List[dict]] = {name: [] for name in names}
        for worker in workers:
            first = not results[worker.workload]
            results[worker.workload].append(
                worker.finish(full=first and not traced))
    finally:
        for worker in workers:
            worker.kill()
    layers = run_layers(seed) if traced else None
    expected = load_expected()
    pinned = expected["digests"] if seed == expected["seed"] else {}
    return {name: summarise(name, results[name], pinned.get(name))
            for name in names}, layers


def _timed(record: dict) -> TimedPass:
    return TimedPass(record["calib_before"], record["work"],
                     record["calib_after"])


def summarise(name: str, results: List[dict],
              pinned: Optional[str]) -> dict:
    """Fold one workload's worker results into its report."""
    ops = results[0]["ops_per_pass"]
    records = [r for result in results for r in result["passes"]]
    plain = [r for r in records if not r["traced"]]
    corrected = correct_passes([_timed(r) for r in plain])
    ops_per_s = ops / corrected.median_s

    if "latencies_s" in plain[0]:
        # Every op's round trip, scaled by its pass's speed, pooled.
        latency_us = statistics.median(
            latency * speed
            for i, speed in zip(corrected.kept, corrected.speeds)
            for latency in plain[i]["latencies_s"]) * 1e6
        raw = sorted(latency for r in plain for latency in r["latencies_s"])
        p99_us = raw[int(0.99 * len(raw))] * 1e6
        latency_samples = len(raw)
        for record in records:
            del record["latencies_s"]       # keep the run file small
    else:
        latency_us = corrected.median_s / ops * 1e6
        p99_us, latency_samples = None, 0

    setups = [sum(segment["work"] * speed_of(_timed(segment))
                  for segment in result["setup"]) for result in results]

    problems = [p for result in results for p in result["problems"]]
    digests = {result["digest"] for result in results}
    digest = results[0]["digest"]
    if len(digests) > 1:
        problems.append(f"workers disagree on the digest: {sorted(digests)}")
    if pinned is not None and digest != pinned:
        problems.append(f"result_digest {digest} is not the pinned {pinned}")
    attempted = sum((len(result["passes"]) + 1) * ops for result in results)
    failed = sum(result["warmup_failed"]
                 + sum(r["failed"] for r in result["passes"])
                 for result in results)
    if problems:
        failed = attempted

    bytecodes = next((result["bytecodes"] for result in results
                      if result["bytecodes"]), None)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s,
        "latency_p50_us": latency_us,
        "peak_rss_mb": statistics.median(
            result["peak_rss_kib"] for result in results) / 1024.0,
    }
    if bytecodes is not None:
        end_to_end["bytecodes_per_op"] = bytecodes[0] / bytecodes[1]

    work = sum(r["work"] for r in records)
    calibrating = sum(r["calib_before"] + r["calib_after"]
                      for r in records)
    harness = {
        "harness.raw_ops_per_s": ops / corrected.raw_median_s,
        "harness.speed_factor_p50": statistics.median(corrected.speeds),
        "harness.speed_factor_iqr": relative_iqr(corrected.speeds),
        "harness.discarded_pass_share": corrected.discarded_share,
        "harness.calib_share": calibrating / (calibrating + work),
    }
    with_spans = [r for r in records if r["traced"]]
    if with_spans:
        traced_ops_per_s = ops / correct_passes(
            [_timed(r) for r in with_spans]).median_s
        harness["harness.trace_overhead_share"] = \
            1.0 - traced_ops_per_s / ops_per_s
    return {
        "workload": name, "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed, "digest": digest,
        "passes": len(plain), "latency_samples": latency_samples,
        "p99_us": p99_us,
        "end_to_end": end_to_end, "harness": harness,
        "span_self_s": results[0].get("span_self_s"),
        "workers": results,
    }


# ----- reporting ------------------------------------------------------------


def fingerprint() -> dict:
    try:
        git_hash = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        git_hash = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {"git_hash": git_hash, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


def units(spec: dict) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def print_report(reports: Dict[str, dict], layers: Optional[dict],
                 spec: dict, usable: bool) -> None:
    unit = units(spec)
    if not usable:
        print("# SMOKE RUN: too few passes — these numbers are unusable")
    for name, report in reports.items():
        print(f"\n== {name}: {report['passes']} passes, "
              f"{report['attempted']} ops attempted, "
              f"{report['failed']} failed, "
              f"result_digest {report['digest']}")
        for problem in report["problems"]:
            print(f"   CHECK FAILED: {problem}")
        for metric, value in report["end_to_end"].items():
            print(f"   {metric:<44} {value:>16.6g} {unit[metric]}")
        if report["p99_us"] is not None:
            print(f"   {'latency_p99_us (raw, does not repeat)':<44} "
                  f"{report['p99_us']:>16.6g} us   "
                  f"[{report['latency_samples']} samples]")
        for metric, value in report["harness"].items():
            print(f"   {metric:<44} {value:>16.6g} {unit[metric]}")
        for span, seconds in (report["span_self_s"] or {}).items():
            print(f"   span self time: {span:<28} {seconds:>16.6g} s")
    if layers is not None:
        print("\n== layers (replays of the same reference sequence)")
        for metric, value in layers["metrics"].items():
            print(f"   {metric:<44} {value:>16.6g} {unit[metric]}")
        for path, budget in layers["budgets"].items():
            measured = budget["measured_us"]
            print(f"\n== where one request's time goes: {path} "
                  f"({budget['unit']}; measured {measured:.3f})")
            for label, value in budget["rows"]:
                print(f"   {label:<52} {value:>9.3f} {value / measured:>7.1%}")
            left = measured - sum(value for _, value in budget["rows"])
            print(f"   {'unexplained':<52} {left:>9.3f} "
                  f"{left / measured:>7.1%}")


def final_line(reports: Dict[str, dict], layers: Optional[dict],
               spec: dict) -> dict:
    """The contract's result object.  One workload: its metrics by
    their declared names; several (the human mode): ``metric@workload``.
    """
    unit = units(spec)
    metrics = {}
    for name, report in reports.items():
        values = dict(report["end_to_end"])
        if layers is not None:
            values = dict(layers["metrics"], **report["harness"])
        for metric, value in values.items():
            key = metric if len(reports) == 1 else f"{metric}@{name}"
            metrics[key] = {"value": value, "unit": unit[metric]}
    return {
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }


# ----- selfcheck ------------------------------------------------------------


def selfcheck(names: Sequence[str], seed: int, repeats: int, passes: int,
              spec: dict) -> int:
    """Two sets of ``repeats`` full runs of this same tree, run
    alternately; their medians must agree within each metric's bound,
    and every digest, and ``bytecodes_per_op`` on the in-process
    workloads, must be identical across all runs."""
    sets: List[List[Dict[str, dict]]] = [[], []]
    for index in range(2 * repeats):
        print(f"# selfcheck run {index + 1}/{2 * repeats}", flush=True)
        sets[index % 2].append(run_once(
            names, seed, passes=passes, seconds=None, traced=False)[0])
    bad = 0
    print(f"\n{'workload':<22}{'metric':<18}{'median A':>14}"
          f"{'median B':>14}{'diff':>9}{'bound':>8}")
    for name in names:
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a, b = (statistics.median(run[name]["end_to_end"][key]
                                      for run in runs) for runs in sets)
            diff = abs(b - a) / a
            exact = (key == "bytecodes_per_op"
                     and name in EXACT_BYTECODE_WORKLOADS)
            values = {run[name]["end_to_end"][key]
                      for runs in sets for run in runs}
            ok = len(values) == 1 if exact else diff <= metric["bound"]
            bad += not ok
            print(f"{name:<22}{key:<18}{a:>14.6g}{b:>14.6g}"
                  f"{diff:>9.2%}{metric['bound']:>8.0%}"
                  f"{'' if ok else '  <-- FAIL'}")
        digests = {run[name]["digest"] for runs in sets for run in runs}
        incorrect = sum(not run[name]["correct"]
                        for runs in sets for run in runs)
        if len(digests) > 1 or incorrect:
            bad += 1
            print(f"{name:<22}digest/correctness differ  <-- FAIL")
    print("\nselfcheck", "FAILED" if bad else "passed")
    return 1 if bad else 0


# ----- entry point ----------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", choices=known,
                        help="one workload (default: all six)")
    parser.add_argument("--seconds", type=float,
                        help="time-box the measuring loop instead of "
                             f"making {DEFAULT_PASSES} passes")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer (traced) run")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_PASSES} passes per workload: every "
                             "code path and check, unusable numbers")
    parser.add_argument("--selfcheck", type=int, nargs="?", const=3,
                        help="two alternating sets of N full runs must "
                             "agree within the bounds")
    args = parser.parse_args(argv)

    if not (REPO_ROOT / "src" / "repro").is_dir():
        print("no src/repro beside the benchmark: nothing to measure",
              file=sys.stderr)
        return 2
    # The one build step: byte-compile up front so the first worker's
    # setup_s does not pay for it.
    compileall.compile_dir(str(REPO_ROOT / "src" / "repro"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    names = [args.workload] if args.workload else known
    traced = bool(args.trace)
    passes = (SMOKE_PASSES if args.smoke
              else TRACED_PASSES if traced else DEFAULT_PASSES)
    if args.selfcheck is not None:
        return selfcheck(names, args.seed, args.selfcheck, passes, spec)

    stamp = dict(fingerprint(), seed=args.seed, traced=traced,
                 calib_ref_s=CALIB_REF_S)
    print("# " + json.dumps(stamp))
    reports, layers = run_once(names, args.seed, passes=passes,
                               seconds=None if traced or args.smoke
                               else args.seconds, traced=traced)
    print_report(reports, layers, spec, usable=not args.smoke)
    (OUT_DIR / f"run-{'traced' if traced else 'plain'}.json").write_text(
        json.dumps({"stamp": stamp, "reports": reports, "layers": layers}))
    print(json.dumps(final_line(reports, layers, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
