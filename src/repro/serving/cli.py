"""The ``serving`` subcommand of the experiments CLI.

Two verbs::

    python -m repro.experiments serving serve \\
        --shards 4 --policy lru --capacity 50000000 --port 7070
    python -m repro.experiments serving replay \\
        --profile dfn --profile-scale 0.0156 --irm \\
        --shards 4 --policy lru --size-fraction 0.05 \\
        --validate --max-mae 0.01 --max-model-mae 0.02 \\
        --report serving-replay.json

``serve`` runs the asyncio TCP front end until interrupted.
``replay`` fires a workload (synthetic profile or trace file) at an
in-process sharded cache, one thread per shard, and — with
``--validate`` — re-simulates every shard's substream through
:func:`repro.simulation.engine.run_cells` and the Che model, exiting
non-zero when either disagreement exceeds its tolerance.  That is the
CI ``serving`` gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.experiments.cliopts import (
    add_observability_options,
    add_workload_options,
    load_workload,
    run_verbs,
)
from repro.observability.logs import get_logger
from repro.serving.replay import (
    ReplayConfig,
    ReplayReport,
    ReplayValidation,
    replay,
    validate_replay,
)
from repro.serving.sharding import ShardedCache
from repro.simulation.sweep import cache_sizes_from_fractions

_logger = get_logger("serving.cli")

DEFAULT_SIZE_FRACTION = 0.05


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    cache = parser.add_argument_group("cache shape")
    cache.add_argument(
        "--shards", type=int, default=4,
        help="number of consistent-hash shards (default: 4)")
    cache.add_argument(
        "--policy", default="lru",
        help="replacement policy name (default: lru)")
    cache.add_argument(
        "--capacity", type=int, default=None,
        help="aggregate capacity in bytes (overrides --size-fraction)")
    cache.add_argument(
        "--size-fraction", type=float, default=DEFAULT_SIZE_FRACTION,
        help="aggregate capacity as a fraction of the workload's "
             f"unique bytes (default: {DEFAULT_SIZE_FRACTION})")
    cache.add_argument(
        "--vnodes", type=int, default=128,
        help="ring points per shard (default: 128)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments serving",
        description="Online serving: run the replacement policies as "
                    "a live sharded cache, or replay a workload "
                    "against one and validate the hit rates.")
    verbs = parser.add_subparsers(dest="verb", required=True)

    p_serve = verbs.add_parser(
        "serve", help="run the TCP cache server until interrupted")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7070,
        help="listen port (0 picks a free one; default: 7070)")
    _add_cache_options(p_serve)
    add_observability_options(p_serve)

    p_replay = verbs.add_parser(
        "replay", help="fire a workload at an in-process sharded "
                       "cache and report throughput + hit rates")
    add_workload_options(p_replay)
    _add_cache_options(p_replay)
    p_replay.add_argument(
        "--sample-every", type=int, default=16,
        help="time every Nth request for the latency histogram "
             "(default: 16)")
    p_replay.add_argument(
        "--validate", action="store_true",
        help="re-simulate each shard's substream (run_cells) and "
             "predict it (Che model); report the disagreements")
    p_replay.add_argument(
        "--max-mae", type=float, default=None,
        help="with --validate: fail (exit 1) when the per-shard "
             "replay-vs-simulation hit-rate MAE exceeds this")
    p_replay.add_argument(
        "--max-model-mae", type=float, default=None,
        help="with --validate: fail (exit 1) when the per-shard "
             "replay-vs-model hit-rate MAE exceeds this (model "
             "policies only)")
    p_replay.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of a summary")
    p_replay.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the full replay/validation report as JSON")
    add_observability_options(p_replay)
    return parser


def _capacity_for(args, trace) -> int:
    if args.capacity is not None:
        return args.capacity
    [capacity] = cache_sizes_from_fractions(trace, [args.size_fraction])
    return max(capacity, args.shards)


def _run_serve(args) -> int:
    import asyncio

    if args.capacity is None:
        raise ConfigurationError("serve requires --capacity")
    cache = ShardedCache(args.capacity, n_shards=args.shards,
                         policy=args.policy, vnodes=args.vnodes)
    from repro.serving.server import CacheServer

    async def _serve() -> None:
        server = CacheServer(cache, host=args.host, port=args.port)
        await server.start()
        print(f"serving {args.policy} x{args.shards} on "
              f"{server.host}:{server.port}", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _summary(validation: Optional[ReplayValidation],
             report: ReplayReport) -> str:
    lines = [
        f"replayed {report.requests:,} requests over "
        f"{report.n_shards} shards ({report.policy}) in "
        f"{report.duration_seconds:.2f}s — "
        f"{report.requests_per_second:,.0f} req/s",
        f"hit rate {report.hit_rate:.4f} "
        f"(latency p50 {report.latency_quantiles['p50'] * 1e6:.1f}µs "
        f"p99 {report.latency_quantiles['p99'] * 1e6:.1f}µs over "
        f"{report.latency_samples:,} samples)",
    ]
    for shard in report.per_shard:
        lines.append(f"  {shard.shard}: {shard.requests:>8,} req  "
                     f"hit {shard.hit_rate:.4f}")
    if validation is not None:
        lines.append(
            f"vs simulator: MAE {validation.sim_mae:.6f} "
            f"max {validation.sim_max_error:.6f}")
        if validation.model_mae is not None:
            lines.append(
                f"vs Che model: MAE {validation.model_mae:.4f} "
                f"max {validation.model_max_error:.4f}")
        else:
            lines.append("vs Che model: n/a (policy outside lru/"
                         "fifo/random)")
    return "\n".join(lines)


def _run_replay(args) -> int:
    trace = load_workload(args)
    config = ReplayConfig(
        capacity_bytes=_capacity_for(args, trace),
        n_shards=args.shards, policy=args.policy,
        vnodes=args.vnodes,
        latency_sample_every=args.sample_every)
    if args.validate:
        validation = validate_replay(trace, config)
        report = validation.report
        payload = validation.as_dict()
    else:
        validation = None
        report = replay(trace, config)
        payload = report.as_dict()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(_summary(validation, report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        _logger.info("replay report written to %s", args.report,
                     extra={"path": args.report})

    failed = False
    if validation is not None and args.max_mae is not None:
        if validation.sim_mae > args.max_mae:
            _logger.error(
                "replay-vs-simulation MAE %.6f exceeds %.6f",
                validation.sim_mae, args.max_mae,
                extra={"sim_mae": validation.sim_mae,
                       "tolerance": args.max_mae})
            failed = True
    if validation is not None and args.max_model_mae is not None:
        if (validation.model_mae is not None
                and validation.model_mae > args.max_model_mae):
            _logger.error(
                "replay-vs-model MAE %.4f exceeds %.4f",
                validation.model_mae, args.max_model_mae,
                extra={"model_mae": validation.model_mae,
                       "tolerance": args.max_model_mae})
            failed = True
    return 1 if failed else 0


_VERBS = {
    "serve": _run_serve,
    "replay": _run_replay,
}


def main(argv: Optional[List[str]] = None) -> int:
    return run_verbs(build_parser(), _VERBS, "serving", argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
