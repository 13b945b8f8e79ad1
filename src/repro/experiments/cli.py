"""Command-line entry point: ``python -m repro.experiments``.

Examples::

    python -m repro.experiments table2
    python -m repro.experiments fig2 --scale small --outdir results/
    python -m repro.experiments all --scale tiny

Long runs can checkpoint and resume::

    python -m repro.experiments all --scale paper \\
        --checkpoint-dir ckpt/ --max-retries 2
    # ... machine dies mid-suite; later:
    python -m repro.experiments all --scale paper \\
        --checkpoint-dir ckpt/ --resume

The analytical-model subcommand (:mod:`repro.model.cli`) answers
hit-rate questions without a simulation pass::

    python -m repro.experiments model curve --profile dfn
    python -m repro.experiments model validate --profile dfn --irm

The cache-network subcommand (:mod:`repro.network.cli`) drives
hierarchies, meshes, paths, and trees through one engine::

    python -m repro.experiments network run --profile dfn \\
        --topology tree --strategy probcache
    python -m repro.experiments network validate --profile dfn --irm

The serving subcommand (:mod:`repro.serving.cli`) runs the policies
as a live sharded cache and load-replays workloads against one::

    python -m repro.experiments serving serve --capacity 50000000
    python -m repro.experiments serving replay --profile dfn --irm \\
        --validate --max-mae 0.01
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional

from repro.experiments.cliopts import add_observability_options
from repro.experiments.config import (
    EXPERIMENT_IDS,
    SCALES,
    ExperimentSettings,
)
from repro.experiments.report import write_report
from repro.experiments.runner import run_suite
from repro.observability.logs import configure, get_logger

_logger = get_logger("experiments.cli")

#: Sub-CLIs that carry their own option surface, dispatched before the
#: experiment parser can reject their names: the analytical model
#: (predict/curve/validate), the durable experiment service (enqueue/
#: work/status/report/regress/compact/chaos), cache networks (run/
#: sweep/placement/validate) and the online cache (serve/replay).
_SUBCOMMANDS = {
    "model": "repro.model.cli",
    "service": "repro.experiments.service",
    "network": "repro.network.cli",
    "serving": "repro.serving.cli",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument(
        "experiment", choices=list(EXPERIMENT_IDS) + ["all"],
        help="experiment id, or 'all' ('model' dispatches to the "
             "analytical-model subcommand: predict/curve/validate; "
             "'service' to the durable experiment service: "
             "enqueue/work/status/report/regress/compact/chaos; "
             "'serving' to the online cache: serve/replay)")
    parser.add_argument(
        "--scale", choices=list(SCALES), default="small",
        help="workload scale (default: small)")
    parser.add_argument(
        "--outdir", default=None,
        help="directory to write report.txt/data.json/CSV artifacts")
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress report text on stdout")
    parser.add_argument(
        "--markdown", action="store_true",
        help="also write a SUMMARY.md of the batch (needs --outdir)")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the trace-generation seed (default: each "
             "profile's documented seed, for exact reproducibility)")
    fault = parser.add_argument_group("fault tolerance")
    fault.add_argument(
        "--checkpoint-dir", default=None,
        help="checkpoint each completed experiment here (atomic JSON, "
             "keyed by a config hash)")
    fault.add_argument(
        "--resume", action="store_true",
        help="load completed experiments from --checkpoint-dir instead "
             "of re-running them")
    fault.add_argument(
        "--max-retries", type=int, default=1,
        help="retries per failing experiment, and per failing sweep "
             "cell with --sweep-workers (default: 1)")
    fault.add_argument(
        "--cell-timeout", type=float, default=None,
        help="per-cell wall-clock budget in seconds for parallel sweep "
             "cells (needs --sweep-workers)")
    fault.add_argument(
        "--sweep-workers", type=int, default=0,
        help="run figure sweep grids across this many worker processes "
             "with crash recovery (default: 0 = in-process)")
    obs = add_observability_options(parser)
    obs.add_argument(
        "--trace-spans", action="store_true",
        help="emit hierarchical span events (simulate/pass phases, "
             "sweeps) into the telemetry stream; needs "
             "--telemetry-dir to land anywhere")
    obs.add_argument(
        "--progress", action="store_true",
        help="print a heartbeat/ETA line to stderr as experiments "
             "complete")
    obs.add_argument(
        "--profile", metavar="DIR", default=None,
        help="profile each experiment under cProfile and dump "
             "<experiment-id>.prof into DIR")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        module = importlib.import_module(_SUBCOMMANDS[argv[0]])
        return module.main(argv[1:])
    args = build_parser().parse_args(argv)
    configure(level=args.log_level, json_lines=args.log_json)
    if args.trace_spans:
        from repro.observability.trace import enable_tracing
        enable_tracing()
    if args.markdown and not args.outdir:
        print("--markdown requires --outdir", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print("--max-retries must be >= 0", file=sys.stderr)
        return 2
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        print("--cell-timeout must be positive", file=sys.stderr)
        return 2
    if args.sweep_workers < 0:
        print("--sweep-workers must be >= 0", file=sys.stderr)
        return 2
    ids = list(EXPERIMENT_IDS) if args.experiment == "all" \
        else [args.experiment]
    extra = {}
    if args.sweep_workers:
        extra["sweep_workers"] = args.sweep_workers
        extra["max_retries"] = args.max_retries
        if args.cell_timeout is not None:
            extra["cell_timeout"] = args.cell_timeout
    kwargs = {"extra": extra}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    settings = ExperimentSettings.for_scale(args.scale, **kwargs)

    def on_report(report, from_checkpoint, elapsed):
        # Results go to stdout; diagnostics go through the logging
        # layer on stderr so --log-json stays machine-parseable.
        if not args.quiet:
            print(report.text)
        if from_checkpoint:
            _logger.info("%s restored from checkpoint",
                         report.experiment_id,
                         extra={"experiment_id": report.experiment_id})
        else:
            _logger.info("%s completed in %.1fs",
                         report.experiment_id, elapsed,
                         extra={"experiment_id": report.experiment_id,
                                "duration_seconds": round(elapsed, 6)})
        if args.outdir:
            directory = write_report(report, args.outdir)
            _logger.info("artifacts written to %s", directory,
                         extra={"experiment_id": report.experiment_id,
                                "outdir": str(directory)})

    def on_failure(failure):
        _logger.error(
            "%s FAILED after %d attempts: %s: %s",
            failure.experiment_id, failure.attempts,
            failure.error_type, failure.message,
            extra={"experiment_id": failure.experiment_id,
                   "attempts": failure.attempts,
                   "error_type": failure.error_type})

    suite = run_suite(
        ids, scale=args.scale, settings=settings,
        checkpoint_dir=args.checkpoint_dir, resume=args.resume,
        max_retries=args.max_retries,
        telemetry_dir=args.telemetry_dir, progress=args.progress,
        profile_dir=args.profile,
        on_report=on_report, on_failure=on_failure)

    if args.markdown:
        from repro.experiments.summary import write_markdown_summary
        path = write_markdown_summary(suite.reports, args.outdir)
        _logger.info("summary written to %s", path,
                     extra={"path": str(path)})
    return 0 if suite.complete else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
