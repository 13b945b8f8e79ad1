"""Command-line trace tools: ``python -m repro.trace``.

Subcommands::

    convert       any trace format -> canonical CSV or columnar
    inspect       O(1) header summary of a columnar trace
    characterize  Section-2 style tables for any trace file
    stats         one-line summary (requests, documents, bytes)
    generate      write a synthetic dfn-like / rtp-like trace

Examples::

    python -m repro.trace convert access.log trace.csv.gz
    python -m repro.trace convert trace.csv.gz trace.rcol
    python -m repro.trace inspect trace.rcol
    python -m repro.trace characterize trace.csv.gz
    python -m repro.trace generate dfn --scale 0.001 -o small.rcol
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.characterize import characterize
from repro.analysis.tables import (
    render_breakdown_table,
    render_properties_table,
    render_statistics_table,
)
from repro.experiments.cliopts import add_observability_options, run_verbs
from repro.observability.logs import get_logger
from repro.trace.pipeline import load_trace
from repro.trace.writer import write_trace
from repro.workload.generator import generate_trace
from repro.workload.profiles import profile_by_name

_logger = get_logger("trace.cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace", description="Proxy trace tools.")
    commands = parser.add_subparsers(dest="verb", required=True)

    convert = commands.add_parser(
        "convert", help="any trace -> canonical CSV or columnar")
    convert.add_argument("source",
                         help="input trace (squid/clf/csv/columnar)")
    convert.add_argument("target",
                         help="output path (.gz ok, .rcol = columnar)")
    convert.add_argument("--format", dest="fmt", default=None,
                         choices=["squid", "clf", "csv", "columnar"],
                         help="input format (default: auto-detect)")
    convert.add_argument("--to", dest="to", default=None,
                         choices=["csv", "columnar"],
                         help="output format (default: from the "
                              "target suffix)")

    inspect = commands.add_parser(
        "inspect", help="O(1) header summary of a columnar trace")
    inspect.add_argument("source", help="columnar (.rcol) trace")
    inspect.add_argument("--json", action="store_true",
                         help="emit the summary as JSON")

    character = commands.add_parser(
        "characterize", help="print Table 1-5 style statistics")
    character.add_argument("source")
    character.add_argument("--format", dest="fmt", default=None,
                           choices=["squid", "clf", "csv", "columnar"])
    character.add_argument("--no-locality", action="store_true",
                           help="skip the (slower) alpha/beta fits")

    stats = commands.add_parser("stats", help="one-line trace summary")
    stats.add_argument("source")
    stats.add_argument("--format", dest="fmt", default=None,
                       choices=["squid", "clf", "csv", "columnar"])

    generate = commands.add_parser(
        "generate", help="write a synthetic trace")
    generate.add_argument("profile", choices=["dfn", "rtp"])
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--scale", type=float, default=1.0 / 512.0,
                          help="fraction of the real trace volume "
                               "(default 1/512)")
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--irm", action="store_true",
                          help="independent reference model placement")
    generate.add_argument("--trace-format", dest="trace_format",
                          default=None, choices=["csv", "columnar"],
                          help="output format (default: from the "
                               "output suffix, .rcol = columnar)")

    validate = commands.add_parser(
        "validate", help="sanity-check a trace, report findings")
    validate.add_argument("source")
    validate.add_argument("--format", dest="fmt", default=None,
                          choices=["squid", "clf", "csv", "columnar"])

    twin = commands.add_parser(
        "twin", help="fit a profile to a trace and write a synthetic "
                     "twin with the same statistics")
    twin.add_argument("source", help="trace to model (any format)")
    twin.add_argument("-o", "--output", required=True,
                      help="output CSV path for the twin")
    twin.add_argument("--format", dest="fmt", default=None,
                      choices=["squid", "clf", "csv", "columnar"])
    twin.add_argument("--scale", type=float, default=1.0,
                      help="twin volume relative to the source "
                           "(default 1.0)")
    twin.add_argument("--seed", type=int, default=42)
    for verb in commands.choices.values():
        add_observability_options(verb)
    return parser


def _target_format(explicit, path) -> str:
    from pathlib import Path

    from repro.trace.columnar import COLUMNAR_SUFFIX

    if explicit:
        return explicit
    return ("columnar" if Path(path).suffix == COLUMNAR_SUFFIX
            else "csv")


def _cmd_convert(args) -> int:
    to = _target_format(args.to, args.target)
    if to == "columnar":
        from repro.trace.columnar import (convert_to_columnar,
                                          read_header)

        dest = convert_to_columnar(args.source, args.target,
                                   fmt=args.fmt)
        count = read_header(dest).n_records
    else:
        trace = load_trace(args.source, fmt=args.fmt)
        count = write_trace(args.target, trace)
    _logger.info("wrote %s requests to %s", f"{count:,}", args.target,
                 extra={"requests": count, "target": str(args.target),
                        "format": to})
    return 0


def _cmd_inspect(args) -> int:
    import json as json_module

    from repro.trace.columnar import (ColumnarFormatError,
                                      inspect_columnar,
                                      is_columnar_file)

    if not is_columnar_file(args.source):
        print(f"{args.source}: not a columnar trace "
              f"(use `stats` for text formats)", file=sys.stderr)
        return 1
    try:
        summary = inspect_columnar(args.source)
    except ColumnarFormatError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.json:
        print(json_module.dumps(summary, indent=2))
        return 0
    print(f"{summary['name']}: columnar v{summary['format_version']}, "
          f"{summary['requests']:,} requests, "
          f"{summary['distinct_documents']:,} documents, "
          f"{summary['total_size_bytes'] / 1e9:.3f} GB distinct, "
          f"{summary['requested_bytes'] / 1e9:.3f} GB requested")
    for doc_type, row in summary["types"].items():
        print(f"  {doc_type:<12} {row['requests']:>10,} requests  "
              f"{row['requested_bytes'] / 1e6:>12,.1f} MB")
    return 0


def _cmd_characterize(args) -> int:
    trace = load_trace(args.source, fmt=args.fmt)
    char = characterize(trace,
                        estimate_locality=not args.no_locality)
    print(render_properties_table({trace.name: char},
                                  title="Trace properties"))
    print()
    print(render_breakdown_table(char,
                                 title="Breakdown by document type"))
    print()
    print(render_statistics_table(char,
                                  title="Sizes and temporal locality"))
    return 0


def _cmd_stats(args) -> int:
    from repro.trace.columnar import is_columnar_file, open_columnar

    if args.fmt in (None, "columnar") and is_columnar_file(args.source):
        # Columnar headers carry the aggregates: no decode needed.
        with open_columnar(args.source, verify=False) as trace:
            meta = trace.metadata()
    else:
        trace = load_trace(args.source, fmt=args.fmt)
        meta = trace.metadata()
    print(f"{trace.name}: {meta.total_requests:,} requests, "
          f"{meta.distinct_documents:,} documents, "
          f"{meta.total_size_gb:.3f} GB distinct, "
          f"{meta.requested_gb:.3f} GB requested")
    return 0


def _cmd_generate(args) -> int:
    profile = profile_by_name(args.profile, scale=args.scale,
                              seed=args.seed)
    trace = generate_trace(profile,
                           temporal_model="irm" if args.irm else "gaps")
    if _target_format(args.trace_format, args.output) == "columnar":
        from repro.trace.columnar import write_columnar

        count = write_columnar(args.output, trace.requests,
                               name=trace.name)
    else:
        count = write_trace(args.output, trace)
    _logger.info("wrote %s %s requests to %s", f"{count:,}",
                 profile.name, args.output,
                 extra={"requests": count, "profile": profile.name,
                        "target": str(args.output)})
    return 0


def _cmd_twin(args) -> int:
    from repro.workload.fitting import fidelity_report, fit_profile

    original = load_trace(args.source, fmt=args.fmt)
    profile = fit_profile(original, seed=args.seed)
    if args.scale != 1.0:
        profile = profile.scaled(args.scale)
    twin = generate_trace(profile)
    count = write_trace(args.output, twin)
    _logger.info("wrote %s-request synthetic twin of %s to %s",
                 f"{count:,}", args.source, args.output,
                 extra={"requests": count, "source": str(args.source),
                        "target": str(args.output)})
    if args.scale == 1.0:
        report = fidelity_report(original, twin)
        print("fidelity (max per-type deviation, percentage points): "
              f"documents {report['distinct_documents_max_dev']:.2f}, "
              f"requests {report['total_requests_max_dev']:.2f}, "
              f"bytes {report['requested_data_max_dev']:.2f}")
    return 0


def _cmd_validate(args) -> int:
    from repro.trace.validation import (
        Severity, render_findings, validate_trace)

    trace = load_trace(args.source, fmt=args.fmt)
    findings = validate_trace(trace)
    print(render_findings(findings))
    has_errors = any(f.severity is Severity.ERROR for f in findings)
    return 1 if has_errors else 0


_COMMANDS = {
    "convert": _cmd_convert,
    "inspect": _cmd_inspect,
    "characterize": _cmd_characterize,
    "stats": _cmd_stats,
    "generate": _cmd_generate,
    "twin": _cmd_twin,
    "validate": _cmd_validate,
}


def main(argv: Optional[List[str]] = None) -> int:
    return run_verbs(build_parser(), _COMMANDS, "trace", argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
