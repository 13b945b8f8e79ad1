"""What the ``model``, ``network`` and ``serving`` sub-CLIs share.

Each of them describes a workload the same way — exactly one of
``--trace PATH`` or ``--profile NAME`` (scaled, seeded, optionally
under the Independent Reference Model) — carries the same
observability flags, and wraps its verbs in the same scaffold: logs
configured, an optional :class:`~repro.observability.manifest.
TelemetryRun` of kind ``"<cli>-<verb>"`` opened and finalized, and a
:class:`~repro.errors.ReproError` turned into exit code 2.  Options
that genuinely differ per CLI stay in that CLI.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Mapping, Optional

from repro.errors import ConfigurationError, ReproError
from repro.observability.logs import LOG_LEVELS, configure
from repro.observability.manifest import TelemetryRun

PROFILE_NAMES = ("dfn", "rtp", "future", "uniform")
DEFAULT_PROFILE_SCALE = 1.0 / 256.0


def add_workload_options(parser: argparse.ArgumentParser) -> None:
    source = parser.add_argument_group("workload source")
    source.add_argument(
        "--trace", default=None, metavar="PATH",
        help="take the workload from this trace file "
             "(squid/clf/csv/.rcol, .gz ok)")
    source.add_argument(
        "--profile", choices=PROFILE_NAMES, default=None,
        help="take it from a named synthetic workload profile instead")
    source.add_argument(
        "--profile-scale", type=float, default=DEFAULT_PROFILE_SCALE,
        help="profile scale factor (default: 1/256)")
    source.add_argument(
        "--seed", type=int, default=None,
        help="override the profile's seed (network verbs also seed "
             "the placement strategy and per-node policies with it)")
    source.add_argument(
        "--irm", action="store_true",
        help="generate the profile's trace under the Independent "
             "Reference Model (the regime the Che and tandem "
             "approximations assume)")


def add_observability_options(parser: argparse.ArgumentParser):
    """Add the shared flags; returns their group so a CLI can put its
    own observability flags beside them."""
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--log-level", choices=list(LOG_LEVELS), default="info",
        help="diagnostic verbosity on stderr (default: info)")
    obs.add_argument(
        "--log-json", action="store_true",
        help="emit diagnostics as JSON lines")
    obs.add_argument(
        "--telemetry-dir", default=None,
        help="write manifest.json + events.jsonl here")
    return obs


def from_trace_file(args) -> bool:
    """Whether the workload is ``--trace`` (else it is ``--profile``);
    naming neither or both is refused."""
    if (args.trace is None) == (args.profile is None):
        raise ConfigurationError(
            "exactly one of --trace or --profile is required")
    return args.trace is not None


def load_profile(args):
    """The ``--profile`` at ``--profile-scale`` and ``--seed``."""
    from repro.workload.profiles import profile_by_name, uniform_profile

    if args.profile == "uniform":
        profile = uniform_profile(
            seed=args.seed if args.seed is not None else 7)
        if args.profile_scale != DEFAULT_PROFILE_SCALE:
            profile = profile.scaled(
                args.profile_scale / DEFAULT_PROFILE_SCALE)
        return profile
    return profile_by_name(args.profile, scale=args.profile_scale,
                           seed=args.seed)


def load_workload(args):
    """The trace the workload options describe: the file's columns
    (:func:`~repro.trace.columnar.columns_of`), or a trace generated
    from the profile."""
    if from_trace_file(args):
        from repro.trace.columnar import columns_of

        return columns_of(args.trace)
    from repro.workload.generator import generate_trace

    return generate_trace(load_profile(args),
                          temporal_model="irm" if args.irm else "gaps")


def split_list(text: str, flag: str, cast: Callable = str) -> list:
    """The comma-separated values given to ``flag``, each through
    ``cast``; at least one."""
    try:
        values = [cast(part.strip()) for part in text.split(",")
                  if part.strip()]
    except ValueError as error:
        raise ConfigurationError(f"{flag}: {error}") from None
    if not values:
        raise ConfigurationError(f"{flag} lists no values")
    return values


def run_verbs(parser: argparse.ArgumentParser,
              verbs: Mapping[str, Callable[[argparse.Namespace], int]],
              kind: str, argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` and run the chosen verb; returns its exit code."""
    args = parser.parse_args(argv)
    configure(level=args.log_level, json_lines=args.log_json)
    settings = {key: value for key, value in sorted(vars(args).items())
                if key not in ("log_level", "log_json",
                               "telemetry_dir") and value is not None}
    run = None
    if args.telemetry_dir:
        run = TelemetryRun(args.telemetry_dir,
                           kind=f"{kind}-{args.verb}",
                           settings=settings)
    try:
        code = verbs[args.verb](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        code = 2
    except Exception:
        if run is not None:
            run.finalize("failed")
        raise
    if run is not None:
        run.finalize("complete" if code == 0 else "failed")
    return code
