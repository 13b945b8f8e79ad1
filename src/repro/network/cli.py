"""The ``network`` subcommand of the experiments CLI.

Four verbs over the general cache-network engine::

    python -m repro.experiments network run \\
        --profile dfn --topology tree --strategy probcache
    python -m repro.experiments network sweep \\
        --profile dfn --topologies two-level,mesh --policies lru,gds(1)
    python -m repro.experiments network placement \\
        --profile dfn --topology two-level --strategy lcd
    python -m repro.experiments network validate \\
        --profile dfn --irm --max-mae 0.03

Workload sources are the ones every sub-CLI shares
(:mod:`repro.experiments.cliopts`): ``--trace PATH`` opens a trace
file's columns (an ``.rcol`` mmap'd), ``--profile NAME`` generates
a synthetic trace from a named workload profile.

``validate`` scores the analytical two-level tandem predictor
(:func:`repro.model.che.hierarchy_predict`) against the network
engine and exits non-zero when the combined-hit-rate mean absolute
error exceeds ``--max-mae`` — that is the CI ``network`` gate.
A durable topology × strategy × policy grid is the experiment
service's business: ``service enqueue --topologies ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.experiments.cliopts import (add_observability_options,
                                       add_workload_options,
                                       load_workload, run_verbs,
                                       split_list)
from repro.network.engine import (NetworkConfig, NetworkResult,
                                  run_network, run_network_cells)
from repro.network.strategies import STRATEGY_NAMES, make_strategy
from repro.network.topology import TOPOLOGY_KINDS, build_topology
from repro.observability.logs import get_logger
from repro.types import DOCUMENT_TYPES

_logger = get_logger("network.cli")

DEFAULT_SIZE_FRACTION = 0.02
#: Measured combined-hit-rate MAE of the tandem predictor on the
#: deterministic IRM dfn trace is ~0.025 across capacity pairs; 0.03
#: is the documented bound the CI job gates on.
DEFAULT_MAX_MAE = 0.03


def _add_cell_options(parser: argparse.ArgumentParser) -> None:
    cell = parser.add_argument_group("network cell")
    cell.add_argument(
        "--topology", choices=TOPOLOGY_KINDS, default="two-level",
        help="network shape (default: two-level)")
    cell.add_argument(
        "--strategy", choices=STRATEGY_NAMES, default="lce",
        help="placement strategy (default: lce)")
    cell.add_argument(
        "--policy", default="lru",
        help="replacement policy at every node (default: lru)")
    cell.add_argument(
        "--size-fraction", type=float, default=DEFAULT_SIZE_FRACTION,
        help="aggregate cache budget as a fraction of the trace's "
             "distinct bytes, split uniformly across nodes "
             f"(default: {DEFAULT_SIZE_FRACTION})")
    cell.add_argument(
        "--capacity", type=int, default=None,
        help="aggregate cache budget in bytes (overrides "
             "--size-fraction)")
    cell.add_argument(
        "--n", type=int, default=4,
        help="shape parameter: children (two-level), proxies (mesh), "
             "chain length (path), depth (tree); ignored for "
             "'single' (default: 4)")


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--warmup", type=float, default=0.10,
        help="warm-up fraction excluded from measurement "
             "(default: 0.10)")
    parser.add_argument(
        "--latency", action="store_true",
        help="also run the per-link latency model and report mean "
             "latency + speedup over an always-origin baseline")
    parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of a table")
    add_observability_options(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments network",
        description="Cache networks: one engine for single caches, "
                    "hierarchies, meshes, paths, and trees.")
    verbs = parser.add_subparsers(dest="verb", required=True)

    p_run = verbs.add_parser(
        "run", help="one network cell: per-node and network-wide "
                    "hit/byte-hit rates")
    _add_cell_options(p_run)
    add_workload_options(p_run)
    _add_common_options(p_run)

    p_sweep = verbs.add_parser(
        "sweep", help="a topology x strategy x policy grid over one "
                      "trace, shared-pass where eligible")
    p_sweep.add_argument(
        "--topologies", default="two-level,mesh",
        help="comma-separated topology kinds (default: "
             "two-level,mesh)")
    p_sweep.add_argument(
        "--strategies", default="lce",
        help="comma-separated placement strategies (default: lce)")
    p_sweep.add_argument(
        "--policies", default="lru",
        help="comma-separated replacement policies (default: lru)")
    p_sweep.add_argument(
        "--size-fraction", type=float, default=DEFAULT_SIZE_FRACTION,
        help="aggregate budget fraction per cell "
             f"(default: {DEFAULT_SIZE_FRACTION})")
    p_sweep.add_argument(
        "--n", type=int, default=4,
        help="shape parameter passed to every topology (default: 4)")
    add_workload_options(p_sweep)
    _add_common_options(p_sweep)

    p_place = verbs.add_parser(
        "placement", help="per-type byte-share-by-level report: "
                          "which levels each document type's "
                          "resident bytes end up at")
    _add_cell_options(p_place)
    add_workload_options(p_place)
    _add_common_options(p_place)

    p_validate = verbs.add_parser(
        "validate", help="score the two-level tandem predictor "
                         "against the network engine")
    p_validate.add_argument(
        "--policies", default="lru",
        help="comma-separated model policies (default: lru)")
    p_validate.add_argument(
        "--n-children", type=int, default=3,
        help="children in the simulated hierarchy (default: 3; the "
             "tandem model is per-child-count agnostic under IRM)")
    p_validate.add_argument(
        "--max-mae", type=float, default=None,
        help="fail (exit 1) when the combined-hit-rate mean "
             "absolute error exceeds this tolerance (CI uses "
             f"{DEFAULT_MAX_MAE})")
    p_validate.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the full structured error report as JSON")
    add_workload_options(p_validate)
    _add_common_options(p_validate)

    return parser


def _resolve_capacity(args, trace) -> int:
    if getattr(args, "capacity", None) is not None:
        if args.capacity <= 0:
            raise ConfigurationError("--capacity must be positive")
        return args.capacity
    from repro.simulation.sweep import cache_sizes_from_fractions

    return cache_sizes_from_fractions(trace, [args.size_fraction])[0]


def _build_config(args, capacity: int, *, topology: str,
                  strategy: str, policy: str) -> NetworkConfig:
    seed = args.seed if args.seed is not None else 0
    return NetworkConfig(
        topology=build_topology(topology, capacity, n=args.n,
                                policy=policy),
        strategy=make_strategy(strategy, seed=seed),
        warmup_fraction=args.warmup,
        measure_latency=args.latency,
        policy_seed=args.seed)


def _format_result_table(result: NetworkResult) -> str:
    topology = result.config.topology
    lines = [
        f"{topology.name} ({result.config.strategy_name}) on "
        f"{result.trace_name}: {result.total_requests:,} requests, "
        f"{result.warmup_requests:,} warm-up",
        f"{'node':<10} {'lvl':>3} {'capacity':>14} {'policy':<10} "
        f"{'hit rate':>9} {'byte hr':>9} {'occupancy':>9}",
    ]
    for name, node in result.nodes.items():
        lines.append(
            f"{name:<10} {node.level:>3} {node.capacity_bytes:>14,} "
            f"{node.policy:<10} {node.metrics.overall.hit_rate:>9.4f} "
            f"{node.metrics.overall.byte_hit_rate:>9.4f} "
            f"{node.occupancy:>9.4f}")
    lines.append(
        f"network hit rate {result.hit_rate:.4f}  byte hit rate "
        f"{result.byte_hit_rate:.4f}  origin byte rate "
        f"{result.origin_byte_rate:.4f}")
    if result.sibling_serves:
        lines.append(f"sibling serves {result.sibling_serves:,}")
    for doc_type in DOCUMENT_TYPES:
        lines.append(
            f"  · {doc_type.value:<18} "
            f"{result.network.hit_rate(doc_type):>9.4f} "
            f"{result.network.byte_hit_rate(doc_type):>9.4f}")
    if result.latency is not None:
        lines.append(
            f"mean latency {result.latency.mean_latency() * 1e3:.2f} ms"
            f"  (origin-only baseline "
            f"{result.latency.baseline.mean * 1e3:.2f} ms, speedup "
            f"{result.latency.speedup:.2f}x)")
    return "\n".join(lines)


def _run_run(args) -> int:
    trace = load_workload(args)
    capacity = _resolve_capacity(args, trace)
    config = _build_config(args, capacity, topology=args.topology,
                           strategy=args.strategy, policy=args.policy)
    result = run_network(trace, config)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(_format_result_table(result))
    return 0


def _run_sweep(args) -> int:
    topologies = split_list(args.topologies, "--topologies")
    strategies = split_list(args.strategies, "--strategies")
    policies = split_list(args.policies, "--policies")
    for kind in topologies:
        if kind not in TOPOLOGY_KINDS:
            raise ConfigurationError(
                f"unknown topology {kind!r}; known: "
                + ", ".join(TOPOLOGY_KINDS))
    trace = load_workload(args)
    args.capacity = None
    capacity = _resolve_capacity(args, trace)
    cells = [(kind, strategy, policy)
             for kind in topologies
             for strategy in strategies
             for policy in policies]
    configs = [_build_config(args, capacity, topology=kind,
                             strategy=strategy, policy=policy)
               for kind, strategy, policy in cells]
    results = run_network_cells(trace, configs)
    if args.json:
        print(json.dumps([
            {"topology": kind, "strategy": strategy, "policy": policy,
             **result.as_dict()}
            for (kind, strategy, policy), result in zip(cells, results)
        ], indent=2))
        return 0
    lines = [
        f"{'topology':<10} {'strategy':<10} {'policy':<10} "
        f"{'hit rate':>9} {'byte hr':>9} {'edge hr':>9} "
        f"{'siblings':>9}",
    ]
    for (kind, strategy, policy), result in zip(cells, results):
        edge = result.edge_metrics()
        lines.append(
            f"{kind:<10} {strategy:<10} {policy:<10} "
            f"{result.hit_rate:>9.4f} {result.byte_hit_rate:>9.4f} "
            f"{edge.overall.hit_rate:>9.4f} "
            f"{result.sibling_serves:>9,}")
    print("\n".join(lines))
    return 0


def _run_placement(args) -> int:
    trace = load_workload(args)
    capacity = _resolve_capacity(args, trace)
    config = _build_config(args, capacity, topology=args.topology,
                           strategy=args.strategy, policy=args.policy)
    result = run_network(trace, config)
    shares = result.placement_shares()
    levels = sorted(result.level_metrics())
    if args.json:
        print(json.dumps({
            "topology": args.topology,
            "strategy": args.strategy,
            "policy": args.policy,
            "trace_name": result.trace_name,
            "placement_shares": {
                doc_type.value: {str(level): share
                                 for level, share in by_level.items()}
                for doc_type, by_level in shares.items()},
        }, indent=2))
        return 0
    header = f"{'type':<18}" + "".join(
        f" {'level ' + str(level):>9}" for level in levels)
    lines = [
        f"resident-byte share by level — {args.topology} / "
        f"{args.strategy} / {args.policy} on {result.trace_name}",
        header,
    ]
    for doc_type in DOCUMENT_TYPES:
        by_level = shares[doc_type]
        lines.append(f"{doc_type.value:<18}" + "".join(
            f" {by_level.get(level, 0.0):>9.4f}" for level in levels))
    print("\n".join(lines))
    return 0


def _run_validate(args) -> int:
    from repro.model.validation import validate_hierarchy

    trace = load_workload(args)
    policies = split_list(args.policies, "--policies")
    report = validate_hierarchy(trace, policies=policies,
                                n_children=args.n_children,
                                warmup_fraction=args.warmup)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.text())
    if args.report:
        path = report.save(args.report)
        _logger.info("hierarchy validation report written to %s", path,
                     extra={"path": str(path)})
    if args.max_mae is not None:
        mae = report.mean_absolute_error
        if mae > args.max_mae:
            _logger.error(
                "hierarchy combined MAE %.4f exceeds tolerance %.4f",
                mae, args.max_mae,
                extra={"mean_absolute_error": mae,
                       "tolerance": args.max_mae})
            return 1
        _logger.info(
            "hierarchy combined MAE %.4f within tolerance %.4f",
            mae, args.max_mae,
            extra={"mean_absolute_error": mae,
                   "tolerance": args.max_mae})
    return 0


_VERBS = {
    "run": _run_run,
    "sweep": _run_sweep,
    "placement": _run_placement,
    "validate": _run_validate,
}


def main(argv: Optional[List[str]] = None) -> int:
    return run_verbs(build_parser(), _VERBS, "network", argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
