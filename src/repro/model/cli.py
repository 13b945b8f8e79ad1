"""The ``model`` subcommand of the experiments CLI.

Three verbs, all driven by the same workload-source options::

    python -m repro.experiments model predict \\
        --profile dfn --capacity 50000000 --policy lru
    python -m repro.experiments model curve \\
        --trace proxy.csv --fractions 0.005,0.01,0.02,0.04
    python -m repro.experiments model validate \\
        --profile dfn --profile-scale 0.004 --irm --max-mae 0.02

Workload sources:

* ``--trace PATH`` — calibrate from the trace file's columns
  (:func:`repro.trace.columnar.columns_of`): an ``.rcol`` is read in
  place, building no ``Request``; a text log is gathered into columns
  a chunk of requests at a time.
* ``--profile NAME`` — calibrate from a named workload profile with
  no trace at all (``predict``/``curve``) or from a freshly generated
  synthetic trace (``validate``, which needs something to simulate).

``validate`` exits non-zero when the LRU mean absolute hit-rate error
exceeds ``--max-mae`` — that is the CI ``model-validation`` gate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.experiments.cliopts import (
    add_observability_options,
    add_workload_options,
    from_trace_file,
    load_profile,
    load_workload,
    run_verbs,
    split_list,
)
from repro.model.catalog import (
    Catalog,
    catalog_from_profile,
    catalog_from_trace,
)
from repro.model.che import hierarchy_predict, hit_rate_curve, predict
from repro.model.solver import MODEL_POLICIES
from repro.model.validation import DEFAULT_POLICIES, validate_model
from repro.observability.logs import get_logger
from repro.simulation.sweep import PAPER_SIZE_FRACTIONS
from repro.types import DOCUMENT_TYPES

_logger = get_logger("model.cli")


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--warmup", type=float, default=0.0,
        help="warm-up fraction excluded from measurement, mirroring "
             "the simulator knob (default: 0)")
    parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of a table")
    add_observability_options(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments model",
        description="Analytical cache models (Che/TTL approximation): "
                    "predict hit rates without simulating.")
    verbs = parser.add_subparsers(dest="verb", required=True)

    p_predict = verbs.add_parser(
        "predict", help="one (policy, capacity) prediction, "
                        "optionally a two-level hierarchy")
    p_predict.add_argument(
        "--capacity", type=int, required=True,
        help="cache capacity in bytes")
    p_predict.add_argument(
        "--parent-capacity", type=int, default=None,
        help="add a parent cache of this many bytes and predict the "
             "two-level hierarchy")
    p_predict.add_argument(
        "--policy", choices=MODEL_POLICIES, default="lru")
    p_predict.add_argument(
        "--steady-state", action="store_true",
        help="infinite-trace view: amortize compulsory misses away")
    add_workload_options(p_predict)
    _add_common_options(p_predict)

    p_curve = verbs.add_parser(
        "curve", help="whole capacity→(hit rate, byte hit rate) "
                      "curve, per document type")
    p_curve.add_argument(
        "--capacities", default=None,
        help="comma-separated byte capacities")
    p_curve.add_argument(
        "--fractions", default=None,
        help="comma-separated fractions of the workload's total bytes "
             f"(default: {','.join(str(f) for f in PAPER_SIZE_FRACTIONS)})")
    p_curve.add_argument(
        "--policy", choices=MODEL_POLICIES, default="lru")
    p_curve.add_argument(
        "--steady-state", action="store_true",
        help="infinite-trace view: amortize compulsory misses away")
    add_workload_options(p_curve)
    _add_common_options(p_curve)

    p_validate = verbs.add_parser(
        "validate", help="score the model against a shared-pass "
                         "simulation grid")
    p_validate.add_argument(
        "--capacities", default=None,
        help="comma-separated byte capacities")
    p_validate.add_argument(
        "--fractions", default=None,
        help="comma-separated fractions of the trace's total bytes "
             f"(default: {','.join(str(f) for f in PAPER_SIZE_FRACTIONS)})")
    p_validate.add_argument(
        "--policies", default=",".join(DEFAULT_POLICIES),
        help="comma-separated model policies to validate "
             f"(default: {','.join(DEFAULT_POLICIES)})")
    p_validate.add_argument(
        "--max-mae", type=float, default=None,
        help="fail (exit 1) when the LRU mean absolute hit-rate "
             "error exceeds this tolerance")
    p_validate.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the full structured error report as JSON")
    add_workload_options(p_validate)
    _add_common_options(p_validate)
    return parser


def _build_catalog(args) -> Catalog:
    if from_trace_file(args):
        catalog = catalog_from_trace(args.trace, name=str(args.trace))
        _logger.info(
            "calibrated %d documents from the columns of %s",
            catalog.n_documents, args.trace,
            extra={"documents": catalog.n_documents,
                   "trace": str(args.trace)})
        return catalog
    return catalog_from_profile(load_profile(args))


def _capacities_for(args, catalog: Catalog) -> List[int]:
    if getattr(args, "capacities", None):
        return [int(v) for v in
                split_list(args.capacities, "--capacities", float)]
    fractions = (PAPER_SIZE_FRACTIONS if not getattr(args, "fractions",
                                                     None)
                 else split_list(args.fractions, "--fractions", float))
    if any(f <= 0 for f in fractions):
        raise ConfigurationError("--fractions must be positive")
    total = catalog.total_bytes
    return sorted({max(int(total * f), 1) for f in fractions})


def _format_prediction_table(predictions) -> str:
    lines = [
        f"{'capacity':>14} {'policy':<8} {'T_C':>12} {'hit rate':>9} "
        f"{'byte hr':>9}",
    ]
    for p in predictions:
        tc = ("inf" if math.isinf(p.characteristic_time)
              else f"{p.characteristic_time:,.1f}")
        lines.append(
            f"{int(p.capacity_bytes):>14,} {p.policy:<8} {tc:>12} "
            f"{p.hit_rate:>9.4f} {p.byte_hit_rate:>9.4f}")
        for doc_type in DOCUMENT_TYPES:
            entry = p.per_type.get(doc_type)
            if entry is None:
                continue
            lines.append(
                f"{'':>14} {'· ' + doc_type.value:<20} "
                f"{entry.hit_rate:>9.4f} {entry.byte_hit_rate:>9.4f}")
    return "\n".join(lines)


def _run_predict(args) -> int:
    catalog = _build_catalog(args)
    if args.parent_capacity is not None:
        hierarchy = hierarchy_predict(
            catalog, args.capacity, args.parent_capacity,
            policy=args.policy)
        if args.json:
            print(json.dumps(hierarchy.as_dict(), indent=2))
        else:
            print(_format_prediction_table([hierarchy.child]))
            print(f"{'parent':>14} (over child misses)")
            print(_format_prediction_table([hierarchy.parent]))
            print(f"hierarchy hit rate {hierarchy.combined_hit_rate:.4f}"
                  f"  byte hit rate "
                  f"{hierarchy.combined_byte_hit_rate:.4f}")
        return 0
    prediction = predict(catalog, args.capacity, policy=args.policy,
                         warmup_fraction=args.warmup,
                         steady_state=args.steady_state)
    if args.json:
        print(json.dumps(prediction.as_dict(), indent=2))
    else:
        print(_format_prediction_table([prediction]))
    return 0


def _run_curve(args) -> int:
    catalog = _build_catalog(args)
    capacities = _capacities_for(args, catalog)
    predictions = hit_rate_curve(
        catalog, capacities, policy=args.policy,
        warmup_fraction=args.warmup, steady_state=args.steady_state)
    if args.json:
        print(json.dumps([p.as_dict() for p in predictions], indent=2))
    else:
        print(_format_prediction_table(predictions))
    return 0


def _run_validate(args) -> int:
    trace = load_workload(args)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    capacities = None
    if args.capacities:
        capacities = [int(v) for v in
                      split_list(args.capacities, "--capacities", float)]
    fractions = (PAPER_SIZE_FRACTIONS if not args.fractions
                 else split_list(args.fractions, "--fractions", float))
    report = validate_model(
        trace, policies=policies, capacities=capacities,
        fractions=fractions, warmup_fraction=args.warmup)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.text())
    if args.report:
        path = report.save(args.report)
        _logger.info("validation report written to %s", path,
                     extra={"path": str(path)})
    if args.max_mae is not None:
        gate_policy = "lru" if "lru" in policies else policies[0]
        gate = report.policy_mean_absolute_error(gate_policy)
        if gate > args.max_mae:
            _logger.error(
                "%s mean absolute error %.4f exceeds tolerance %.4f",
                gate_policy, gate, args.max_mae,
                extra={"policy": gate_policy,
                       "mean_absolute_error": gate,
                       "tolerance": args.max_mae})
            return 1
        _logger.info(
            "%s mean absolute error %.4f within tolerance %.4f",
            gate_policy, gate, args.max_mae,
            extra={"policy": gate_policy, "mean_absolute_error": gate,
                   "tolerance": args.max_mae})
    return 0


_VERBS = {
    "predict": _run_predict,
    "curve": _run_curve,
    "validate": _run_validate,
}


def main(argv: Optional[List[str]] = None) -> int:
    return run_verbs(build_parser(), _VERBS, "model", argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
