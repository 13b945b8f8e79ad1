"""Cross-revision regression detection over the results store.

The store keys every record by ``(config_hash, git_hash, seed)``, so
two code revisions that ran the same seeded trial grid leave two
replicate samples per configuration and metric.  This module turns
those into verdicts: for every condition (every spec field but the
seed — :meth:`~repro.experiments.service.TrialSpec.condition_of`)
and every metric :func:`~repro.experiments.service.store_samples`
reads — overall hit rate, byte hit rate, and the per-document-type
hit rates the paper's analysis turns on — it runs a Mann-Whitney U
test plus the Vargha-Delaney A12 effect size between the baseline and
candidate revisions and labels the pair

* ``improved`` / ``regressed`` — significant at ``alpha`` **and** a
  non-negligible effect size (direction from A12);
* ``indistinguishable`` — everything else.  Statistical insignificance
  or a negligible effect is *never* flagged: seed-to-seed noise between
  two identical binaries must come out clean, or the detector is just
  an alarm that cries.

Run it offline (CI does)::

    python -m repro.experiments.regress --root service/ \\
        --baseline abc123 --candidate def456 --fail-on-regression

or through the service CLI as ``experiments service regress``.  With a
store holding exactly two git hashes the revisions are inferred; the
candidate defaults to the current checkout's revision when present.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, ServiceError
from repro.experiments.stats import (
    a12_magnitude,
    mann_whitney_u,
    summarize,
    vargha_delaney_a12,
)
from repro.experiments.service import (STORE_DIRNAME, TrialSpec,
                                      store_samples)
from repro.experiments.store import ResultsStore, git_revision

__all__ = [
    "Verdict",
    "RegressionReport",
    "collect_samples",
    "resolve_hashes",
    "detect_regressions",
    "main",
]

#: Verdict labels.
IMPROVED = "improved"
REGRESSED = "regressed"
INDISTINGUISHABLE = "indistinguishable"


@dataclass(frozen=True)
class Verdict:
    """One (condition, metric) comparison between two revisions."""

    trace: str
    scale: float
    policy: str
    size_fraction: float
    #: ``(axis, value)`` pairs of a network or serving condition.
    axes: Tuple[Tuple[str, object], ...]
    metric: str
    n_baseline: int
    n_candidate: int
    mean_baseline: float
    mean_candidate: float
    delta: float
    p_value: float
    a12: float
    magnitude: str
    verdict: str

    @property
    def condition(self) -> str:
        return (f"{self.trace}/scale={self.scale:g}/{self.policy}"
                f"/cache={self.size_fraction:g}"
                + "".join(f"/{axis}={value}"
                          for axis, value in self.axes))

    def as_dict(self) -> dict:
        data = asdict(self)
        data.update(data.pop("axes"))
        return data


@dataclass
class RegressionReport:
    """All verdicts for one baseline→candidate comparison."""

    baseline: str
    candidate: str
    alpha: float
    verdicts: List[Verdict]

    @property
    def regressions(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.verdict == REGRESSED]

    @property
    def improvements(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.verdict == IMPROVED]

    def as_dict(self) -> dict:
        return {
            "baseline": self.baseline, "candidate": self.candidate,
            "alpha": self.alpha,
            "verdicts": [v.as_dict() for v in self.verdicts],
            "summary": {
                "regressed": len(self.regressions),
                "improved": len(self.improvements),
                "indistinguishable": len(self.verdicts)
                - len(self.regressions) - len(self.improvements),
            },
        }

    def render(self) -> str:
        lines = [
            f"regression check: baseline={self.baseline} -> "
            f"candidate={self.candidate} (alpha={self.alpha:g})",
            f"{'condition':<38} {'metric':<22} {'base':>8} "
            f"{'cand':>8} {'delta':>8} {'p':>7} {'A12':>6} "
            f"{'verdict':<17}",
        ]
        for v in self.verdicts:
            lines.append(
                f"{v.condition:<38} {v.metric:<22} "
                f"{v.mean_baseline:>8.4f} {v.mean_candidate:>8.4f} "
                f"{v.delta:>+8.4f} {v.p_value:>7.4f} {v.a12:>6.3f} "
                f"{v.verdict:<17}")
        if not self.verdicts:
            lines.append("(no configuration present under both "
                         "revisions)")
        lines.append(
            f"verdicts: {len(self.improvements)} improved, "
            f"{len(self.regressions)} regressed, "
            f"{len(self.verdicts) - len(self.improvements) - len(self.regressions)} "
            f"indistinguishable")
        return "\n".join(lines)


# condition -> git_hash -> metric -> {seed: value}
Samples = Dict[tuple, Dict[str, Dict[str, Dict[int, float]]]]


def collect_samples(store: ResultsStore) -> Samples:
    """Group the store's service records for cross-revision tests.

    Keyed by experimental condition — (trace, scale, policy,
    size_fraction), then one ``(axis, value)`` pair per optional axis
    a network or serving trial carries — then git hash, then metric
    name; the innermost dict is keyed by seed so a duplicate append
    never double-counts a replica.
    """
    samples: Samples = {}
    for sample in store_samples(store):
        by_metric = samples.setdefault(
            TrialSpec.condition_of(sample.spec), {}).setdefault(
                sample.git_hash, {})
        for metric, value in sample.metrics.items():
            by_metric.setdefault(metric, {})[sample.seed] = value
    return samples


def resolve_hashes(store: ResultsStore,
                   baseline: Optional[str] = None,
                   candidate: Optional[str] = None
                   ) -> Tuple[str, str]:
    """Fill in missing revision hashes from the store's contents.

    The candidate defaults to the current checkout's revision when the
    store holds records for it; the baseline can be inferred only when
    that leaves exactly one other revision.  Anything ambiguous is an
    error that lists what the store actually holds — guessing which of
    three revisions to regress against silently would be worse than
    failing.
    """
    hashes = sorted({key.git_hash for key in store.records()})
    if baseline is not None and candidate is not None:
        return baseline, candidate
    if candidate is None:
        current = git_revision()
        if current in hashes:
            candidate = current
        elif baseline is not None and len(hashes) == 2:
            candidate = next(h for h in hashes if h != baseline)
        else:
            raise ServiceError(
                "cannot infer --candidate: current revision "
                f"{current!r} has no records; store holds "
                f"{hashes or '(nothing)'}")
    if baseline is None:
        others = [h for h in hashes if h != candidate]
        if len(others) != 1:
            raise ServiceError(
                "cannot infer --baseline: store holds revisions "
                f"{hashes}; pass --baseline explicitly")
        baseline = others[0]
    return baseline, candidate


def detect_regressions(store: ResultsStore,
                       baseline: Optional[str] = None,
                       candidate: Optional[str] = None,
                       alpha: float = 0.05,
                       metrics: Optional[Sequence[str]] = None
                       ) -> RegressionReport:
    """Compare every shared (condition, metric) pair across revisions.

    A pair is flagged ``improved``/``regressed`` only when the
    Mann-Whitney p-value clears ``alpha`` *and* the A12 effect size is
    non-negligible; direction comes from A12 (candidate vs baseline,
    higher-is-better metrics only live in the store).  ``metrics``
    restricts the comparison to the named metrics.
    """
    baseline, candidate = resolve_hashes(store, baseline, candidate)
    if baseline == candidate:
        raise ServiceError(
            f"baseline and candidate are both {candidate!r}")
    verdicts: List[Verdict] = []
    for condition, by_hash in sorted(collect_samples(store).items(),
                                     key=lambda item: str(item[0])):
        base_metrics = by_hash.get(baseline) or {}
        cand_metrics = by_hash.get(candidate) or {}
        shared = sorted(set(base_metrics) & set(cand_metrics))
        for metric in shared:
            if metrics is not None and metric not in metrics:
                continue
            base = [v for _, v in sorted(base_metrics[metric].items())]
            cand = [v for _, v in sorted(cand_metrics[metric].items())]
            _, p = mann_whitney_u(cand, base)
            a12 = vargha_delaney_a12(cand, base)
            magnitude = a12_magnitude(a12)
            if p < alpha and magnitude != "negligible":
                verdict = IMPROVED if a12 > 0.5 else REGRESSED
            else:
                verdict = INDISTINGUISHABLE
            trace, scale, policy, fraction, *axes = condition
            verdicts.append(Verdict(
                trace=trace, scale=scale, policy=policy,
                size_fraction=fraction, axes=tuple(axes),
                metric=metric,
                n_baseline=len(base), n_candidate=len(cand),
                mean_baseline=summarize(base).mean,
                mean_candidate=summarize(cand).mean,
                delta=summarize(cand).mean - summarize(base).mean,
                p_value=p, a12=a12, magnitude=magnitude,
                verdict=verdict))
    return RegressionReport(baseline=baseline, candidate=candidate,
                            alpha=alpha, verdicts=verdicts)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The regress options — shared by this module's own parser and
    the ``service regress`` verb (which has ``--root`` already)."""
    parser.add_argument("--baseline", default=None,
                        help="baseline git hash (inferred when the "
                             "store holds exactly two)")
    parser.add_argument("--candidate", default=None,
                        help="candidate git hash (default: current "
                             "checkout's revision)")
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--metric", action="append", default=None,
                        help="restrict to this metric (repeatable)")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable report "
                             "instead of the table")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when any pair is labelled "
                             "'regressed' (for CI gates)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.regress",
        description="Statistically-gated regression detection between "
                    "two git revisions sharing one results store.")
    parser.add_argument("--root", default="service/",
                        help="service root directory")
    add_arguments(parser)
    return parser


def run(args: argparse.Namespace) -> int:
    """The regress verb on parsed arguments (``root`` plus the options
    of :func:`add_arguments`); returns the exit code.  A revision pair
    that cannot be resolved raises :class:`~repro.errors.ServiceError`;
    both command lines print it as one ``error:`` line with exit code
    2."""
    from repro.experiments.store import canonical_json
    from pathlib import Path

    store = ResultsStore(Path(args.root) / STORE_DIRNAME)
    report = detect_regressions(
        store, baseline=args.baseline, candidate=args.candidate,
        alpha=args.alpha, metrics=args.metric)
    if args.json:
        print(canonical_json(report.as_dict()))
    else:
        print(report.render())
    if args.fail_on_regression and report.regressions:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return run(build_parser().parse_args(
            list(sys.argv[1:] if argv is None else argv)))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
