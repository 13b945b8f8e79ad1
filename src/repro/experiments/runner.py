"""Experiment implementations.

Each experiment returns an :class:`ExperimentReport` carrying rendered
text (tables / ASCII charts), machine-readable data (dict), and named
CSV artifacts for the figure experiments.  One that simulates declares
:class:`Arm`\\ s plus a column spec (:func:`_arm_table`: one shared
pass per trace) or asks :func:`_grid` for a policy × cache-size sweep
(each distinct grid computed once per process).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from itertools import groupby
from pathlib import Path
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from repro.analysis.characterize import characterize, type_breakdown
from repro.analysis.plotting import ascii_chart, series_to_csv
from repro.analysis.tables import (
    render_breakdown_table,
    render_properties_table,
    render_statistics_table,
    render_sweep_table,
    render_table,
)
from repro.core.registry import make_policy
from repro.experiments.config import (
    EXPERIMENT_IDS,
    FIG1_SIZE_FRACTION,
    ExperimentSettings,
    check_experiment_id,
)
from repro.observability.events import emit
from repro.observability.manifest import TelemetryRun
from repro.observability.profiling import maybe_profile
from repro.observability.progress import ProgressReporter
from repro.simulation.engine import (
    CacheCell,
    SimulationConfig,
    SizeInterpretation,
    run_cells,
)
from repro.simulation.results import SimulationResult, SweepResult
from repro.simulation.sweep import cache_sizes_from_fractions, run_sweep
from repro.types import DOCUMENT_TYPES, PLOTTED_TYPES, DocumentType, Trace
from repro.workload.generator import generate_trace
from repro.workload.profiles import profile_by_name


@dataclass
class ExperimentReport:
    """Outcome of one experiment run."""

    experiment_id: str
    scale_name: str
    text: str
    data: dict = field(default_factory=dict)
    #: filename → CSV content, for figure series.
    artifacts: Dict[str, str] = field(default_factory=dict)


#: Every trace generated in this process, by (profile, scale, seed),
#: and every sweep grid, by (profile, scale, seed, size fractions,
#: policies) — result-bearing settings only, as in
#: :func:`_suite_digest`.  Experiments share the entries: read-only.
_TRACES: Dict[tuple, Trace] = {}
_GRIDS: Dict[tuple, SweepResult] = {}


def _trace(profile_name: str, settings: ExperimentSettings) -> Trace:
    key = (profile_name, settings.scale, settings.seed)
    if key not in _TRACES:
        _TRACES[key] = generate_trace(profile_by_name(*key))
    return _TRACES[key]


def _sized(profile_name: str, fraction: float,
           settings: ExperimentSettings) -> Tuple[Trace, int]:
    """A profile's trace and the capacity that is ``fraction`` of it."""
    trace = _trace(profile_name, settings)
    return trace, cache_sizes_from_fractions(trace, [fraction])[0]


def _grid(profile_name: str, policies: Sequence[str],
          settings: ExperimentSettings) -> SweepResult:
    """The ``policies`` × ``settings.size_fractions`` sweep of a
    profile's trace, computed once per process: in one in-process
    pass, or across fault-tolerant worker processes when
    ``settings.extra`` carries ``sweep_workers`` (the CLI's
    ``--sweep-workers``, with ``--cell-timeout`` / ``--max-retries``
    riding along).  Both are bit-identical, so the key ignores which.
    """
    key = (profile_name, settings.scale, settings.seed,
           tuple(settings.size_fractions), tuple(policies))
    if key in _GRIDS:
        return _GRIDS[key]
    trace = _trace(profile_name, settings)
    capacities = cache_sizes_from_fractions(trace, settings.size_fractions)
    workers = int(settings.extra.get("sweep_workers") or 0)
    if workers > 1:
        from repro.simulation.parallel import run_sweep_parallel

        sweep = run_sweep_parallel(
            trace, policies, capacities, n_workers=workers,
            max_retries=int(settings.extra.get("max_retries", 2)),
            cell_timeout=settings.extra.get("cell_timeout"))
    else:
        sweep = run_sweep(trace, policies, capacities)
    _GRIDS[key] = sweep
    return sweep


class Arm(NamedTuple):
    """One simulation of an experiment.  ``cell`` is a config, or a
    prebuilt :class:`CacheCell` when the arm needs what a config cannot
    say (a cache that is not a plain ``Cache``) or the experiment reads
    the cell's ``.policy`` after the run."""

    label: str  # table row label
    trace: Trace
    cell: Union[SimulationConfig, CacheCell]
    key: Optional[str] = None  # data-dict key, when not the label


#: (table header, data key, value of a result)
Column = Tuple[str, str, Callable[[SimulationResult], object]]

_HIT_RATE: Column = ("Hit rate", "hit_rate", lambda r: r.hit_rate())
_BYTE_HIT_RATE: Column = ("Byte hit rate", "byte_hit_rate",
                          lambda r: r.byte_hit_rate())
_MM_HIT_RATE: Column = ("MM hit rate", "mm_hit_rate",
                        lambda r: r.hit_rate(DocumentType.MULTIMEDIA))


def _mm_byte_hit_rate(result: SimulationResult) -> float:
    return result.byte_hit_rate(DocumentType.MULTIMEDIA)


def _run_arms(arms: Sequence[Arm]) -> List[SimulationResult]:
    """One result per arm, in order.  Each run of consecutive arms on
    the same trace rides one shared pass, so an experiment declares a
    trace's arms together."""
    results: List[SimulationResult] = []
    for _, group in groupby(arms, key=lambda arm: id(arm.trace)):
        cells = list(group)
        results += run_cells(cells[0].trace, [arm.cell for arm in cells])
    return results


def _arm_table(arms: Sequence[Arm], columns: Sequence[Column]):
    """Run the arms: the column headers, one table row per arm and one
    ``data`` entry per arm."""
    headers, keys, values = zip(*columns)
    rows = []
    data = {}
    for arm, result in zip(arms, _run_arms(arms)):
        row = [value(result) for value in values]
        rows.append([arm.label] + row)
        data[arm.key or arm.label] = dict(zip(keys, row))
    return list(headers), rows, data


def _table_report(experiment_id: str, settings: ExperimentSettings,
                  title: str, headers, rows, data,
                  head: str = "Arm") -> ExperimentReport:
    text = render_table([head] + headers, rows, title=title, digits=3)
    return ExperimentReport(experiment_id, settings.scale_name, text, data)


# --------------------------------------------------------------------------
# Tables 1-5
# --------------------------------------------------------------------------

def _run_table1(settings: ExperimentSettings) -> ExperimentReport:
    chars = {f"{name.upper()}-like": characterize(
                 _trace(name, settings), estimate_locality=False)
             for name in ("dfn", "rtp")}
    text = render_properties_table(
        chars, title=f"Table 1 (scale={settings.scale_name}). "
                     "Properties of DFN-like and RTP-like traces")
    data = {
        name: {prop: getattr(c.metadata, prop)
               for prop in ("distinct_documents", "total_requests",
                            "total_size_gb", "requested_gb")}
        for name, c in chars.items()
    }
    return ExperimentReport("table1", settings.scale_name, text, data)


def _breakdown_report(number: int, profile_name: str,
                      settings: ExperimentSettings) -> ExperimentReport:
    char = characterize(_trace(profile_name, settings),
                        estimate_locality=False)
    text = render_breakdown_table(
        char, title=f"Table {number}. {profile_name.upper()}-like trace: "
                    f"workload characteristics by type "
                    f"(scale={settings.scale_name})")
    data = {
        metric: {t.value: getattr(char.breakdown, metric)[t]
                 for t in DOCUMENT_TYPES}
        for metric in ("distinct_documents", "overall_size",
                       "total_requests", "requested_data")
    }
    return ExperimentReport(f"table{number}", settings.scale_name, text,
                            data)


def _statistics_report(number: int, profile_name: str,
                       settings: ExperimentSettings) -> ExperimentReport:
    char = characterize(_trace(profile_name, settings),
                        estimate_locality=True)
    text = render_statistics_table(
        char, title=f"Table {number}. {profile_name.upper()}-like trace: "
                    f"sizes and temporal locality by type "
                    f"(scale={settings.scale_name})")
    data = {
        t.value: {
            "doc_mean_kb": char.by_type[t].sizes.document.mean_kb,
            "doc_median_kb": char.by_type[t].sizes.document.median_kb,
            "doc_cov": char.by_type[t].sizes.document.cov,
            "transfer_mean_kb": char.by_type[t].sizes.transfer.mean_kb,
            "transfer_median_kb": char.by_type[t].sizes.transfer.median_kb,
            "transfer_cov": char.by_type[t].sizes.transfer.cov,
            "alpha": char.by_type[t].alpha,
            "beta": char.by_type[t].beta,
        }
        for t in DOCUMENT_TYPES
    }
    return ExperimentReport(f"table{number}", settings.scale_name, text,
                            data)


# --------------------------------------------------------------------------
# Figure 1: adaptability of GD*
# --------------------------------------------------------------------------

def _run_fig1(settings: ExperimentSettings) -> ExperimentReport:
    trace, capacity = _sized("dfn", FIG1_SIZE_FRACTION, settings)
    interval = settings.occupancy_interval or max(len(trace) // 200, 1)

    # The OCR of the paper drops the two policy names in Figure 1's
    # caption; the surrounding prose ("achieves high hit rates [by]
    # not wasting space on large documents" vs "keeps per-class shares
    # near the request mix, delivering even large documents") contrasts
    # the constant-cost and packet-cost behaviours, so we plot the
    # whole Greedy-Dual family under both cost models.
    arms = [Arm(policy_name, trace, SimulationConfig(
                capacity, policy_name, occupancy_interval=interval))
            for policy_name in ("gds(1)", "gd*(1)", "gds(p)", "gd*(p)")]

    # Reference mixes the occupancy should adapt toward.
    request_mix = type_breakdown(trace).total_requests

    sections: List[str] = [
        f"Figure 1 (scale={settings.scale_name}). Occupancy of the web "
        f"cache by document type; cache = {capacity / 1e6:,.0f} MB "
        f"({FIG1_SIZE_FRACTION:.0%} of trace bytes)."
    ]
    artifacts: Dict[str, str] = {}
    data: dict = {"capacity_bytes": capacity, "policies": {}}
    for arm, result in zip(arms, _run_arms(arms)):
        policy_name, tracker = arm.label, result.occupancy
        shares = {
            t: {"mean_doc_fraction": tracker.mean_fraction(t, False),
                "doc_spread": tracker.variability(t, False),
                "mean_byte_fraction": tracker.mean_fraction(t, True),
                "byte_spread": tracker.variability(t, True)}
            for t in PLOTTED_TYPES
        }
        sections.append(render_table(
            ["Type", "% of requests", "mean % cached docs",
             "spread docs", "mean % cached bytes", "spread bytes"],
            [[t.label, request_mix[t]]
             + [100.0 * share for share in shares[t].values()]
             for t in PLOTTED_TYPES],
            title=f"-- {policy_name} --"))
        doc_series = {t.label: tracker.series(t, False)
                      for t in PLOTTED_TYPES}
        byte_series = {t.label: tracker.series(t, True)
                       for t in PLOTTED_TYPES}
        safe = policy_name.replace("*", "star")
        artifacts[f"fig1_{safe}_documents.csv"] = series_to_csv(
            doc_series, x_name="request")
        artifacts[f"fig1_{safe}_bytes.csv"] = series_to_csv(
            byte_series, x_name="request")
        sections.append(ascii_chart(
            byte_series, title=f"{policy_name}: fraction of cached bytes",
            x_label="requests", y_label="fraction"))
        data["policies"][policy_name] = {
            t.value: {"request_share_pct": request_mix[t], **shares[t]}
            for t in PLOTTED_TYPES
        }
    return ExperimentReport("fig1", settings.scale_name,
                            "\n\n".join(sections), data, artifacts)


# --------------------------------------------------------------------------
# Figures 2/3 and the RTP summaries: policy x size sweeps
# --------------------------------------------------------------------------

_CONSTANT_POLICIES = ("lru", "lfu-da", "gds(1)", "gd*(1)")
_PACKET_POLICIES = ("lru", "lfu-da", "gds(p)", "gd*(p)")


def _sweep_report(experiment_id: str, profile_name: str, policies, label: str,
                  settings: ExperimentSettings) -> ExperimentReport:
    sweep = _grid(profile_name, policies, settings)

    sections = [f"{label} (scale={settings.scale_name})"]
    artifacts: Dict[str, str] = {}
    data: dict = {"capacities": sweep.capacities, "hit_rate": {},
                  "byte_hit_rate": {}}
    panels = [None] + list(PLOTTED_TYPES)  # None = overall
    for doc_type in panels:
        key = doc_type.value if doc_type else "overall"
        for byte_rate in (False, True):
            sections.append(render_sweep_table(
                sweep, doc_type=doc_type, byte_rate=byte_rate))
            series = {policy: sweep.series(policy, doc_type, byte_rate)
                      for policy in sweep.policies}
            metric = "bhr" if byte_rate else "hr"
            artifacts[f"{experiment_id}_{key}_{metric}.csv"] = \
                series_to_csv(series, x_name="capacity_bytes")
            bucket = data["byte_hit_rate" if byte_rate else "hit_rate"]
            bucket[key] = {policy: [rate for _, rate in points]
                           for policy, points in series.items()}
    # One chart per figure: the overall hit-rate panel, the shape the
    # paper's figures lead with.
    overall_series = {policy: sweep.series(policy)
                      for policy in sweep.policies}
    sections.append(ascii_chart(
        overall_series, logx=True,
        title="overall hit rate vs cache size",
        x_label="cache bytes", y_label="hit rate"))
    return ExperimentReport(experiment_id, settings.scale_name,
                            "\n\n".join(sections), data, artifacts)


# --------------------------------------------------------------------------
# Ablations
# --------------------------------------------------------------------------

def _run_ablation_beta(settings: ExperimentSettings) -> ExperimentReport:
    """GD*(1) with online β vs pinned β values."""
    trace, capacity = _sized("dfn", 0.01, settings)
    arms = [Arm(label, trace, SimulationConfig(
                capacity, make_policy("gd*(1)", fixed_beta=fixed)))
            for label, fixed in (("online", None), ("beta=1.0", 1.0),
                                 ("beta=0.5", 0.5), ("beta=0.1", 0.1))]
    columns = [_HIT_RATE, _BYTE_HIT_RATE,
               ("Final beta", "final_beta", lambda r: r.final_beta)]
    return _table_report(
        "ablation-beta", settings,
        f"Ablation: GD*(1) beta estimation "
        f"(DFN-like, cache=1% of bytes, scale={settings.scale_name})",
        *_arm_table(arms, columns))


def _run_ablation_warmup(settings: ExperimentSettings) -> ExperimentReport:
    """Sensitivity of reported rates to the warm-up fraction."""
    trace, capacity = _sized("dfn", 0.01, settings)
    arms = [Arm(f"{policy_name} @ {warmup:.0%}", trace,
                SimulationConfig(capacity, policy_name, warmup),
                key=f"{policy_name}@{warmup}")
            for warmup in (0.0, 0.05, 0.10, 0.30)
            for policy_name in ("lru", "gd*(1)")]
    return _table_report(
        "ablation-warmup", settings,
        f"Ablation: warm-up fraction "
        f"(DFN-like, cache=1% of bytes, scale={settings.scale_name})",
        *_arm_table(arms, [_HIT_RATE, _BYTE_HIT_RATE]))


def _run_ablation_modification(settings: ExperimentSettings
                               ) -> ExperimentReport:
    """The paper's 5 % rule vs Jin & Bestavros' any-change rule.

    The paper attributes its one disagreement with [8] — GDS(1)'s byte
    hit rate on multimedia — to this choice: under any-change,
    interrupted multimedia transfers masquerade as modifications,
    inflating miss rates for exactly the large documents.
    """
    trace, capacity = _sized("dfn", 0.01, settings)
    arms = [Arm(f"{policy_name} / {interp.value}", trace,
                SimulationConfig(capacity, policy_name,
                                 size_interpretation=interp),
                key=f"{policy_name}/{interp.value}")
            for interp in (SizeInterpretation.TRUSTED,
                           SizeInterpretation.PAPER_RULE,
                           SizeInterpretation.ANY_CHANGE)
            for policy_name in ("gds(1)", "gd*(1)")]
    columns = [_HIT_RATE, _BYTE_HIT_RATE,
               ("MM byte hit rate", "mm_byte_hit_rate", _mm_byte_hit_rate),
               ("Invalidations", "invalidations", lambda r: r.invalidations)]
    return _table_report(
        "ablation-modification", settings,
        f"Ablation: modification rule "
        f"(DFN-like, cache=1% of bytes, scale={settings.scale_name})",
        *_arm_table(arms, columns))


def _run_ablation_partition(settings: ExperimentSettings
                            ) -> ExperimentReport:
    """Static type-partitioning vs the adaptive schemes.

    The paper's motivation — designing replacement schemes around
    document types — invites the explicit design: one capacity slice
    per type.  This ablation compares request-share-partitioned LRU
    against monolithic LRU and GD*(1) (whose utility function
    partitions *implicitly* and adaptively).
    """
    from repro.core.partitioned import (
        PartitionedCache, make_policy_factory, request_share_partitioning)

    trace, capacity = _sized("dfn", 0.02, settings)
    shares = request_share_partitioning(
        type_breakdown(trace).total_requests)
    arms = [Arm(policy_name, trace, SimulationConfig(capacity, policy_name))
            for policy_name in ("lru", "gd*(1)")]
    # A cache that is not a plain Cache rides the pass as a prebuilt
    # cell; the config's policy is then unused.
    arms += [Arm(f"partitioned-{policy_name}", trace, CacheCell(
                 SimulationConfig(capacity), cache=PartitionedCache(
                     capacity, shares=shares,
                     policy_factory=make_policy_factory(policy_name))))
             for policy_name in ("lru", "gds(1)")]
    return _table_report(
        "ablation-partition", settings,
        f"Ablation: static type partitioning "
        f"(DFN-like, cache=2% of bytes, scale={settings.scale_name})",
        *_arm_table(arms, [_HIT_RATE, _BYTE_HIT_RATE, _MM_HIT_RATE]))


def _run_ablation_irm(settings: ExperimentSettings) -> ExperimentReport:
    """Temporal correlation on vs off (Independent Reference Model).

    Regenerates the DFN-like workload with identical popularity and
    sizes but uniform reference placement, isolating how much of each
    scheme's performance comes from short-term temporal correlation.
    """
    gaps_trace, capacity = _sized("dfn", 0.02, settings)
    irm_trace = generate_trace(
        profile_by_name("dfn", settings.scale, settings.seed),
        temporal_model="irm")
    arms = [Arm(f"{policy_name} / {label}", trace,
                SimulationConfig(capacity, policy_name))
            for label, trace in (("power-law gaps", gaps_trace),
                                 ("irm", irm_trace))
            for policy_name in ("lru", "gd*(1)")]
    return _table_report(
        "ablation-irm", settings,
        f"Ablation: temporal correlation vs IRM "
        f"(DFN-like, cache=2% of bytes, scale={settings.scale_name})",
        *_arm_table(arms, [_HIT_RATE, _BYTE_HIT_RATE]))


def _run_ablation_typed_beta(settings: ExperimentSettings
                             ) -> ExperimentReport:
    """Aggregate vs per-type β estimation in GD*.

    Tests the fix the paper's Section 4.4 diagnosis implies: on the
    RTP-like trace, where the per-type temporal-correlation slopes
    diverge most from the image-dominated aggregate, GD* with one β
    estimator per document type should repair some of the replacement
    errors the paper attributes to the aggregate estimate.
    """
    from repro.core.gdstar_typed import GDStarTypedPolicy

    arms = []
    for profile_name in ("dfn", "rtp"):
        trace, capacity = _sized(profile_name, 0.02, settings)
        # Prebuilt cells: the per-type betas are read off their
        # policies after the run.
        arms += [Arm(f"{policy_name} / {profile_name}", trace,
                     CacheCell(SimulationConfig(capacity, policy_name)))
                 for policy_name in ("gd*(1)", "gd*t(1)", "gd*(p)", "gd*t(p)")]
    columns = [_HIT_RATE, _BYTE_HIT_RATE, _MM_HIT_RATE,
               ("MM BHR", "mm_byte_hit_rate", _mm_byte_hit_rate)]
    headers, rows, data = _arm_table(arms, columns)
    for arm in arms:
        policy = arm.cell.policy
        data[arm.label]["final_betas"] = (
            {t.value: round(policy.beta(t), 3) for t in PLOTTED_TYPES}
            if isinstance(policy, GDStarTypedPolicy) else None)
    return _table_report(
        "ablation-typed-beta", settings,
        f"Ablation: aggregate vs per-type beta in GD* "
        f"(cache=2% of bytes, scale={settings.scale_name})",
        headers, rows, data)


def _run_ablation_seeds(settings: ExperimentSettings) -> ExperimentReport:
    """Seed sensitivity of the headline orderings.

    Regenerates the DFN-like workload under several seeds and checks
    that the Figure-2 hit-rate ordering (GD*(1) > GDS(1) > LFU-DA >
    LRU) is a property of the workload *statistics*, not of one random
    draw.  Wilson intervals quantify the per-seed uncertainty.
    """
    from repro.analysis.confidence import hit_rate_interval

    seeds = (42, 1042, 2042)
    arms = []
    for seed in seeds:
        trace, capacity = _sized("dfn", 0.02, replace(settings, seed=seed))
        arms += [Arm(f"seed {seed} / {policy_name}", trace,
                     SimulationConfig(capacity, policy_name),
                     key=f"{seed}/{policy_name}")
                 for policy_name in _CONSTANT_POLICIES]
    columns = [_HIT_RATE,
               ("95% lower", "ci_lower", lambda r: hit_rate_interval(r).lower),
               ("95% upper", "ci_upper", lambda r: hit_rate_interval(r).upper)]
    headers, rows, data = _arm_table(arms, columns)
    orderings_held = 0
    for seed in seeds:
        gdstar, gds, lfu_da, lru = (
            data[f"{seed}/{policy_name}"]["hit_rate"]
            for policy_name in ("gd*(1)", "gds(1)", "lfu-da", "lru"))
        orderings_held += gdstar > gds > lfu_da > lru
    data["orderings_held"] = orderings_held
    data["seeds"] = len(seeds)
    rows.append([f"ordering held on {orderings_held}/{len(seeds)} seeds",
                 None, None, None])
    return _table_report(
        "ablation-seeds", settings,
        f"Ablation: seed sensitivity (DFN-like, cache=2% of "
        f"bytes, scale={settings.scale_name})",
        headers, rows, data)


def _run_policy_zoo(settings: ExperimentSettings) -> ExperimentReport:
    """Every implemented policy on the DFN-like trace, plus bounds.

    The Arlitt-Friedrich-Jin-style wide comparison the paper cites:
    the four paper schemes, the classical baselines, the extension
    policies, admission control, and the clairvoyant Belady ceiling,
    at one cache size.
    """
    from repro.core.admission import SecondHitAdmission
    from repro.core.belady import BeladyPolicy, compute_next_uses

    trace, capacity = _sized("dfn", 0.02, settings)
    contenders = [(name, name) for name in (
        "rand", "fifo", "lru", "lru-2", "slru", "lru-threshold",
        "size", "lfu", "lfu-da", "gds(1)", "gdsf(1)", "gd*(1)",
        "gd*t(1)", "landlord(1)", "hyperbolic(1)",
        "gds(p)", "gd*(p)")]
    contenders += [
        ("2hit+lru", SecondHitAdmission(make_policy("lru"))),
        ("belady", BeladyPolicy(compute_next_uses(trace.requests)))]
    arms = [Arm(label, trace, SimulationConfig(capacity, policy))
            for label, policy in contenders]
    headers, rows, data = _arm_table(arms, [_HIT_RATE, _BYTE_HIT_RATE])
    rows.sort(key=lambda row: row[1], reverse=True)
    return _table_report(
        "policy-zoo", settings,
        f"Policy zoo (DFN-like, cache=2% of bytes, "
        f"scale={settings.scale_name}), sorted by hit rate",
        headers, rows, data, head="Policy")


def _run_future_workload(settings: ExperimentSettings) -> ExperimentReport:
    """The paper's own prediction, tested against its conclusions.

    The introduction conjectures future workloads with far more
    multimedia and application traffic.  ``future_like()`` realizes
    that conjecture (multimedia requests ×35, application ×4 over the
    DFN mix); this experiment reruns the paper's comparison on it and
    reports which recommendations survive.
    """
    sections = [
        f"Future workload (the paper's introduction conjecture) vs "
        f"DFN baseline (scale={settings.scale_name})."
    ]
    data: dict = {}
    for profile_name in ("dfn", "future"):
        const = _grid(profile_name, _CONSTANT_POLICIES, settings)
        packet = _grid(profile_name, _PACKET_POLICIES, settings)
        sections.append(render_sweep_table(
            const, title=f"{profile_name}: overall hit rate "
                         f"(constant cost)"))
        sections.append(render_sweep_table(
            packet, byte_rate=True,
            title=f"{profile_name}: overall byte hit rate (packet cost)"))
        data[profile_name] = {
            "hit_rate": {p: const.series(p)[-1][1]
                         for p in const.policies},
            "byte_hit_rate_packet": {p: packet.series(
                p, byte_rate=True)[-1][1] for p in packet.policies},
            "mm_hit_rate": {p: const.series(
                p, DocumentType.MULTIMEDIA)[-1][1]
                for p in const.policies},
        }

    # Headline deltas.
    for profile_name in ("dfn", "future"):
        rates = data[profile_name]["hit_rate"]
        data[f"gdstar_lead_{profile_name}"] = rates["gd*(1)"] - rates["lru"]
    sections.append(
        f"GD*(1) hit-rate lead over LRU: DFN "
        f"{data['gdstar_lead_dfn']:.3f} -> "
        f"future {data['gdstar_lead_future']:.3f}")
    return ExperimentReport("future-workload", settings.scale_name,
                            "\n\n".join(sections), data)


def _run_verify_claims(settings: ExperimentSettings) -> ExperimentReport:
    """Run every encoded paper claim and report PASS/FAIL."""
    from repro.experiments.claims import ClaimChecker, render_claim_table

    sweeps = {
        f"{profile_name}-{cost}": _grid(profile_name, policies, settings)
        for profile_name in ("dfn", "rtp")
        for cost, policies in (("const", _CONSTANT_POLICIES),
                               ("packet", _PACKET_POLICIES))
    }
    results = ClaimChecker(sweeps).run_all()
    text = render_claim_table(
        results,
        title=f"Paper-claim verification (scale={settings.scale_name})")
    data = {r.claim_id: {"passed": r.passed, "detail": r.detail}
            for r in results}
    return ExperimentReport("verify-claims", settings.scale_name, text,
                            data)


_RUNNERS: Dict[str, Callable[[ExperimentSettings], ExperimentReport]] = {
    "table1": _run_table1,
    "table2": partial(_breakdown_report, 2, "dfn"),
    "table3": partial(_breakdown_report, 3, "rtp"),
    "table4": partial(_statistics_report, 4, "dfn"),
    "table5": partial(_statistics_report, 5, "rtp"),
    "fig1": _run_fig1,
    "fig2": partial(
        _sweep_report, "fig2", "dfn", _CONSTANT_POLICIES,
        "Figure 2. DFN-like trace, constant cost model: hit rate and "
        "byte hit rate by document type"),
    "fig3": partial(
        _sweep_report, "fig3", "dfn", _PACKET_POLICIES,
        "Figure 3. DFN-like trace, packet cost model: hit rate and "
        "byte hit rate by document type"),
    "rtp-const": partial(
        _sweep_report, "rtp-const", "rtp", _CONSTANT_POLICIES,
        "Section 4.4. RTP-like trace, constant cost model"),
    "rtp-packet": partial(
        _sweep_report, "rtp-packet", "rtp", _PACKET_POLICIES,
        "Section 4.4. RTP-like trace, packet cost model"),
    "ablation-beta": _run_ablation_beta,
    "ablation-warmup": _run_ablation_warmup,
    "ablation-modification": _run_ablation_modification,
    "ablation-partition": _run_ablation_partition,
    "ablation-irm": _run_ablation_irm,
    "ablation-typed-beta": _run_ablation_typed_beta,
    "ablation-seeds": _run_ablation_seeds,
    "policy-zoo": _run_policy_zoo,
    "future-workload": _run_future_workload,
    "verify-claims": _run_verify_claims,
}


def run_experiment(experiment_id: str, scale: str = "small",
                   settings: Optional[ExperimentSettings] = None
                   ) -> ExperimentReport:
    """Run one experiment by id at the given scale."""
    key = check_experiment_id(experiment_id)
    if settings is None:
        settings = ExperimentSettings.for_scale(scale)
    return _RUNNERS[key](settings)


# --------------------------------------------------------------------------
# Fault-tolerant suite execution
# --------------------------------------------------------------------------

@dataclass
class SuiteFailure:
    """One experiment that failed permanently within a suite run."""

    experiment_id: str
    attempts: int
    error_type: str
    message: str


@dataclass
class SuiteResult:
    """Outcome of a :func:`run_suite` invocation.

    Attributes:
        reports: Completed reports, in requested order (checkpointed
            ones included).
        failures: Experiments that stayed broken after retries.
        executed: Ids actually run in this process.
        resumed: Ids whose reports were loaded from checkpoints.
    """

    reports: List[ExperimentReport] = field(default_factory=list)
    failures: List[SuiteFailure] = field(default_factory=list)
    executed: List[str] = field(default_factory=list)
    resumed: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.failures


def _suite_digest(settings: ExperimentSettings) -> str:
    """Hash of everything that changes experiment *results*: these
    settings and the code revision (a pre-fix report is never adopted).

    ``extra`` is deliberately excluded: execution knobs (worker
    counts, timeouts) alter how results are computed, not what they
    are, and must not invalidate checkpoints.
    """
    from repro.experiments.store import git_revision
    from repro.resilience.checkpoint import config_hash

    return config_hash({
        "scale": settings.scale,
        "seed": settings.seed,
        "size_fractions": list(settings.size_fractions),
        "occupancy_interval": settings.occupancy_interval,
        "revision": git_revision(),
    })


def _report_to_payload(report: ExperimentReport) -> dict:
    return asdict(report)


def _report_from_payload(payload: dict) -> ExperimentReport:
    return ExperimentReport(**payload)


def run_suite(experiment_ids: Optional[Sequence[str]] = None,
              scale: str = "small",
              settings: Optional[ExperimentSettings] = None,
              *,
              checkpoint_dir=None,
              resume: bool = False,
              max_retries: int = 1,
              failure_policy: str = "partial",
              telemetry_dir=None,
              progress: bool = False,
              profile_dir=None,
              sleep: Callable[[float], None] = time.sleep,
              on_report: Optional[Callable] = None,
              on_failure: Optional[Callable] = None) -> SuiteResult:
    """Run a batch of experiments with per-experiment fault isolation.

    Unlike looping over :func:`run_experiment`, one broken experiment
    cannot take down the batch: each is retried up to ``max_retries``
    times, a permanent failure is recorded as a
    :class:`SuiteFailure` (``failure_policy="partial"``, the default)
    or re-raised (``"raise"``), and — when ``checkpoint_dir`` is given
    — every completed experiment is checkpointed atomically so a
    killed run invoked again with ``resume=True`` re-runs only the
    missing ones.

    Checkpoints are keyed by the experiment id and validated against a
    hash of the result-bearing settings (scale, seed, size fractions)
    and the code revision; checkpoints from other configurations or
    revisions are ignored, never adopted.

    Args:
        experiment_ids: Ids to run (default: all, in DESIGN.md order).
        scale / settings: As for :func:`run_experiment`.
        checkpoint_dir: Directory for per-experiment checkpoints.
        resume: Load matching checkpoints instead of re-running.
        max_retries: Reruns allowed per failing experiment.
        failure_policy: ``"partial"`` records failures and continues;
            ``"raise"`` propagates the first permanent failure.
        telemetry_dir: When set, the run writes ``manifest.json`` and
            ``events.jsonl`` there and installs the event log as the
            process-wide sink, so nested layers (parallel sweeps, the
            trace reader, retries) land in the same stream.
        progress: Print a heartbeat/ETA line to stderr as experiments
            complete.
        profile_dir: When set, each experiment runs under cProfile and
            dumps ``<experiment_id>.prof`` there.
        sleep: Injectable backoff sleep (tests pass a no-op).
        on_report: Callback ``(report, from_checkpoint, elapsed)``
            after each experiment completes.
        on_failure: Callback ``(SuiteFailure)`` after each permanent
            failure (only with ``failure_policy="partial"``).
    """
    from repro.errors import ExperimentError
    from repro.resilience.checkpoint import CheckpointStore
    from repro.resilience.retry import RetryPolicy, retry_call

    if failure_policy not in ("partial", "raise"):
        raise ExperimentError(
            f"failure_policy must be 'partial' or 'raise', "
            f"got {failure_policy!r}")
    if resume and checkpoint_dir is None:
        raise ExperimentError("resume=True requires a checkpoint_dir")
    ids = [check_experiment_id(i) for i in
           (experiment_ids if experiment_ids is not None
            else EXPERIMENT_IDS)]
    if settings is None:
        settings = ExperimentSettings.for_scale(scale)

    store = (CheckpointStore(checkpoint_dir)
             if checkpoint_dir is not None else None)
    digest = _suite_digest(settings) if store is not None else None
    retry_policy = RetryPolicy(max_retries=max_retries, base_delay=0.1)

    telemetry: Optional[TelemetryRun] = None
    if telemetry_dir is not None:
        telemetry = TelemetryRun(
            telemetry_dir, kind="suite",
            settings={
                "experiment_ids": list(ids),
                "scale": settings.scale,
                "scale_name": settings.scale_name,
                "seed": settings.seed,
                "size_fractions": list(settings.size_fractions),
                "occupancy_interval": settings.occupancy_interval,
                "max_retries": max_retries,
                "failure_policy": failure_policy,
                "resume": resume,
            },
            install_sink=True)
    reporter = (ProgressReporter(total=len(ids), label="suite")
                if progress else None)

    suite = SuiteResult()
    try:
        for experiment_id in ids:
            if store is not None and resume and store.has(experiment_id):
                try:
                    payload = store.load(experiment_id, digest)
                except Exception:
                    payload = None  # wrong config or corrupt: re-run
                if payload is not None:
                    report = _report_from_payload(payload)
                    suite.reports.append(report)
                    suite.resumed.append(experiment_id)
                    emit("experiment_checkpoint_restored",
                         experiment_id=experiment_id)
                    if reporter is not None:
                        reporter.update(detail=f"{experiment_id} "
                                               "(checkpoint)")
                    if on_report is not None:
                        on_report(report, True, 0.0)
                    continue
            started = time.time()
            emit("experiment_started", experiment_id=experiment_id)

            def _on_retry(upcoming: int, exc: Exception,
                          eid: str = experiment_id) -> None:
                emit("experiment_retried", experiment_id=eid,
                     attempt=upcoming - 1,
                     error_type=type(exc).__name__)

            def _run_one(eid: str = experiment_id) -> ExperimentReport:
                profile_path = (Path(profile_dir) / f"{eid}.prof"
                                if profile_dir else None)
                with maybe_profile(profile_path):
                    return _RUNNERS[eid](settings)

            try:
                report = retry_call(_run_one, policy=retry_policy,
                                    sleep=sleep, on_retry=_on_retry)
            except Exception as exc:
                failure = SuiteFailure(
                    experiment_id=experiment_id,
                    attempts=retry_policy.max_attempts,
                    error_type=type(exc).__name__,
                    message=str(exc),
                )
                emit("experiment_failed", **asdict(failure))
                if failure_policy == "raise":
                    raise
                suite.failures.append(failure)
                if reporter is not None:
                    reporter.update(detail=f"{experiment_id} (failed)")
                if on_failure is not None:
                    on_failure(failure)
                continue
            elapsed = time.time() - started
            suite.reports.append(report)
            suite.executed.append(experiment_id)
            emit("experiment_finished", experiment_id=experiment_id,
                 duration_seconds=round(elapsed, 6))
            if store is not None:
                store.save(experiment_id, _report_to_payload(report),
                           digest)
            if reporter is not None:
                reporter.update(detail=experiment_id)
            if on_report is not None:
                on_report(report, False, elapsed)
    except BaseException:
        if telemetry is not None:
            telemetry.finalize("failed")
        raise
    if reporter is not None:
        reporter.finish()
    if telemetry is not None:
        telemetry.finalize("partial" if suite.failures else "complete")
    return suite
