"""Experiment implementations.

Each experiment returns an :class:`ExperimentReport` carrying rendered
text (tables / ASCII charts), machine-readable data (dict), and named
CSV artifacts for the figure experiments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.characterize import characterize
from repro.analysis.plotting import ascii_chart, series_to_csv
from repro.analysis.tables import (
    render_breakdown_table,
    render_properties_table,
    render_statistics_table,
    render_sweep_table,
    render_table,
)
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
from repro.simulation.simulator import (
    SimulationConfig,
    CacheSimulator,
    SizeInterpretation,
)
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


class _TraceCache:
    """Memoizes generated traces within one Python process."""

    def __init__(self):
        self._traces: Dict[tuple, Trace] = {}

    def get(self, profile_name: str, scale: float,
            seed: Optional[int]) -> Trace:
        key = (profile_name, scale, seed)
        if key not in self._traces:
            self._traces[key] = generate_trace(
                profile_by_name(profile_name, scale, seed))
        return self._traces[key]


_TRACES = _TraceCache()


def _dfn(settings: ExperimentSettings) -> Trace:
    return _TRACES.get("dfn", settings.scale, settings.seed)


def _rtp(settings: ExperimentSettings) -> Trace:
    return _TRACES.get("rtp", settings.scale, settings.seed)


def _future(settings: ExperimentSettings) -> Trace:
    return _TRACES.get("future", settings.scale, settings.seed)


# --------------------------------------------------------------------------
# Tables 1-5
# --------------------------------------------------------------------------

def _run_table1(settings: ExperimentSettings) -> ExperimentReport:
    chars = {
        "DFN-like": characterize(_dfn(settings), estimate_locality=False),
        "RTP-like": characterize(_rtp(settings), estimate_locality=False),
    }
    text = render_properties_table(
        chars, title=f"Table 1 (scale={settings.scale_name}). "
                     "Properties of DFN-like and RTP-like traces")
    data = {
        name: {
            "distinct_documents": c.metadata.distinct_documents,
            "total_requests": c.metadata.total_requests,
            "total_size_gb": c.metadata.total_size_gb,
            "requested_gb": c.metadata.requested_gb,
        }
        for name, c in chars.items()
    }
    return ExperimentReport("table1", settings.scale_name, text, data)


def _breakdown_report(experiment_id: str, trace: Trace, label: str,
                      settings: ExperimentSettings) -> ExperimentReport:
    char = characterize(trace, estimate_locality=False)
    text = render_breakdown_table(
        char, title=f"{label} (scale={settings.scale_name})")
    data = {
        "distinct_documents": {t.value: char.breakdown.distinct_documents[t]
                               for t in DOCUMENT_TYPES},
        "overall_size": {t.value: char.breakdown.overall_size[t]
                         for t in DOCUMENT_TYPES},
        "total_requests": {t.value: char.breakdown.total_requests[t]
                           for t in DOCUMENT_TYPES},
        "requested_data": {t.value: char.breakdown.requested_data[t]
                           for t in DOCUMENT_TYPES},
    }
    return ExperimentReport(experiment_id, settings.scale_name, text, data)


def _run_table2(settings: ExperimentSettings) -> ExperimentReport:
    return _breakdown_report(
        "table2", _dfn(settings),
        "Table 2. DFN-like trace: workload characteristics by type",
        settings)


def _run_table3(settings: ExperimentSettings) -> ExperimentReport:
    return _breakdown_report(
        "table3", _rtp(settings),
        "Table 3. RTP-like trace: workload characteristics by type",
        settings)


def _statistics_report(experiment_id: str, trace: Trace, label: str,
                       settings: ExperimentSettings) -> ExperimentReport:
    char = characterize(trace, estimate_locality=True)
    text = render_statistics_table(
        char, title=f"{label} (scale={settings.scale_name})")
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
    return ExperimentReport(experiment_id, settings.scale_name, text, data)


def _run_table4(settings: ExperimentSettings) -> ExperimentReport:
    return _statistics_report(
        "table4", _dfn(settings),
        "Table 4. DFN-like trace: sizes and temporal locality by type",
        settings)


def _run_table5(settings: ExperimentSettings) -> ExperimentReport:
    return _statistics_report(
        "table5", _rtp(settings),
        "Table 5. RTP-like trace: sizes and temporal locality by type",
        settings)


# --------------------------------------------------------------------------
# Figure 1: adaptability of GD*
# --------------------------------------------------------------------------

def _run_fig1(settings: ExperimentSettings) -> ExperimentReport:
    trace = _dfn(settings)
    capacity = cache_sizes_from_fractions(trace, [FIG1_SIZE_FRACTION])[0]
    interval = settings.occupancy_interval or max(len(trace) // 200, 1)

    runs = {}
    # The OCR of the paper drops the two policy names in Figure 1's
    # caption; the surrounding prose ("achieves high hit rates [by]
    # not wasting space on large documents" vs "keeps per-class shares
    # near the request mix, delivering even large documents") contrasts
    # the constant-cost and packet-cost behaviours, so we plot the
    # whole Greedy-Dual family under both cost models.
    for policy_name in ("gds(1)", "gd*(1)", "gds(p)", "gd*(p)"):
        config = SimulationConfig(
            capacity_bytes=capacity, policy=policy_name,
            occupancy_interval=interval)
        runs[policy_name] = CacheSimulator(config).run(trace)

    # Reference mixes the occupancy should adapt toward.
    char = characterize(trace, estimate_locality=False)
    request_mix = char.breakdown.total_requests

    sections: List[str] = [
        f"Figure 1 (scale={settings.scale_name}). Occupancy of the web "
        f"cache by document type; cache = {capacity / 1e6:,.0f} MB "
        f"({FIG1_SIZE_FRACTION:.0%} of trace bytes)."
    ]
    artifacts: Dict[str, str] = {}
    data: dict = {"capacity_bytes": capacity, "policies": {}}
    for policy_name, result in runs.items():
        tracker = result.occupancy
        rows = []
        for doc_type in PLOTTED_TYPES:
            rows.append([
                doc_type.label,
                request_mix[doc_type],
                100.0 * tracker.mean_fraction(doc_type, False),
                100.0 * tracker.variability(doc_type, False),
                100.0 * tracker.mean_fraction(doc_type, True),
                100.0 * tracker.variability(doc_type, True),
            ])
        sections.append(render_table(
            ["Type", "% of requests", "mean % cached docs",
             "spread docs", "mean % cached bytes", "spread bytes"],
            rows, title=f"-- {policy_name} --"))
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
            t.value: {
                "request_share_pct": request_mix[t],
                "mean_doc_fraction": tracker.mean_fraction(t, False),
                "doc_spread": tracker.variability(t, False),
                "mean_byte_fraction": tracker.mean_fraction(t, True),
                "byte_spread": tracker.variability(t, True),
            }
            for t in PLOTTED_TYPES
        }
    return ExperimentReport("fig1", settings.scale_name,
                            "\n\n".join(sections), data, artifacts)


# --------------------------------------------------------------------------
# Figures 2/3 and the RTP summaries: policy x size sweeps
# --------------------------------------------------------------------------

_CONSTANT_POLICIES = ("lru", "lfu-da", "gds(1)", "gd*(1)")
_PACKET_POLICIES = ("lru", "lfu-da", "gds(p)", "gd*(p)")


def _run_grid(trace: Trace, policies, capacities,
              settings: ExperimentSettings):
    """Run a sweep grid in one in-process pass, or across worker
    processes with fault tolerance when ``settings.extra`` carries
    ``sweep_workers`` (the CLI's ``--sweep-workers``, with
    ``--cell-timeout`` / ``--max-retries`` riding along).  Both are
    bit-identical."""
    workers = int(settings.extra.get("sweep_workers") or 0)
    if workers > 1:
        from repro.simulation.parallel import run_sweep_parallel

        return run_sweep_parallel(
            trace, policies, capacities,
            n_workers=workers,
            max_retries=int(settings.extra.get("max_retries", 2)),
            cell_timeout=settings.extra.get("cell_timeout"))
    return run_sweep(trace, policies, capacities)


def _sweep_report(experiment_id: str, trace: Trace, policies, label: str,
                  settings: ExperimentSettings) -> ExperimentReport:
    capacities = cache_sizes_from_fractions(trace, settings.size_fractions)
    sweep = _run_grid(trace, policies, capacities, settings)

    sections = [f"{label} (scale={settings.scale_name})"]
    artifacts: Dict[str, str] = {}
    data: dict = {"capacities": capacities, "hit_rate": {},
                  "byte_hit_rate": {}}
    panels = [None] + list(PLOTTED_TYPES)  # None = overall
    for doc_type in panels:
        key = doc_type.value if doc_type else "overall"
        data["hit_rate"][key] = {}
        data["byte_hit_rate"][key] = {}
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


def _run_fig2(settings: ExperimentSettings) -> ExperimentReport:
    return _sweep_report(
        "fig2", _dfn(settings), _CONSTANT_POLICIES,
        "Figure 2. DFN-like trace, constant cost model: hit rate and "
        "byte hit rate by document type", settings)


def _run_fig3(settings: ExperimentSettings) -> ExperimentReport:
    return _sweep_report(
        "fig3", _dfn(settings), _PACKET_POLICIES,
        "Figure 3. DFN-like trace, packet cost model: hit rate and "
        "byte hit rate by document type", settings)


def _run_rtp_const(settings: ExperimentSettings) -> ExperimentReport:
    return _sweep_report(
        "rtp-const", _rtp(settings), _CONSTANT_POLICIES,
        "Section 4.4. RTP-like trace, constant cost model", settings)


def _run_rtp_packet(settings: ExperimentSettings) -> ExperimentReport:
    return _sweep_report(
        "rtp-packet", _rtp(settings), _PACKET_POLICIES,
        "Section 4.4. RTP-like trace, packet cost model", settings)


# --------------------------------------------------------------------------
# Ablations
# --------------------------------------------------------------------------

def _run_ablation_beta(settings: ExperimentSettings) -> ExperimentReport:
    """GD*(1) with online β vs pinned β values."""
    trace = _dfn(settings)
    capacity = cache_sizes_from_fractions(trace, [0.01])[0]
    rows = []
    data = {}
    arms = [("online", None), ("beta=1.0", 1.0), ("beta=0.5", 0.5),
            ("beta=0.1", 0.1)]
    for arm_name, fixed in arms:
        from repro.core.registry import make_policy
        policy = make_policy("gd*(1)", fixed_beta=fixed)
        config = SimulationConfig(capacity_bytes=capacity, policy=policy)
        result = CacheSimulator(config).run(trace)
        rows.append([arm_name, result.hit_rate(), result.byte_hit_rate(),
                     result.final_beta])
        data[arm_name] = {"hit_rate": result.hit_rate(),
                          "byte_hit_rate": result.byte_hit_rate(),
                          "final_beta": result.final_beta}
    text = render_table(
        ["Arm", "Hit rate", "Byte hit rate", "Final beta"], rows,
        title=f"Ablation: GD*(1) beta estimation "
              f"(DFN-like, cache=1% of bytes, scale={settings.scale_name})",
        digits=3)
    return ExperimentReport("ablation-beta", settings.scale_name, text,
                            data)


def _run_ablation_warmup(settings: ExperimentSettings) -> ExperimentReport:
    """Sensitivity of reported rates to the warm-up fraction."""
    trace = _dfn(settings)
    capacity = cache_sizes_from_fractions(trace, [0.01])[0]
    rows = []
    data = {}
    for warmup in (0.0, 0.05, 0.10, 0.30):
        for policy_name in ("lru", "gd*(1)"):
            config = SimulationConfig(
                capacity_bytes=capacity, policy=policy_name,
                warmup_fraction=warmup)
            result = CacheSimulator(config).run(trace)
            rows.append([f"{policy_name} @ {warmup:.0%}",
                         result.hit_rate(), result.byte_hit_rate()])
            data[f"{policy_name}@{warmup}"] = {
                "hit_rate": result.hit_rate(),
                "byte_hit_rate": result.byte_hit_rate()}
    text = render_table(
        ["Arm", "Hit rate", "Byte hit rate"], rows,
        title=f"Ablation: warm-up fraction "
              f"(DFN-like, cache=1% of bytes, scale={settings.scale_name})",
        digits=3)
    return ExperimentReport("ablation-warmup", settings.scale_name, text,
                            data)


def _run_ablation_modification(settings: ExperimentSettings
                               ) -> ExperimentReport:
    """The paper's 5 % rule vs Jin & Bestavros' any-change rule.

    The paper attributes its one disagreement with [8] — GDS(1)'s byte
    hit rate on multimedia — to this choice: under any-change,
    interrupted multimedia transfers masquerade as modifications,
    inflating miss rates for exactly the large documents.
    """
    trace = _dfn(settings)
    capacity = cache_sizes_from_fractions(trace, [0.01])[0]
    rows = []
    data = {}
    for interp in (SizeInterpretation.TRUSTED,
                   SizeInterpretation.PAPER_RULE,
                   SizeInterpretation.ANY_CHANGE):
        for policy_name in ("gds(1)", "gd*(1)"):
            config = SimulationConfig(
                capacity_bytes=capacity, policy=policy_name,
                size_interpretation=interp)
            result = CacheSimulator(config).run(trace)
            mm = DocumentType.MULTIMEDIA
            rows.append([
                f"{policy_name} / {interp.value}",
                result.hit_rate(), result.byte_hit_rate(),
                result.byte_hit_rate(mm), result.invalidations])
            data[f"{policy_name}/{interp.value}"] = {
                "hit_rate": result.hit_rate(),
                "byte_hit_rate": result.byte_hit_rate(),
                "mm_byte_hit_rate": result.byte_hit_rate(mm),
                "invalidations": result.invalidations,
            }
    text = render_table(
        ["Arm", "Hit rate", "Byte hit rate", "MM byte hit rate",
         "Invalidations"], rows,
        title=f"Ablation: modification rule "
              f"(DFN-like, cache=1% of bytes, scale={settings.scale_name})",
        digits=3)
    return ExperimentReport("ablation-modification", settings.scale_name,
                            text, data)


def _run_ablation_partition(settings: ExperimentSettings
                            ) -> ExperimentReport:
    """Static type-partitioning vs the adaptive schemes.

    The paper's motivation — designing replacement schemes around
    document types — invites the explicit design: one capacity slice
    per type.  This ablation compares request-share-partitioned LRU
    against monolithic LRU and GD*(1) (whose utility function
    partitions *implicitly* and adaptively).
    """
    from repro.analysis.characterize import type_breakdown
    from repro.core.partitioned import (
        PartitionedCache, make_policy_factory, request_share_partitioning)
    from repro.simulation.simulator import CacheSimulator

    trace = _dfn(settings)
    capacity = cache_sizes_from_fractions(trace, [0.02])[0]
    shares = request_share_partitioning(
        type_breakdown(trace).total_requests)

    rows = []
    data = {}

    def record(label, result):
        mm = DocumentType.MULTIMEDIA
        rows.append([label, result.hit_rate(), result.byte_hit_rate(),
                     result.hit_rate(mm)])
        data[label] = {"hit_rate": result.hit_rate(),
                       "byte_hit_rate": result.byte_hit_rate(),
                       "mm_hit_rate": result.hit_rate(mm)}

    for policy_name in ("lru", "gd*(1)"):
        config = SimulationConfig(capacity_bytes=capacity,
                                  policy=policy_name)
        record(policy_name, CacheSimulator(config).run(trace))
    for arm, factory_name in (("partitioned-lru", "lru"),
                              ("partitioned-gds(1)", "gds(1)")):
        cache = PartitionedCache(
            capacity, shares=shares,
            policy_factory=make_policy_factory(factory_name))
        config = SimulationConfig(capacity_bytes=capacity, policy="lru")
        result = CacheSimulator(config, cache=cache).run(trace)
        record(arm, result)

    text = render_table(
        ["Arm", "Hit rate", "Byte hit rate", "MM hit rate"], rows,
        title=f"Ablation: static type partitioning "
              f"(DFN-like, cache=2% of bytes, scale={settings.scale_name})",
        digits=3)
    return ExperimentReport("ablation-partition", settings.scale_name,
                            text, data)


def _run_ablation_irm(settings: ExperimentSettings) -> ExperimentReport:
    """Temporal correlation on vs off (Independent Reference Model).

    Regenerates the DFN-like workload with identical popularity and
    sizes but uniform reference placement, isolating how much of each
    scheme's performance comes from short-term temporal correlation.
    """
    gaps_trace = _dfn(settings)
    irm_trace = generate_trace(
        profile_by_name("dfn", settings.scale, settings.seed),
        temporal_model="irm")

    rows = []
    data = {}
    capacity = cache_sizes_from_fractions(gaps_trace, [0.02])[0]
    for arm, trace in (("power-law gaps", gaps_trace),
                       ("irm", irm_trace)):
        for policy_name in ("lru", "gd*(1)"):
            config = SimulationConfig(capacity_bytes=capacity,
                                      policy=policy_name)
            result = CacheSimulator(config).run(trace)
            label = f"{policy_name} / {arm}"
            rows.append([label, result.hit_rate(),
                         result.byte_hit_rate()])
            data[label] = {"hit_rate": result.hit_rate(),
                           "byte_hit_rate": result.byte_hit_rate()}
    text = render_table(
        ["Arm", "Hit rate", "Byte hit rate"], rows,
        title=f"Ablation: temporal correlation vs IRM "
              f"(DFN-like, cache=2% of bytes, scale={settings.scale_name})",
        digits=3)
    return ExperimentReport("ablation-irm", settings.scale_name, text,
                            data)


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

    rows = []
    data = {}
    for trace_label, trace in (("dfn", _dfn(settings)),
                               ("rtp", _rtp(settings))):
        capacity = cache_sizes_from_fractions(trace, [0.02])[0]
        for policy_name in ("gd*(1)", "gd*t(1)", "gd*(p)", "gd*t(p)"):
            config = SimulationConfig(capacity_bytes=capacity,
                                      policy=policy_name)
            simulator = CacheSimulator(config)
            result = simulator.run(trace)
            label = f"{policy_name} / {trace_label}"
            mm = DocumentType.MULTIMEDIA
            betas = None
            if isinstance(simulator.policy, GDStarTypedPolicy):
                betas = {t.value: round(simulator.policy.beta(t), 3)
                         for t in PLOTTED_TYPES}
            rows.append([label, result.hit_rate(),
                         result.byte_hit_rate(),
                         result.hit_rate(mm),
                         result.byte_hit_rate(mm)])
            data[label] = {"hit_rate": result.hit_rate(),
                           "byte_hit_rate": result.byte_hit_rate(),
                           "mm_hit_rate": result.hit_rate(mm),
                           "mm_byte_hit_rate": result.byte_hit_rate(mm),
                           "final_betas": betas}
    text = render_table(
        ["Arm", "Hit rate", "Byte hit rate", "MM hit rate", "MM BHR"],
        rows,
        title=f"Ablation: aggregate vs per-type beta in GD* "
              f"(cache=2% of bytes, scale={settings.scale_name})",
        digits=3)
    return ExperimentReport("ablation-typed-beta", settings.scale_name,
                            text, data)


def _run_ablation_seeds(settings: ExperimentSettings) -> ExperimentReport:
    """Seed sensitivity of the headline orderings.

    Regenerates the DFN-like workload under several seeds and checks
    that the Figure-2 hit-rate ordering (GD*(1) > GDS(1) > LFU-DA >
    LRU) is a property of the workload *statistics*, not of one random
    draw.  Wilson intervals quantify the per-seed uncertainty.
    """
    from repro.analysis.confidence import hit_rate_interval

    seeds = (42, 1042, 2042)
    rows = []
    data = {}
    orderings_held = 0
    for seed in seeds:
        trace = _TRACES.get("dfn", settings.scale, seed)
        capacity = cache_sizes_from_fractions(trace, [0.02])[0]
        rates = {}
        for policy_name in _CONSTANT_POLICIES:
            config = SimulationConfig(capacity_bytes=capacity,
                                      policy=policy_name)
            result = CacheSimulator(config).run(trace)
            interval = hit_rate_interval(result)
            rates[policy_name] = result.hit_rate()
            rows.append([f"seed {seed} / {policy_name}",
                         result.hit_rate(), interval.lower,
                         interval.upper])
            data[f"{seed}/{policy_name}"] = {
                "hit_rate": result.hit_rate(),
                "ci_lower": interval.lower,
                "ci_upper": interval.upper,
            }
        ordered = (rates["gd*(1)"] > rates["gds(1)"]
                   > rates["lfu-da"] > rates["lru"])
        orderings_held += ordered
    data["orderings_held"] = orderings_held
    data["seeds"] = len(seeds)
    rows.append([f"ordering held on {orderings_held}/{len(seeds)} seeds",
                 None, None, None])
    text = render_table(
        ["Arm", "Hit rate", "95% lower", "95% upper"], rows,
        title=f"Ablation: seed sensitivity (DFN-like, cache=2% of "
              f"bytes, scale={settings.scale_name})",
        digits=3)
    return ExperimentReport("ablation-seeds", settings.scale_name, text,
                            data)


def _run_policy_zoo(settings: ExperimentSettings) -> ExperimentReport:
    """Every implemented policy on the DFN-like trace, plus bounds.

    The Arlitt-Friedrich-Jin-style wide comparison the paper cites:
    the four paper schemes, the classical baselines, the extension
    policies, admission control, and the clairvoyant Belady ceiling,
    at one cache size.
    """
    from repro.core.admission import SecondHitAdmission
    from repro.core.belady import BeladyPolicy, compute_next_uses
    from repro.core.registry import make_policy

    trace = _dfn(settings)
    capacity = cache_sizes_from_fractions(trace, [0.02])[0]
    contenders = [
        "rand", "fifo", "lru", "lru-2", "slru", "lru-threshold",
        "size", "lfu", "lfu-da", "gds(1)", "gdsf(1)", "gd*(1)",
        "gd*t(1)", "landlord(1)", "hyperbolic(1)",
        "gds(p)", "gd*(p)",
    ]
    rows = []
    data = {}

    def run_one(label, policy):
        config = SimulationConfig(capacity_bytes=capacity, policy=policy)
        result = CacheSimulator(config).run(trace)
        rows.append([label, result.hit_rate(), result.byte_hit_rate()])
        data[label] = {"hit_rate": result.hit_rate(),
                       "byte_hit_rate": result.byte_hit_rate()}

    for name in contenders:
        run_one(name, make_policy(name))
    run_one("2hit+lru", SecondHitAdmission(make_policy("lru")))
    run_one("belady", BeladyPolicy(compute_next_uses(trace.requests)))

    rows.sort(key=lambda row: row[1], reverse=True)
    text = render_table(
        ["Policy", "Hit rate", "Byte hit rate"], rows,
        title=f"Policy zoo (DFN-like, cache=2% of bytes, "
              f"scale={settings.scale_name}), sorted by hit rate",
        digits=3)
    return ExperimentReport("policy-zoo", settings.scale_name, text,
                            data)


def _run_future_workload(settings: ExperimentSettings) -> ExperimentReport:
    """The paper's own prediction, tested against its conclusions.

    The introduction conjectures future workloads with far more
    multimedia and application traffic.  ``future_like()`` realizes
    that conjecture (multimedia requests ×35, application ×4 over the
    DFN mix); this experiment reruns the paper's comparison on it and
    reports which recommendations survive.
    """
    future = _future(settings)
    dfn = _dfn(settings)

    sections = [
        f"Future workload (the paper's introduction conjecture) vs "
        f"DFN baseline (scale={settings.scale_name})."
    ]
    data: dict = {}
    for trace_label, trace in (("dfn", dfn), ("future", future)):
        capacities = cache_sizes_from_fractions(
            trace, settings.size_fractions)
        const = _run_grid(trace, _CONSTANT_POLICIES, capacities,
                          settings)
        packet = _run_grid(trace, _PACKET_POLICIES, capacities,
                           settings)
        sections.append(render_sweep_table(
            const, title=f"{trace_label}: overall hit rate "
                         f"(constant cost)"))
        sections.append(render_sweep_table(
            packet, byte_rate=True,
            title=f"{trace_label}: overall byte hit rate (packet cost)"))
        data[trace_label] = {
            "hit_rate": {p: const.series(p)[-1][1]
                         for p in const.policies},
            "byte_hit_rate_packet": {p: packet.series(
                p, byte_rate=True)[-1][1] for p in packet.policies},
            "mm_hit_rate": {p: const.series(
                p, DocumentType.MULTIMEDIA)[-1][1]
                for p in const.policies},
        }

    # Headline deltas.
    dfn_gap = (data["dfn"]["hit_rate"]["gd*(1)"]
               - data["dfn"]["hit_rate"]["lru"])
    future_gap = (data["future"]["hit_rate"]["gd*(1)"]
                  - data["future"]["hit_rate"]["lru"])
    data["gdstar_lead_dfn"] = dfn_gap
    data["gdstar_lead_future"] = future_gap
    sections.append(
        f"GD*(1) hit-rate lead over LRU: DFN {dfn_gap:.3f} -> "
        f"future {future_gap:.3f}")
    return ExperimentReport("future-workload", settings.scale_name,
                            "\n\n".join(sections), data)


def _run_verify_claims(settings: ExperimentSettings) -> ExperimentReport:
    """Run every encoded paper claim and report PASS/FAIL."""
    from repro.experiments.claims import ClaimChecker, render_claim_table

    dfn = _dfn(settings)
    rtp = _rtp(settings)
    dfn_caps = cache_sizes_from_fractions(dfn, settings.size_fractions)
    rtp_caps = cache_sizes_from_fractions(rtp, settings.size_fractions)
    sweeps = {
        "dfn-const": _run_grid(dfn, _CONSTANT_POLICIES, dfn_caps,
                               settings),
        "dfn-packet": _run_grid(dfn, _PACKET_POLICIES, dfn_caps,
                                settings),
        "rtp-const": _run_grid(rtp, _CONSTANT_POLICIES, rtp_caps,
                               settings),
        "rtp-packet": _run_grid(rtp, _PACKET_POLICIES, rtp_caps,
                                settings),
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
    "table2": _run_table2,
    "table3": _run_table3,
    "table4": _run_table4,
    "table5": _run_table5,
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "rtp-const": _run_rtp_const,
    "rtp-packet": _run_rtp_packet,
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
    """Hash of every setting that changes experiment *results*.

    ``extra`` is deliberately excluded: execution knobs (worker
    counts, timeouts) alter how results are computed, not what they
    are, and must not invalidate checkpoints.
    """
    from repro.resilience.checkpoint import config_hash

    return config_hash({
        "scale": settings.scale,
        "seed": settings.seed,
        "size_fractions": list(settings.size_fractions),
        "occupancy_interval": settings.occupancy_interval,
    })


def _report_to_payload(report: ExperimentReport) -> dict:
    return {
        "experiment_id": report.experiment_id,
        "scale_name": report.scale_name,
        "text": report.text,
        "data": report.data,
        "artifacts": report.artifacts,
    }


def _report_from_payload(payload: dict) -> ExperimentReport:
    return ExperimentReport(
        experiment_id=payload["experiment_id"],
        scale_name=payload["scale_name"],
        text=payload["text"],
        data=payload.get("data", {}),
        artifacts=payload.get("artifacts", {}),
    )


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
    hash of the result-bearing settings (scale, seed, size fractions);
    checkpoints from other configurations are ignored, never adopted.

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
                emit("experiment_failed", experiment_id=experiment_id,
                     attempts=retry_policy.max_attempts,
                     error_type=type(exc).__name__, message=str(exc))
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
