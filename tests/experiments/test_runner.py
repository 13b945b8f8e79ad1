"""Tests for the experiment runners (all at tiny scale)."""

import ast
import math
from pathlib import Path

import pytest

import repro.experiments.runner as runner_module
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import ExperimentReport, run_experiment

pytestmark = pytest.mark.slow


@pytest.fixture(autouse=True)
def fresh_grids(monkeypatch):
    """Every test computes its own grids: one memoized by an earlier
    test must not satisfy a count."""
    monkeypatch.setattr(runner_module, "_GRIDS", {})


@pytest.fixture(scope="module")
def table2():
    return run_experiment("table2", scale="tiny")


def test_unknown_experiment():
    with pytest.raises(ExperimentError):
        run_experiment("fig99")


def test_table1_reports_both_traces():
    report = run_experiment("table1", scale="tiny")
    assert "DFN-like" in report.data
    assert "RTP-like" in report.data
    assert report.data["DFN-like"]["total_requests"] > \
        report.data["RTP-like"]["total_requests"]
    assert "Distinct Documents" in report.text


def test_table2_breakdown_sums(table2):
    assert isinstance(table2, ExperimentReport)
    for metric in table2.data.values():
        assert sum(metric.values()) == pytest.approx(100.0)


def test_table2_mix_matches_paper(table2):
    requests = table2.data["total_requests"]
    assert requests["image"] + requests["html"] > 85.0
    assert requests["multimedia"] < 1.0


def test_table3_rtp_contrast(table2):
    table3 = run_experiment("table3", scale="tiny")
    assert table3.data["total_requests"]["html"] > \
        table2.data["total_requests"]["html"]
    assert table3.data["distinct_documents"]["multimedia"] > \
        table2.data["distinct_documents"]["multimedia"]


def test_table4_structure():
    report = run_experiment("table4", scale="tiny")
    for doc_type in ("image", "html", "multimedia", "application"):
        row = report.data[doc_type]
        assert row["doc_mean_kb"] > 0
        assert row["transfer_mean_kb"] > 0
    # Application docs: mean far above median (the paper's observation).
    app = report.data["application"]
    assert app["doc_mean_kb"] > 2 * app["doc_median_kb"]


def test_fig1_occupancy_report():
    report = run_experiment("fig1", scale="tiny")
    assert "gds(1)" in report.data["policies"]
    assert "gd*(1)" in report.data["policies"]
    assert any(name.endswith(".csv") for name in report.artifacts)
    for policy_data in report.data["policies"].values():
        for row in policy_data.values():
            assert 0.0 <= row["mean_byte_fraction"] <= 1.0


def test_fig2_structure():
    report = run_experiment("fig2", scale="tiny")
    assert set(report.data["hit_rate"]) == {
        "overall", "image", "html", "multimedia", "application"}
    for bucket in report.data["hit_rate"].values():
        for policy, rates in bucket.items():
            assert len(rates) == len(report.data["capacities"])
            assert all(0.0 <= r <= 1.0 for r in rates)
    # CSV artifacts: one per (panel, metric).
    assert len(report.artifacts) == 10


def test_ablation_beta_report():
    report = run_experiment("ablation-beta", scale="tiny")
    assert "online" in report.data
    assert report.data["beta=0.5"]["final_beta"] == 0.5


def test_policy_zoo_report():
    report = run_experiment("policy-zoo", scale="tiny")
    assert "belady" in report.data
    # The clairvoyant bound tops every online policy's hit rate.
    belady = report.data["belady"]["hit_rate"]
    for name, stats in report.data.items():
        assert stats["hit_rate"] <= belady + 1e-9, name
    # Landlord at refresh=1 must coincide with GDS.
    assert report.data["landlord(1)"]["hit_rate"] == pytest.approx(
        report.data["gds(1)"]["hit_rate"])


def test_ablation_typed_beta_report():
    report = run_experiment("ablation-typed-beta", scale="tiny")
    assert "gd*t(1) / rtp" in report.data
    betas = report.data["gd*t(1) / rtp"]["final_betas"]
    assert set(betas) == {"image", "html", "multimedia", "application"}


def test_ablation_seeds_report():
    report = run_experiment("ablation-seeds", scale="tiny")
    assert report.data["seeds"] == 3
    assert 0 <= report.data["orderings_held"] <= 3


def test_ablation_modification_report():
    report = run_experiment("ablation-modification", scale="tiny")
    trusted = report.data["gds(1)/trusted"]
    any_change = report.data["gds(1)/any-change"]
    # The any-change rule manufactures extra invalidations.
    assert any_change["invalidations"] >= trusted["invalidations"]


# --------------------------------------------------------------------------
# One arm table: every experiment rides run_cells, every grid is
# computed once
# --------------------------------------------------------------------------

def test_runner_never_names_the_reference():
    """``CacheSimulator`` is what ``run_cells`` is compared against,
    not a second production path."""
    tree = ast.parse(Path(runner_module.__file__).read_text())
    names = {getattr(node, field, None) for node in ast.walk(tree)
             for field in ("id", "attr", "name")}
    assert "CacheSimulator" not in names


@pytest.mark.parametrize("experiment_id, passes", [
    ("fig1", 1), ("ablation-beta", 1), ("ablation-warmup", 1),
    ("ablation-modification", 1), ("ablation-partition", 1),
    ("ablation-irm", 2), ("ablation-typed-beta", 2),
    ("ablation-seeds", 3), ("policy-zoo", 1)])
def test_one_pass_per_distinct_trace(monkeypatch, experiment_id, passes):
    traces = []
    run_cells = runner_module.run_cells

    def counting(trace, cells, *args, **kwargs):
        traces.append(id(trace))
        return run_cells(trace, cells, *args, **kwargs)

    monkeypatch.setattr(runner_module, "run_cells", counting)
    run_experiment(experiment_id, scale="tiny")
    assert len(traces) == len(set(traces)) == passes


def test_every_grid_is_computed_once(monkeypatch):
    """fig2, verify-claims and future-workload need six distinct grids
    between them (DFN, RTP and future, each under both cost models)
    and ask for twelve."""
    computed = []
    run_sweep = runner_module.run_sweep

    def counting(trace, policies, capacities):
        computed.append((trace.name, tuple(policies)))
        return run_sweep(trace, policies, capacities)

    monkeypatch.setattr(runner_module, "run_sweep", counting)
    snapshots = {}
    for experiment_id in ("fig2", "verify-claims", "future-workload"):
        run_experiment(experiment_id, scale="tiny")
        for key, sweep in runner_module._GRIDS.items():
            snapshots.setdefault(key, sweep.as_dict())
    assert len(computed) == len(set(computed)) == 6
    # A grid handed to a second experiment is read, never written.
    assert {key: sweep.as_dict()
            for key, sweep in runner_module._GRIDS.items()} == snapshots


def test_sweep_workers_report_equals_in_process():
    in_process = run_experiment("fig2", scale="tiny")
    runner_module._GRIDS.clear()  # the key ignores how a grid was run
    settings = ExperimentSettings.for_scale(
        "tiny", extra={"sweep_workers": 2})
    assert run_experiment("fig2", settings=settings) == in_process


# --------------------------------------------------------------------------
# The paper-shape checks the per-experiment regeneration benches made
# --------------------------------------------------------------------------

def _at_largest(report, metric="hit_rate"):
    return {policy: rates[-1]
            for policy, rates in report.data[metric]["overall"].items()}


def _large_bytes(policy_data):
    return (policy_data["multimedia"]["mean_byte_fraction"]
            + policy_data["application"]["mean_byte_fraction"])


def _check_table1(report):
    assert report.data["DFN-like"]["total_requests"] > 0
    assert report.data["RTP-like"]["distinct_documents"] > 0


def _check_table3(report):
    # Paper: RTP has more multimedia and HTML traffic than DFN.
    assert report.data["total_requests"]["html"] > 30.0
    assert sum(report.data["requested_data"].values()) == \
        pytest.approx(100.0)


def _check_table4(report):
    # Paper: multimedia has the largest mean transfer sizes.
    assert report.data["multimedia"]["transfer_mean_kb"] > \
        report.data["image"]["transfer_mean_kb"]


def _check_table5(report):
    # Paper: image popularity most skewed (largest alpha) within a
    # trace.  Compare against HTML, the other class populous enough
    # for a stable fit at every scale.
    image_alpha = report.data["image"]["alpha"]
    assert not math.isnan(image_alpha)
    assert image_alpha > report.data["html"]["alpha"]


def _check_fig1(report):
    # The adaptability contrast: the packet-cost variant retains far
    # more multimedia+application bytes than the constant-cost one.
    policies = report.data["policies"]
    assert _large_bytes(policies["gd*(p)"]) > \
        _large_bytes(policies["gd*(1)"])
    assert len(report.artifacts) == 8


def _check_fig2(report):
    # Paper shape: GD*(1) tops overall hit rate; large caches beat small.
    at_largest = _at_largest(report)
    assert max(at_largest, key=at_largest.get) == "gd*(1)"
    for rates in report.data["hit_rate"]["overall"].values():
        assert rates[-1] >= rates[0]


def _check_fig3(report):
    # Paper shape: GD*(P) tops overall hit rate under packet cost.
    at_largest = _at_largest(report)
    assert max(at_largest, key=at_largest.get) == "gd*(p)"
    assert len(report.artifacts) == 10


def _check_rtp_const(report):
    # Same ordering as DFN: GD*(1) leads overall hit rate.
    at_largest = _at_largest(report)
    assert at_largest["gd*(1)"] >= at_largest["lru"]


def _check_rtp_packet(report):
    assert all(0.0 <= value <= 1.0 for value
               in _at_largest(report, "byte_hit_rate").values())


def _check_ablation_beta(report):
    assert report.data["beta=1.0"]["final_beta"] == 1.0
    for arm in report.data.values():
        assert 0.0 <= arm["hit_rate"] <= 1.0


def _check_ablation_warmup(report):
    # Counting cold-start misses (warm-up 0) can only lower the
    # reported hit rate relative to the paper's 10 % warm-up.
    assert report.data["lru@0.0"]["hit_rate"] <= \
        report.data["lru@0.1"]["hit_rate"] + 0.02


def _check_ablation_modification(report):
    # The any-change rule manufactures invalidations out of interrupted
    # transfers; the paper's rule does not.
    assert report.data["gds(1)/any-change"]["invalidations"] > \
        report.data["gds(1)/paper-rule"]["invalidations"]


def _check_ablation_partition(report):
    # Partitioning LRU by request shares must not be catastrophically
    # worse than monolithic LRU on hit rate.
    assert report.data["partitioned-lru"]["hit_rate"] > \
        0.5 * report.data["lru"]["hit_rate"]


def _check_ablation_irm(report):
    # Removing temporal correlation cannot help LRU (it lives off it).
    assert report.data["lru / irm"]["hit_rate"] <= \
        report.data["lru / power-law gaps"]["hit_rate"] + 0.02


def _check_ablation_typed_beta(report):
    # Per-type beta must never destroy overall performance.
    for trace_label in ("dfn", "rtp"):
        assert report.data[f"gd*t(1) / {trace_label}"]["hit_rate"] > \
            0.5 * report.data[f"gd*(1) / {trace_label}"]["hit_rate"]


def _check_ablation_seeds(report):
    assert report.data["orderings_held"] >= report.data["seeds"] - 1


def _check_future_workload(report):
    # Packet-cost byte hit rates stay sane on the heavy-multimedia mix.
    future = report.data["future"]["byte_hit_rate_packet"]
    assert all(0.0 <= value <= 1.0 for value in future.values())


PAPER_SHAPES = {
    "table1": _check_table1, "table3": _check_table3,
    "table4": _check_table4, "table5": _check_table5,
    "fig1": _check_fig1, "fig2": _check_fig2, "fig3": _check_fig3,
    "rtp-const": _check_rtp_const, "rtp-packet": _check_rtp_packet,
    "ablation-beta": _check_ablation_beta,
    "ablation-warmup": _check_ablation_warmup,
    "ablation-modification": _check_ablation_modification,
    "ablation-partition": _check_ablation_partition,
    "ablation-irm": _check_ablation_irm,
    "ablation-typed-beta": _check_ablation_typed_beta,
    "ablation-seeds": _check_ablation_seeds,
    "future-workload": _check_future_workload,
}


@pytest.mark.parametrize("experiment_id", list(PAPER_SHAPES))
def test_paper_shape(experiment_id):
    PAPER_SHAPES[experiment_id](run_experiment(experiment_id, scale="tiny"))
