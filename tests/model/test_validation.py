"""Tests for the model-vs-simulation validation harness.

Includes the acceptance pin for this subsystem: on a synthetic
IRM-leaning workload the Che LRU curve stays within 2 percentage
points MAE of the shared-pass simulator across the paper's 4-capacity
grid.
"""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.model.validation import (HIERARCHY_FRACTION_PAIRS,
                                   validate_hierarchy, validate_model)
from repro.simulation.sweep import (PAPER_SIZE_FRACTIONS,
                                    cache_sizes_from_fractions)
from repro.trace.columnar import TraceColumns
from repro.workload.generator import generate_trace
from repro.workload.profiles import dfn_like


@pytest.fixture(scope="module")
def report(irm_trace):
    return validate_model(irm_trace, policies=("lru", "fifo"))


class TestValidate:
    def test_grid_shape(self, report):
        assert len(report.cells) == 2 * len(PAPER_SIZE_FRACTIONS)
        assert report.policies == ["lru", "fifo"]
        ladder = [c.capacity_bytes for c in report.cells
                  if c.policy == "lru"]
        assert ladder == sorted(ladder)

    def test_lru_mae_within_two_points(self, report):
        """The ISSUE acceptance criterion, enforced in-tree."""
        assert report.policy_mean_absolute_error("lru") <= 0.02

    def test_all_policies_mae_within_tolerance(self, report):
        # The non-reset family is slightly looser but still close on
        # an IRM trace.
        assert report.mean_absolute_error <= 0.03
        assert report.max_absolute_error <= 0.05

    def test_per_type_errors_recorded(self, report):
        cell = report.cells[0]
        assert cell.per_type
        for entry in cell.per_type.values():
            assert entry["hit_rate_error"] == pytest.approx(
                abs(entry["predicted_hit_rate"]
                    - entry["simulated_hit_rate"]))

    def test_byte_hit_rates_tracked(self, report):
        assert 0.0 <= report.byte_mean_absolute_error <= 0.1

    def test_unknown_policy_rejected(self, irm_trace):
        with pytest.raises(ConfigurationError):
            validate_model(irm_trace, policies=("gd*(1)",))

    def test_no_policies_rejected(self, irm_trace):
        with pytest.raises(ConfigurationError):
            validate_model(irm_trace, policies=())

    def test_unlisted_policy_mae_rejected(self, report):
        with pytest.raises(ConfigurationError):
            report.policy_mean_absolute_error("random")


class TestReportSerialization:
    def test_as_dict(self, report):
        payload = report.as_dict()
        assert payload["cells"]
        assert payload["per_policy_mean_absolute_error"].keys() == \
            {"lru", "fifo"}
        assert payload["mean_absolute_error"] == \
            report.mean_absolute_error

    def test_save_roundtrip(self, report, tmp_path):
        path = report.save(tmp_path / "report.json")
        loaded = json.loads(path.read_text())
        assert loaded == report.as_dict()

    def test_text_table(self, report):
        text = report.text()
        assert "hit-rate MAE" in text
        assert "lru" in text
        # One row per cell plus headers/footers.
        assert len(text.splitlines()) >= len(report.cells) + 3

    def test_empty_report_aggregates(self):
        from repro.model.validation import ValidationReport

        empty = ValidationReport(trace_name="x", total_requests=0,
                                 warmup_fraction=0.0)
        assert empty.mean_absolute_error == 0.0
        assert empty.max_absolute_error == 0.0


class TestWarmup:
    def test_warmup_applies_to_both_stacks(self, irm_trace):
        report = validate_model(irm_trace, policies=("lru",),
                                fractions=(0.01,),
                                warmup_fraction=0.3)
        assert report.warmup_fraction == 0.3
        # The warmup generalization stays honest too.
        assert report.mean_absolute_error <= 0.04


class TestValidateHierarchy:
    """The simulated side of ``validate_hierarchy`` is one
    ``run_network_cells`` call over the whole ladder; its numbers are
    pinned to what the per-cell walk produced before that change."""

    GOLDEN = json.loads((Path(__file__).parent / "data"
                         / "golden_validate_hierarchy.json").read_text())

    def test_simulated_side_pinned(self):
        trace = generate_trace(dfn_like(scale=1.0 / 512.0),
                               temporal_model="irm")
        report = validate_hierarchy(
            trace, policies=("lru", "fifo"),
            fraction_pairs=((0.005, 0.02), (0.01, 0.04))).as_dict()
        pinned = self.GOLDEN["cells"]
        assert len(report["cells"]) == len(pinned)
        for cell, expected in zip(report["cells"], pinned):
            assert {key: cell[key] for key in expected} == expected
        for key in ("total_requests", "n_children", "warmup_fraction"):
            assert report[key] == self.GOLDEN[key]
        assert report["mean_absolute_error"] <= 0.03

    def test_trace_size_is_read_once(self, monkeypatch):
        """Every capacity pair is sized from one read of the trace's
        total bytes, to the capacities each pair sizes to alone."""
        trace = generate_trace(dfn_like(scale=1.0 / 512.0),
                               temporal_model="irm")
        calls = []
        metadata = TraceColumns.metadata

        def spy(columns):
            calls.append(columns)
            return metadata(columns)

        monkeypatch.setattr(TraceColumns, "metadata", spy)
        report = validate_hierarchy(trace, policies=("lru", "fifo"))
        assert len(calls) == 1
        sizes = [cache_sizes_from_fractions(calls[0], pair)
                 for pair in HIERARCHY_FRACTION_PAIRS]
        assert [(cell.policy, cell.child_capacity_bytes,
                 cell.parent_capacity_bytes) for cell in report.cells] == [
            (policy, *pair) for policy in ("lru", "fifo")
            for pair in sizes]
