"""Tests for the future-workload experiment and profile."""

import pytest

from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import run_experiment
from repro.types import DocumentType
from repro.workload.profiles import dfn_like, future_like, profile_by_name

pytestmark = pytest.mark.slow


class TestProfile:
    def test_realizes_the_conjecture(self):
        """Multimedia and application request shares substantially
        above the DFN baseline, per the paper's introduction."""
        dfn = dfn_like()
        future = future_like()
        mm, app = DocumentType.MULTIMEDIA, DocumentType.APPLICATION
        assert future.types[mm].request_share > \
            20 * dfn.types[mm].request_share
        assert future.types[app].request_share > \
            3 * dfn.types[app].request_share

    def test_validates_and_named(self):
        profile = future_like()
        profile.validate()
        assert profile.name == "future-like"
        assert profile_by_name("future").name == "future-like"


class TestExperiment:
    @pytest.fixture(scope="class")
    def report(self):
        return run_experiment("future-workload", scale="tiny")

    def test_both_workloads_reported(self, report):
        assert "dfn" in report.data
        assert "future" in report.data
        for bucket in (report.data["dfn"], report.data["future"]):
            assert set(bucket["hit_rate"]) == {
                "lru", "lfu-da", "gds(1)", "gd*(1)"}

    def test_multimedia_matters_more_in_future(self, report):
        """With 35x the multimedia traffic, the schemes' multimedia
        hit rates separate visibly (not the near-zero DFN noise)."""
        future_mm = report.data["future"]["mm_hit_rate"]
        assert future_mm["lru"] > 0.02
        # Size-aware constant-cost schemes still discard multimedia.
        assert future_mm["lru"] > future_mm["gd*(1)"]

    def test_headline_deltas_recorded(self, report):
        assert "gdstar_lead_dfn" in report.data
        assert "gdstar_lead_future" in report.data

    def test_seed_override_reaches_the_future_trace(self, report):
        """``--seed`` used to reseed only the DFN side of the
        comparison; the future trace was always drawn from seed 44."""
        seeded = run_experiment(
            "future-workload",
            settings=ExperimentSettings.for_scale("tiny", seed=7))
        assert seeded.data["dfn"] != report.data["dfn"]
        assert seeded.data["future"] != report.data["future"]
