"""Tests for the ``model`` subcommand of the experiments CLI."""

import json

import pytest

from repro.experiments.cli import main as experiments_main
from repro.model.cli import main as model_main
from repro.trace.writer import write_trace

BASE = ["--profile", "uniform", "--profile-scale", "0.02"]


def run(capsys, argv):
    code = model_main(argv)
    return code, capsys.readouterr().out


class TestPredict:
    def test_table_output(self, capsys):
        code, out = run(capsys, ["predict", "--capacity", "200000",
                                 *BASE])
        assert code == 0
        assert "hit rate" in out
        assert "lru" in out

    def test_json_output(self, capsys):
        code, out = run(capsys, ["predict", "--capacity", "200000",
                                 "--json", *BASE])
        payload = json.loads(out)
        assert code == 0
        assert payload["policy"] == "lru"
        assert 0.0 <= payload["hit_rate"] <= 1.0
        assert payload["per_type"]

    def test_hierarchy(self, capsys):
        code, out = run(capsys, ["predict", "--capacity", "100000",
                                 "--parent-capacity", "400000",
                                 "--json", *BASE])
        payload = json.loads(out)
        assert code == 0
        assert payload["combined_hit_rate"] >= \
            payload["child"]["hit_rate"] - 1e-12

    def test_source_required(self, capsys):
        code = model_main(["predict", "--capacity", "1000"])
        assert code == 2  # ConfigurationError path

    def test_both_sources_rejected(self, capsys, tmp_path):
        code = model_main(["predict", "--capacity", "1000",
                           "--trace", "x.csv", *BASE])
        assert code == 2


class TestCurve:
    def test_default_fractions(self, capsys):
        code, out = run(capsys, ["curve", "--json", *BASE])
        payload = json.loads(out)
        assert code == 0
        assert len(payload) == 4  # the paper's ladder
        capacities = [p["capacity_bytes"] for p in payload]
        assert capacities == sorted(capacities)

    def test_explicit_capacities(self, capsys):
        code, out = run(capsys, ["curve", "--capacities",
                                 "100000,300000", "--policy", "fifo",
                                 "--json", *BASE])
        payload = json.loads(out)
        assert code == 0
        assert [p["policy"] for p in payload] == ["fifo", "fifo"]

    def test_trace_calibration_single_pass(self, capsys, tmp_path,
                                           tiny_uniform_trace):
        path = tmp_path / "trace.csv"
        write_trace(path, tiny_uniform_trace)
        code, out = run(capsys, ["curve", "--trace", str(path),
                                 "--json"])
        payload = json.loads(out)
        assert code == 0
        assert len(payload) == 4


class TestValidate:
    def test_gate_passes_on_irm(self, capsys):
        code, out = run(capsys, ["validate", *BASE, "--irm",
                                 "--policies", "lru",
                                 "--fractions", "0.01,0.04",
                                 "--max-mae", "0.05"])
        assert code == 0
        assert "MAE" in out

    def test_gate_fails_on_absurd_tolerance(self, capsys):
        code, _ = run(capsys, ["validate", *BASE, "--irm",
                               "--policies", "lru",
                               "--fractions", "0.01",
                               "--max-mae", "0.0000001"])
        assert code == 1

    def test_report_written(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, _ = run(capsys, ["validate", *BASE, "--irm",
                               "--policies", "lru",
                               "--fractions", "0.01",
                               "--report", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["cells"]


    def test_rcol_trace_builds_no_request(self, capsys, tmp_path,
                                          monkeypatch):
        """``--trace x.rcol`` calibrates and simulates from the mapped
        columns: with Request construction made to fail, its report is
        byte-identical to the report of the profile it was written
        from (the CI model-validation guard, smaller)."""
        from repro.trace.cli import main as trace_main

        rcol = tmp_path / "dfn-irm.rcol"
        assert trace_main(["generate", "dfn", "--irm", "--scale",
                           "0.001", "-o", str(rcol)]) == 0
        common = ["--policies", "lru", "--fractions", "0.01,0.04"]
        profile_report = tmp_path / "profile.json"
        assert run(capsys, ["validate", "--profile", "dfn",
                            "--profile-scale", "0.001", "--irm",
                            *common, "--report",
                            str(profile_report)])[0] == 0

        def no_request(*args, **kwargs):
            raise AssertionError("a Request was built")

        monkeypatch.setattr("repro.trace.columnar.Request", no_request)
        rcol_report = tmp_path / "rcol.json"
        assert run(capsys, ["validate", "--trace", str(rcol), *common,
                            "--report", str(rcol_report)])[0] == 0
        assert rcol_report.read_bytes() == profile_report.read_bytes()


class TestDispatchAndTelemetry:
    def test_experiments_cli_dispatches_model(self, capsys):
        code = experiments_main(["model", "predict", "--capacity",
                                 "200000", *BASE])
        assert code == 0
        assert "hit rate" in capsys.readouterr().out

    def test_telemetry_run_written(self, capsys, tmp_path):
        from repro.observability import read_events, \
            validate_telemetry_dir

        run_dir = tmp_path / "telemetry"
        code, _ = run(capsys, ["curve", *BASE, "--telemetry-dir",
                               str(run_dir)])
        assert code == 0
        assert validate_telemetry_dir(run_dir) == []
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["kind"] == "model-curve"
        assert manifest["status"] == "complete"
        events = read_events(run_dir / "events.jsonl")
        assert any(e["event"] == "model_curve_computed"
                   for e in events)
