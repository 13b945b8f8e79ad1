"""Service observability: per-type payloads, spans, status, CLI."""

import json
import time

import pytest

from repro.experiments.service import (
    TrialSpec,
    execute_trial,
    main,
    open_service,
    service_status,
    work,
)
from repro.observability.events import (
    EventLog,
    read_events,
    set_event_sink,
)
from repro.observability.trace import disable_tracing, enable_tracing
from repro.types import DocumentType

TINY = 1 / 512


@pytest.fixture(autouse=True)
def _clean_globals():
    yield
    set_event_sink(None)
    disable_tracing()


def make_spec(**overrides):
    base = dict(trace="dfn", scale=TINY, policy="lru",
                size_fraction=0.01, seed=42)
    base.update(overrides)
    return TrialSpec(**base)


class TestPerTypePayload:
    def test_payload_breaks_hit_rate_down_by_document_type(self):
        payload = execute_trial(make_spec())
        rates = payload["type_hit_rates"]
        assert set(rates) == {t.value for t in DocumentType}
        for value in rates.values():
            assert isinstance(value, float)
            assert 0.0 <= value <= 1.0

    def test_per_type_rates_are_deterministic(self):
        first = execute_trial(make_spec())
        second = execute_trial(make_spec())
        assert first["type_hit_rates"] == second["type_hit_rates"]


class TestWorkerSpans:
    def test_work_emits_worker_and_trial_spans(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        set_event_sink(log)
        enable_tracing()
        queue, store = open_service(tmp_path / "svc")
        queue.enqueue(make_spec().as_dict())
        executed = work(queue, store, max_trials=1)
        log.close()
        assert executed == 1
        spans = read_events(tmp_path / "events.jsonl", event="span")
        by_name = {s["name"]: s for s in spans}
        assert by_name["worker"]["attributes"]["executed"] == 1
        trial = by_name["trial"]
        assert trial["parent_id"] == by_name["worker"]["span_id"]
        assert trial["trace_id"] == by_name["worker"]["trace_id"]
        assert trial["attributes"]["policy"] == "lru"
        assert trial["attributes"]["seed"] == 42
        assert trial["attributes"]["attempt"] == 1
        assert trial["status"] == "ok"

    def test_marker_only_reexecution_is_attributed(self, tmp_path):
        queue, store = open_service(tmp_path / "svc")
        queue.enqueue(make_spec().as_dict())
        work(queue, store, max_trials=1)
        # simulate a worker that died between its store append and its
        # done marker: the record exists, only the marker is left
        for marker in queue.done_dir.glob("*.json"):
            marker.unlink()
        log = EventLog(tmp_path / "events.jsonl")
        set_event_sink(log)
        enable_tracing()
        work(queue, store, max_trials=1)
        log.close()
        spans = read_events(tmp_path / "events.jsonl", event="span")
        (trial,) = [s for s in spans if s["name"] == "trial"]
        assert trial["attributes"].get("outcome") == "marker_only"


class TestStatusWorkers:
    def test_lease_holder_heartbeat_and_attempts(self, tmp_path):
        queue, store = open_service(tmp_path, owner="host:9")
        queue.enqueue(make_spec().as_dict())
        claimed = queue.claim()
        assert claimed is not None
        status = service_status(tmp_path)
        (worker,) = status["workers"]
        assert worker["trial_id"] == claimed.trial_id
        assert worker["owner"] == "host:9"
        assert worker["attempt"] == 1
        assert worker["stale"] is False
        assert worker["heartbeat_age_seconds"] is not None
        assert worker["heartbeat_age_seconds"] >= 0.0

    def test_stale_lease_is_reported_stale(self, tmp_path):
        queue, store = open_service(tmp_path, owner="host:9")
        queue.enqueue(make_spec().as_dict())
        claimed = queue.claim()
        assert claimed is not None
        # back-date the heartbeat far beyond any TTL
        lease_path = queue.leases.directory \
            / f"{claimed.trial_id}.lease"
        holder = json.loads(lease_path.read_text())
        holder["renewed_at"] = time.time() - 10_000
        lease_path.write_text(json.dumps(holder))
        status = service_status(tmp_path)
        (worker,) = status["workers"]
        assert worker["stale"] is True
        assert worker["heartbeat_age_seconds"] > 9_000

    def test_no_leases_means_no_workers(self, tmp_path):
        open_service(tmp_path)
        assert service_status(tmp_path)["workers"] == []


class TestCliVerbs:
    def _drained_root(self, tmp_path):
        root = tmp_path / "svc"
        assert main(["--root", str(root), "enqueue",
                     "--policies", "lru", "gds(1)",
                     "--size-fractions", "0.01",
                     "--seeds", "42", "1042"]) == 0
        assert main(["--root", str(root), "work",
                     "--telemetry-dir",
                     str(root / "telemetry")]) == 0
        return root

    def test_work_spills_each_trace_once_under_the_root(
            self, tmp_path, capsys, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_SERVICE_TRACE_DIR", raising=False)
        root = self._drained_root(tmp_path)
        # Four trials, two seeds: one .rcol per (profile, scale, seed).
        assert sorted(p.name.rsplit("-", 1)[1]
                      for p in (root / "traces").iterdir()) == \
            ["1042.rcol", "42.rcol"]
        assert "REPRO_SERVICE_TRACE_DIR" not in os.environ
        # How the trace is held is not an option any more.
        with pytest.raises(SystemExit) as exit_info:
            main(["--root", str(root), "work",
                  "--trace-format", "columnar"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_work_writes_telemetry_spans(self, tmp_path, capsys):
        root = self._drained_root(tmp_path)
        capsys.readouterr()
        files = sorted((root / "telemetry").glob("events*.jsonl"))
        assert files
        spans = []
        for path in files:
            spans.extend(read_events(path, event="span"))
        names = {s["name"] for s in spans}
        assert {"worker", "trial"} <= names

    def test_status_watch_paints_dashboard(self, tmp_path, capsys):
        root = self._drained_root(tmp_path)
        capsys.readouterr()
        assert main(["--root", str(root), "status", "--watch",
                     "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "service dashboard" in out
        assert "done=4" in out

    def test_report_html_is_written_with_waterfall(self, tmp_path,
                                                   capsys):
        root = self._drained_root(tmp_path)
        html_path = tmp_path / "out" / "report.html"
        assert main(["--root", str(root), "report",
                     "--html", str(html_path)]) == 0
        capsys.readouterr()
        document = html_path.read_text(encoding="utf-8")
        assert document.startswith("<!DOCTYPE html>")
        assert "<svg" in document
        assert "hit rate vs cache size" in document
        assert "span waterfall" in document
        assert "<script" not in document

    def test_regress_verb_renders_and_gates(self, tmp_path, capsys):
        root = tmp_path / "svc"
        _, store = open_service(root)
        for seed, rate in enumerate([0.50, 0.51, 0.52, 0.53, 0.54]):
            store.append("cfg", "base", seed, {
                "spec": {"trace": "dfn", "scale": TINY,
                         "policy": "lru", "size_fraction": 0.01,
                         "seed": seed},
                "hit_rate": rate, "byte_hit_rate": rate / 2})
        for seed, rate in enumerate([0.40, 0.41, 0.42, 0.43, 0.44]):
            store.append("cfg", "cand", seed, {
                "spec": {"trace": "dfn", "scale": TINY,
                         "policy": "lru", "size_fraction": 0.01,
                         "seed": seed},
                "hit_rate": rate, "byte_hit_rate": rate / 2})
        assert main(["--root", str(root), "regress",
                     "--candidate", "cand", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["baseline"] == "base"
        assert data["candidate"] == "cand"
        assert data["summary"]["regressed"] >= 1
        assert main(["--root", str(root), "regress",
                     "--candidate", "cand",
                     "--fail-on-regression"]) == 1
        capsys.readouterr()
        # One handler with the module CLI: the verb filters by metric.
        assert main(["--root", str(root), "regress", "--candidate",
                     "cand", "--json", "--metric", "byte_hit_rate"]) == 0
        filtered = json.loads(capsys.readouterr().out)
        assert {v["metric"] for v in filtered["verdicts"]} == \
            {"byte_hit_rate"}
        assert len(filtered["verdicts"]) < len(data["verdicts"])

    def test_regress_verb_error_exit(self, tmp_path, capsys):
        root = tmp_path / "svc"
        open_service(root)
        assert main(["--root", str(root), "regress",
                     "--baseline", "x", "--candidate", "x"]) == 2
        assert "error:" in capsys.readouterr().err
