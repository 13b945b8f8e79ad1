"""End-to-end telemetry: manifests and event streams reconstruct runs.

The acceptance scenario for the observability PR: a fault-injected run
must leave a ``manifest.json`` plus an ``events.jsonl`` from which the
full run history — scheduling, retries, timeouts, checkpoint restores
— can be reconstructed offline.
"""

import pytest

from repro.experiments.runner import ExperimentReport, run_suite
from repro.observability import read_events, validate_telemetry_dir
from repro.observability.events import set_event_sink
from repro.observability.manifest import RunManifest
from repro.resilience import CheckpointStore, FaultInjector, FaultSpec
from repro.simulation.parallel import cell_key, run_sweep_parallel
from repro.types import DocumentType, Request, Trace

import repro.experiments.runner as runner_module

POLICIES = ["lru", "gds(1)"]
CAPACITIES = [4000, 12000]


@pytest.fixture(autouse=True)
def _null_sink_after():
    yield
    set_event_sink(None)


def small_trace():
    requests = []
    for i in range(200):
        for url, size, doc_type in (
                (f"u{i % 17}", 500, DocumentType.IMAGE),
                (f"h{i % 5}", 1500, DocumentType.HTML)):
            requests.append(Request(float(i), url, size, size, doc_type))
    return Trace(requests, name="telemetry-test")


@pytest.fixture(scope="module")
def trace():
    return small_trace()


def events_for(records, key):
    return [(r["event"], r["attempt"]) for r in records
            if r.get("key") == key and "attempt" in r]


class TestSweepTelemetry:
    def test_clean_sweep_reconstructs(self, trace, tmp_path):
        sweep = run_sweep_parallel(
            trace, POLICIES, CAPACITIES, n_workers=2,
            telemetry_dir=tmp_path / "tel")
        assert sweep.complete
        assert validate_telemetry_dir(tmp_path / "tel") == []

        manifest = RunManifest.load(tmp_path / "tel" / "manifest.json")
        assert manifest.kind == "sweep"
        assert manifest.status == "complete"
        assert manifest.settings["policies"] == POLICIES
        assert manifest.settings["capacities"] == list(CAPACITIES)
        assert manifest.wall_clock_seconds > 0

        records = read_events(tmp_path / "tel" / "events.jsonl")
        assert records[0]["event"] == "run_started"
        assert records[-1]["event"] == "run_finished"
        # Every cell was scheduled then finished, on attempt 1.
        for policy in POLICIES:
            for capacity in CAPACITIES:
                key = cell_key(policy, capacity)
                assert events_for(records, key) == [
                    ("cell_scheduled", 1), ("cell_finished", 1)]
        finished = read_events(tmp_path / "tel" / "events.jsonl",
                               "cell_finished")
        assert all(r["duration_seconds"] >= 0 for r in finished)

    def test_retry_events_in_order(self, trace, tmp_path):
        """A corrupted cell leaves scheduled -> retried -> scheduled ->
        finished, with the attempt numbers telling the story."""
        key = cell_key("lru", 4000)
        injector = FaultInjector.corrupt_once(key)
        sweep = run_sweep_parallel(
            trace, POLICIES, CAPACITIES, n_workers=2,
            fault_injector=injector, max_retries=2,
            telemetry_dir=tmp_path / "tel")
        assert sweep.complete
        assert validate_telemetry_dir(tmp_path / "tel") == []

        records = read_events(tmp_path / "tel" / "events.jsonl")
        assert events_for(records, key) == [
            ("cell_scheduled", 1),
            ("cell_retried", 1),
            ("cell_scheduled", 2),
            ("cell_finished", 2)]
        (retry,) = read_events(tmp_path / "tel" / "events.jsonl",
                               "cell_retried")
        assert retry["error_type"] == "WorkerCrashError"
        # The rerun cell reports its attempt count on the result too.
        assert sweep.grid["lru"][4000].attempts == 2

    def test_timeout_events_in_order(self, trace, tmp_path):
        key = cell_key("lru", 4000)
        injector = FaultInjector.of(
            FaultSpec(key=key, kind="hang", attempts=(1, 2),
                      hang_seconds=60.0))
        sweep = run_sweep_parallel(
            trace, ["lru"], [4000], n_workers=2,
            fault_injector=injector, cell_timeout=1.0, max_retries=1,
            failure_policy="partial", telemetry_dir=tmp_path / "tel")
        assert not sweep.complete
        records = read_events(tmp_path / "tel" / "events.jsonl")
        history = [r["event"] for r in records if r.get("key") == key]
        assert history == [
            "cell_scheduled", "cell_timed_out", "cell_retried",
            "cell_scheduled", "cell_timed_out", "cell_failed"]
        (timed_out, _) = read_events(tmp_path / "tel" / "events.jsonl",
                                     "cell_timed_out")
        assert timed_out["timeout_seconds"] == 1.0
        (failed,) = read_events(tmp_path / "tel" / "events.jsonl",
                                "cell_failed")
        assert failed["attempts"] == 2
        assert failed["error_type"] == "CellTimeoutError"
        # Partial runs finalize as such, and the failure record carries
        # the wall-clock spent across both attempts.
        manifest = RunManifest.load(tmp_path / "tel" / "manifest.json")
        assert manifest.status == "partial"
        (failure,) = sweep.failures
        assert failure.duration_seconds > 0

    def test_checkpoint_restores_are_events(self, trace, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        run_sweep_parallel(trace, ["lru"], [4000], n_workers=1,
                           checkpoint_store=store)
        run_sweep_parallel(trace, ["lru"], [4000], n_workers=1,
                           checkpoint_store=store,
                           telemetry_dir=tmp_path / "tel")
        restored = read_events(tmp_path / "tel" / "events.jsonl",
                               "cell_checkpoint_restored")
        assert [r["key"] for r in restored] == [cell_key("lru", 4000)]
        # Nothing was scheduled: the grid came entirely from disk.
        assert read_events(tmp_path / "tel" / "events.jsonl",
                           "cell_scheduled") == []

    def test_serial_path_emits_cell_events(self, trace, tmp_path):
        sweep = run_sweep_parallel(
            trace, ["lru"], [4000], n_workers=1,
            telemetry_dir=tmp_path / "tel")
        assert sweep.complete
        assert validate_telemetry_dir(tmp_path / "tel") == []
        records = read_events(tmp_path / "tel" / "events.jsonl")
        names = [r["event"] for r in records]
        assert names == ["run_started", "cell_scheduled",
                         "cell_finished", "run_finished"]
        assert sweep.grid["lru"][4000].duration_seconds > 0


class FlakyRunner:
    """Fails the first ``failures`` calls, then succeeds."""

    def __init__(self, experiment_id, failures=0):
        self.experiment_id = experiment_id
        self.failures = failures
        self.calls = 0

    def __call__(self, settings):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"{self.experiment_id} boom")
        return ExperimentReport(self.experiment_id, settings.scale_name,
                                "body", {})


@pytest.fixture
def flaky_runners(monkeypatch):
    runners = {eid: FlakyRunner(eid) for eid in ("table1", "table2")}
    for eid, fake in runners.items():
        monkeypatch.setitem(runner_module._RUNNERS, eid, fake)
    return runners


class TestSuiteTelemetry:
    def test_retried_suite_reconstructs(self, flaky_runners, tmp_path):
        flaky_runners["table2"].failures = 1
        suite = run_suite(["table1", "table2"], scale="tiny",
                          max_retries=1, sleep=lambda _: None,
                          telemetry_dir=tmp_path / "tel")
        assert suite.complete
        assert validate_telemetry_dir(tmp_path / "tel") == []

        manifest = RunManifest.load(tmp_path / "tel" / "manifest.json")
        assert manifest.kind == "suite"
        assert manifest.status == "complete"
        assert manifest.settings["experiment_ids"] == \
            ["table1", "table2"]
        assert manifest.settings["scale_name"] == "tiny"

        records = read_events(tmp_path / "tel" / "events.jsonl")
        history = [(r["event"], r.get("experiment_id"))
                   for r in records if "experiment_id" in r]
        assert history == [
            ("experiment_started", "table1"),
            ("experiment_finished", "table1"),
            ("experiment_started", "table2"),
            ("experiment_retried", "table2"),
            ("experiment_finished", "table2")]
        (retry,) = read_events(tmp_path / "tel" / "events.jsonl",
                               "experiment_retried")
        assert retry["attempt"] == 1
        assert retry["error_type"] == "RuntimeError"

    def test_permanent_failure_and_partial_status(self, flaky_runners,
                                                  tmp_path):
        flaky_runners["table1"].failures = 99
        suite = run_suite(["table1", "table2"], scale="tiny",
                          max_retries=0, sleep=lambda _: None,
                          telemetry_dir=tmp_path / "tel")
        assert not suite.complete
        manifest = RunManifest.load(tmp_path / "tel" / "manifest.json")
        assert manifest.status == "partial"
        (failed,) = read_events(tmp_path / "tel" / "events.jsonl",
                                "experiment_failed")
        assert failed["experiment_id"] == "table1"
        assert failed["error_type"] == "RuntimeError"

    def test_resume_emits_checkpoint_restored(self, flaky_runners,
                                              tmp_path):
        run_suite(["table1"], scale="tiny",
                  checkpoint_dir=tmp_path / "ckpt")
        run_suite(["table1"], scale="tiny",
                  checkpoint_dir=tmp_path / "ckpt", resume=True,
                  telemetry_dir=tmp_path / "tel")
        restored = read_events(tmp_path / "tel" / "events.jsonl",
                               "experiment_checkpoint_restored")
        assert [r["experiment_id"] for r in restored] == ["table1"]
        assert flaky_runners["table1"].calls == 1

    def test_suite_profile_dir(self, flaky_runners, tmp_path):
        run_suite(["table1"], scale="tiny",
                  profile_dir=tmp_path / "prof")
        assert (tmp_path / "prof" / "table1.prof").exists()


class TestSweepProfileDir:
    def test_per_cell_profiles_written(self, trace, tmp_path):
        run_sweep_parallel(trace, ["lru"], [4000], n_workers=2,
                           profile_dir=tmp_path / "prof")
        profiles = list((tmp_path / "prof").glob("*.prof"))
        assert len(profiles) == 1
        assert "lru" in profiles[0].name
        assert "attempt1" in profiles[0].name
