"""Run manifests, TelemetryRun lifecycle, and offline validation."""

import json

import pytest

from repro.observability.events import emit, read_events, set_event_sink
from repro.observability.manifest import (
    EVENTS_FILENAME,
    MANIFEST_FILENAME,
    MANIFEST_REQUIRED_KEYS,
    RunManifest,
    TelemetryRun,
    host_info,
)
from repro.observability import validate as validate_mod
from repro.observability.validate import (
    validate_events_file,
    validate_manifest_dict,
    validate_telemetry_dir,
)


@pytest.fixture(autouse=True)
def _null_sink_after():
    yield
    set_event_sink(None)


class TestHostInfo:
    def test_fields(self):
        info = host_info()
        assert {"hostname", "platform", "python",
                "cpu_count", "pid"} <= set(info)
        assert info["cpu_count"] >= 1


class TestRunManifest:
    def test_create_defaults(self):
        manifest = RunManifest.create("sweep", {"trace": "dfn"})
        assert manifest.kind == "sweep"
        assert manifest.status == "running"
        assert len(manifest.run_id) == 12
        assert manifest.config_hash
        assert manifest.wall_clock_seconds is None

    def test_as_dict_carries_required_keys(self):
        data = RunManifest.create("suite").as_dict()
        assert MANIFEST_REQUIRED_KEYS <= set(data)

    def test_settings_change_the_hash(self):
        a = RunManifest.create("sweep", {"seed": 1})
        b = RunManifest.create("sweep", {"seed": 2})
        assert a.config_hash != b.config_hash

    def test_round_trip(self, tmp_path):
        manifest = RunManifest.create("suite", {"scale": "tiny"})
        manifest.status = "complete"
        manifest.wall_clock_seconds = 1.25
        path = manifest.write(tmp_path / "manifest.json")
        loaded = RunManifest.load(path)
        assert loaded.as_dict() == manifest.as_dict()

    def test_write_is_atomic(self, tmp_path):
        manifest = RunManifest.create("suite")
        manifest.write(tmp_path / "manifest.json")
        # No stray temp file left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


class TestTelemetryRun:
    def test_creates_manifest_and_events(self, tmp_path):
        run = TelemetryRun(tmp_path / "run", kind="sweep",
                           settings={"trace": "t"}, install_sink=False)
        on_disk = json.loads(
            (tmp_path / "run" / MANIFEST_FILENAME).read_text())
        assert on_disk["status"] == "running"
        run.finalize("complete")
        on_disk = json.loads(
            (tmp_path / "run" / MANIFEST_FILENAME).read_text())
        assert on_disk["status"] == "complete"
        assert on_disk["wall_clock_seconds"] >= 0
        events = read_events(tmp_path / "run" / EVENTS_FILENAME)
        assert events[0]["event"] == "run_started"
        assert events[-1]["event"] == "run_finished"
        assert events[-1]["run_id"] == run.manifest.run_id

    def test_finalize_idempotent(self, tmp_path):
        run = TelemetryRun(tmp_path, kind="sweep", install_sink=False)
        run.finalize("partial")
        run.finalize("complete")  # ignored: first call wins
        assert RunManifest.load(
            tmp_path / MANIFEST_FILENAME).status == "partial"
        finished = read_events(tmp_path / EVENTS_FILENAME,
                               "run_finished")
        assert len(finished) == 1

    def test_install_sink_routes_global_emit(self, tmp_path):
        run = TelemetryRun(tmp_path, kind="suite", install_sink=True)
        emit("experiment_started", experiment_id="fig2")
        run.finalize("complete")
        events = read_events(tmp_path / EVENTS_FILENAME,
                             "experiment_started")
        assert events and events[0]["experiment_id"] == "fig2"
        # The sink is restored: further emits go nowhere.
        assert emit("experiment_started", experiment_id="x") == {}

    def test_context_manager_failure_status(self, tmp_path):
        with pytest.raises(RuntimeError):
            with TelemetryRun(tmp_path, kind="sweep",
                              install_sink=False):
                raise RuntimeError("boom")
        assert RunManifest.load(
            tmp_path / MANIFEST_FILENAME).status == "failed"


class TestValidation:
    def _finalized_dir(self, tmp_path):
        TelemetryRun(tmp_path, kind="sweep",
                     install_sink=False).finalize("complete")
        return tmp_path

    def test_valid_directory_passes(self, tmp_path):
        assert validate_telemetry_dir(self._finalized_dir(tmp_path)) == []

    def test_missing_directory(self, tmp_path):
        problems = validate_telemetry_dir(tmp_path / "nope")
        assert problems and "not a directory" in problems[0]

    def test_missing_files_reported(self, tmp_path):
        problems = validate_telemetry_dir(tmp_path)
        assert any(MANIFEST_FILENAME in p for p in problems)
        assert any(EVENTS_FILENAME in p for p in problems)

    def test_running_manifest_flagged(self, tmp_path):
        TelemetryRun(tmp_path, kind="sweep", install_sink=False)
        problems = validate_telemetry_dir(tmp_path)
        assert any("never finalized" in p for p in problems)

    def test_manifest_missing_keys(self):
        problems = validate_manifest_dict({"status": "complete"})
        assert any("'run_id'" in p for p in problems)

    def test_events_seq_must_increase(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text(
            '{"ts": 1, "seq": 2, "event": "cell_checkpoint_restored", '
            '"key": "x"}\n'
            '{"ts": 2, "seq": 1, "event": "cell_checkpoint_restored", '
            '"key": "y"}\n')
        problems = validate_events_file(path)
        assert any("not increasing" in p for p in problems)

    def test_events_bad_json_reported(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("not json\n")
        assert any("not JSON" in p for p in validate_events_file(path))

    def test_empty_events_reported(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("\n")
        assert any("no events" in p for p in validate_events_file(path))

    def test_cli_ok(self, tmp_path, capsys):
        directory = self._finalized_dir(tmp_path)
        assert validate_mod.main([str(directory)]) == 0
        assert capsys.readouterr().out.startswith("OK:")

    def test_cli_invalid(self, tmp_path, capsys):
        assert validate_mod.main([str(tmp_path)]) == 1
        assert "INVALID:" in capsys.readouterr().err
