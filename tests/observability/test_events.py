"""Event log append/replay semantics and the event schemas."""

import json

import pytest

from repro.observability.events import (
    EVENT_FIELD_TYPES,
    EVENT_SCHEMAS,
    EventLog,
    NullEventLog,
    emit,
    event_sink,
    iter_events,
    read_events,
    set_event_sink,
    validate_event,
)


@pytest.fixture(autouse=True)
def _null_sink_after():
    yield
    set_event_sink(None)


class TestEventLog:
    def test_records_ts_seq_and_fields(self, tmp_path):
        ticks = iter([100.0, 101.5])
        log = EventLog(tmp_path / "events.jsonl",
                       clock=lambda: next(ticks))
        first = log.emit("cell_scheduled", key="lru@1", attempt=1)
        second = log.emit("cell_finished", key="lru@1", attempt=1,
                          duration_seconds=1.5)
        log.close()
        assert first == {"ts": 100.0, "seq": 1,
                         "event": "cell_scheduled",
                         "key": "lru@1", "attempt": 1}
        assert second["seq"] == 2
        lines = (tmp_path / "events.jsonl").read_text().splitlines()
        assert [json.loads(l)["seq"] for l in lines] == [1, 2]

    def test_lines_survive_without_close(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.emit("cell_checkpoint_restored", key="lru@1")
        # Flushed per line: readable while the log is still open.
        assert read_events(tmp_path / "events.jsonl")
        log.close()

    def test_creates_parent_directories(self, tmp_path):
        log = EventLog(tmp_path / "deep" / "dir" / "events.jsonl")
        log.emit("cell_checkpoint_restored", key="lru@1")
        log.close()
        assert (tmp_path / "deep" / "dir" / "events.jsonl").exists()

    def test_context_manager_closes(self, tmp_path):
        with EventLog(tmp_path / "e.jsonl") as log:
            log.emit("cell_checkpoint_restored", key="x")
        assert log._stream.closed
        log.close()  # idempotent


class TestReaders:
    def test_read_events_filters_by_name(self, tmp_path):
        with EventLog(tmp_path / "e.jsonl") as log:
            log.emit("cell_scheduled", key="a", attempt=1)
            log.emit("cell_finished", key="a", attempt=1,
                     duration_seconds=0.1)
            log.emit("cell_scheduled", key="b", attempt=1)
        assert len(read_events(tmp_path / "e.jsonl")) == 3
        scheduled = read_events(tmp_path / "e.jsonl", "cell_scheduled")
        assert [r["key"] for r in scheduled] == ["a", "b"]

    def test_iter_events_skips_blank_lines(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"ts": 1, "seq": 1, "event": "x"}\n\n'
                        '{"ts": 2, "seq": 2, "event": "y"}\n')
        assert len(list(iter_events(path))) == 2


class TestValidateEvent:
    def test_every_schema_entry_is_satisfiable(self):
        for name, fields in EVENT_SCHEMAS.items():
            event = {"ts": 1.0, "seq": 1, "event": name}
            typed = EVENT_FIELD_TYPES.get(name, {})
            for field in fields:
                allowed = typed.get(field, (int,))
                event[field] = "x" if allowed[0] is str else 0
            assert validate_event(event) == [], name

    def test_missing_required_field(self):
        event = {"ts": 1.0, "seq": 1, "event": "cell_retried",
                 "key": "lru@1", "attempt": 2}
        problems = validate_event(event)
        assert len(problems) == 1
        assert "delay_seconds" in problems[0]
        assert "error_type" in problems[0]

    def test_unknown_event_type(self):
        problems = validate_event(
            {"ts": 1.0, "seq": 1, "event": "cell_teleported"})
        assert any("unknown event type" in p for p in problems)

    def test_missing_envelope_keys(self):
        problems = validate_event({"event": "cell_checkpoint_restored",
                                   "key": "x"})
        assert any("'ts'" in p for p in problems)
        assert any("'seq'" in p for p in problems)

    def test_non_dict(self):
        assert validate_event("nope")


class TestTypedValidation:
    def _span_event(self, **overrides):
        event = {"ts": 1.0, "seq": 1, "event": "span",
                 "name": "simulate", "trace_id": "t1",
                 "span_id": "s1", "parent_id": None,
                 "started_at": 100.0, "duration_seconds": 0.25,
                 "status": "ok"}
        event.update(overrides)
        return event

    def test_well_typed_span_accepted(self):
        assert validate_event(self._span_event()) == []
        assert validate_event(
            self._span_event(parent_id="p1")) == []

    def test_string_duration_rejected(self):
        problems = validate_event(
            self._span_event(duration_seconds="0.25"))
        assert any("duration_seconds" in p and "str" in p
                   for p in problems)

    def test_numeric_name_rejected(self):
        problems = validate_event(self._span_event(name=7))
        assert any("'name'" in p for p in problems)

    def test_bool_is_not_a_legal_count(self):
        event = {"ts": 1.0, "seq": 1,
                 "event": "service_worker_exited",
                 "owner": "host:1", "executed": True}
        problems = validate_event(event)
        assert any("executed" in p and "bool" in p for p in problems)

    def test_service_lifecycle_events_typed(self):
        good = {"ts": 1.0, "seq": 1, "event": "trial_completed",
                "trial_id": "abc", "owner": "host:1",
                "duration_seconds": 1.5}
        assert validate_event(good) == []
        bad = dict(good, owner=123)
        assert any("owner" in p for p in validate_event(bad))

    def test_lease_events_typed(self):
        good = {"ts": 1.0, "seq": 1, "event": "lease_reclaimed",
                "name": "t1", "owner": "host:2",
                "previous_owner": "host:1"}
        assert validate_event(good) == []
        bad = dict(good, previous_owner=None)
        assert any("previous_owner" in p for p in validate_event(bad))


class TestTornTrailingLine:
    def test_torn_line_is_skipped_with_tolerance(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with EventLog(path) as log:
            log.emit("cell_checkpoint_restored", key="a")
            log.emit("cell_checkpoint_restored", key="b")
        # simulate a SIGKILL mid-append: half a JSON object, no newline
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"ts": 3, "seq": 3, "event": "cell_ch')
        events = list(iter_events(path))
        assert [e["key"] for e in events] == ["a", "b"]

    def test_torn_middle_line_does_not_poison_later_events(
            self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"ts": 1, "seq": 1, "event": "x"}\n'
                        "{garbage\n"
                        '{"ts": 2, "seq": 2, "event": "y"}\n')
        events = list(iter_events(path))
        assert [e["event"] for e in events] == ["x", "y"]

    def test_strict_mode_raises(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"ts": 1, "seq": 1, "event": "x"}\n{oops\n')
        with pytest.raises(ValueError):
            list(iter_events(path, strict=True))

    def test_read_events_uses_tolerant_default(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"ts": 1, "seq": 1, "event": "x"}\n{torn')
        assert len(read_events(path)) == 1


class TestProcessSink:
    def test_default_sink_is_null(self):
        assert emit("cell_scheduled", key="a", attempt=1) == {}
        assert isinstance(event_sink(), NullEventLog)

    def test_install_routes_and_restores(self, tmp_path):
        log = EventLog(tmp_path / "e.jsonl")
        previous = set_event_sink(log)
        try:
            record = emit("cell_scheduled", key="a", attempt=1)
            assert record["seq"] == 1
            assert event_sink() is log
        finally:
            restored = set_event_sink(previous)
            log.close()
        assert restored is log
        assert emit("anything") == {}
