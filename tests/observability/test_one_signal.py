"""One emission path: ``emit()`` is the event *and* its log line.

Pins the three things that keep it one path: no call site restates an
event as a hand-written log call next to its ``emit``; the one table
in :mod:`repro.observability.events` covers exactly the events the
source emits; and the log record ``emit`` produces carries the same
fields as the ``events.jsonl`` record, at the table's level, silent
until ``configure()`` is called.
"""

import ast
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.observability.events import (
    EVENT_FIELD_TYPES,
    EVENT_SCHEMAS,
    EVENT_TABLE,
    EventLog,
    emit,
    read_events,
    set_event_sink,
)
from repro.observability.logs import configure

SRC = Path(repro.__file__).parent

LOG_METHODS = {"debug", "info", "warning", "error"}


def _call(statement):
    if isinstance(statement, ast.Expr) and isinstance(statement.value,
                                                      ast.Call):
        return statement.value.func
    return None


def _is_emit(statement) -> bool:
    """``emit(...)`` / ``x.emit(...)``, or a loop of nothing else."""
    if isinstance(statement, ast.For):
        return all(_is_emit(inner) for inner in statement.body)
    func = _call(statement)
    return (isinstance(func, ast.Name) and func.id == "emit") or (
        isinstance(func, ast.Attribute) and func.attr == "emit")


def _is_log_call(statement) -> bool:
    func = _call(statement)
    return (isinstance(func, ast.Attribute) and func.attr in LOG_METHODS
            and isinstance(func.value, ast.Name)
            and "logger" in func.value.id.lower())


def paired_log_calls(root: Path):
    """(file, line) of every logger call adjacent to an ``emit``."""
    pairs = []
    for path in sorted(root.rglob("*.py")):
        if "observability" in path.relative_to(root).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            for block in ("body", "orelse", "finalbody"):
                statements = getattr(node, block, None)
                if not isinstance(statements, list):
                    continue
                for first, second in zip(statements, statements[1:]):
                    if (_is_emit(first) and _is_log_call(second)) or (
                            _is_log_call(first) and _is_emit(second)):
                        pairs.append((str(path.relative_to(root)),
                                      second.lineno))
    return pairs


def emitted_names(root: Path):
    """Every string literal the source passes to an ``emit`` call."""
    names = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            called = (func.id if isinstance(func, ast.Name)
                      else func.attr if isinstance(func, ast.Attribute)
                      else "")
            first = node.args[0]
            if called in ("emit", "_emit") \
                    and isinstance(first, ast.Constant) \
                    and isinstance(first.value, str):
                names.add(first.value)
    return names


class TestSourceShape:
    def test_no_log_call_restates_an_emit(self):
        assert paired_log_calls(SRC) == []

    def test_table_is_exactly_what_the_source_emits(self):
        assert emitted_names(SRC) == set(EVENT_TABLE)
        assert len(EVENT_TABLE) == 43

    def test_every_row_has_a_level_and_the_views_agree(self):
        for name, (level, fields) in EVENT_TABLE.items():
            assert level in (logging.DEBUG, logging.INFO,
                             logging.WARNING, logging.ERROR), name
            assert EVENT_SCHEMAS[name] == set(fields), name
            assert set(EVENT_FIELD_TYPES[name]) <= EVENT_SCHEMAS[name]


@pytest.fixture
def log_stream():
    """``configure()`` onto a buffer; the previous setup comes back."""
    logger = logging.getLogger("repro")
    saved = (list(logger.handlers), logger.level, logger.propagate)
    stream = io.StringIO()

    def _configure(**kwargs):
        configure(stream=stream, **kwargs)
        return stream

    yield _configure
    logger.handlers[:], logger.level, logger.propagate = saved


@pytest.fixture
def events_file(tmp_path):
    """An ``EventLog`` installed as the sink; yields its path."""
    path = tmp_path / "events.jsonl"
    with EventLog(path) as log:
        previous = set_event_sink(log)
        try:
            yield path
        finally:
            set_event_sink(previous)


REQUEUED = {"trial_id": "ab12", "reason": "stale lease reclaimed",
            "previous_owner": "w7"}


class TestLogLine:
    def test_warning_event_is_one_line_with_every_field(self, log_stream):
        stream = log_stream(level="info")
        emit("trial_requeued", **REQUEUED)
        (line,) = stream.getvalue().splitlines()
        assert "WARNING repro.events: trial_requeued " in line
        for key, value in REQUEUED.items():
            assert f"{key}={value}" in line

    def test_debug_event_is_silent_at_info(self, log_stream):
        stream = log_stream(level="info")
        emit("trial_claimed", trial_id="ab12", owner="w1", attempt=1)
        emit("no_such_event", detail="unlisted names log at debug")
        assert stream.getvalue() == ""

    def test_json_line_and_file_record_carry_the_same_fields(
            self, log_stream, events_file):
        stream = log_stream(level="debug", json_lines=True)
        emit("trial_requeued", **REQUEUED)
        (line,) = stream.getvalue().splitlines()
        logged = json.loads(line)
        assert {"ts", "level", "logger", "message"} <= set(logged)
        assert (logged["level"], logged["logger"], logged["message"]) \
            == ("warning", "repro.events", "trial_requeued")
        (filed,) = read_events(events_file)
        for key, value in REQUEUED.items():
            assert logged[key] == filed[key] == value

    @pytest.mark.parametrize("event, fields, reserved", [
        ("lease_acquired", {"name": "trial-1", "owner": "w1"}, "name"),
        ("cell_failed", {"key": "lru@1", "attempts": 3,
                         "error_type": "WorkerCrashError",
                         "message": "worker died"}, "message"),
    ])
    def test_record_attribute_names_are_prefixed_in_the_log_only(
            self, log_stream, events_file, event, fields, reserved):
        stream = log_stream(level="debug", json_lines=True)
        emit(event, **fields)
        logged = json.loads(stream.getvalue())
        assert logged["message"] == event
        assert logged[f"event_{reserved}"] == fields[reserved]
        (filed,) = read_events(events_file)
        assert filed[reserved] == fields[reserved]


def test_unconfigured_library_writes_nothing_to_stderr():
    """A fresh interpreter that never calls ``configure()``: one event
    per level, an unlisted one included, and both streams stay empty."""
    script = (
        "from repro.observability.events import emit\n"
        "emit('trial_abandoned', trial_id='t', attempts=3, reason='r')\n"
        "emit('trial_requeued', trial_id='t', reason='r')\n"
        "emit('trial_completed', trial_id='t', owner='w', "
        "duration_seconds=0.1)\n"
        "emit('trial_claimed', trial_id='t', owner='w', attempt=1)\n"
        "emit('no_such_event')\n")
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
