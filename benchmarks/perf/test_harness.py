"""Tests of the perf harness's own arithmetic and bookkeeping.

Not tier-1 (``testpaths`` is ``tests``); run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_harness.py -q

(``PYTHONPATH`` is for ``benchmarks/conftest.py``, which imports
``repro``.)
"""

import statistics
import sys
from enum import Enum
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402
import workloads  # noqa: E402
from calib import CALIB_REF_S, TimedPass, correct_passes  # noqa: E402
from spans import SpanRecorder  # noqa: E402


# ----- speed correction -----------------------------------------------------


def test_correction_undoes_a_uniform_slowdown():
    # The same 0.2 s pass on a host alternating between reference
    # speed and half speed: raw times double, corrected ones do not.
    passes = []
    for slow in (1.0, 2.0, 1.0, 2.0, 2.0):
        kernel = CALIB_REF_S * slow
        passes.append(TimedPass(kernel, 0.2 * slow, kernel))
    corrected = correct_passes(passes)
    assert corrected.median_s == pytest.approx(0.2)
    assert corrected.raw_median_s == pytest.approx(0.4)
    assert corrected.discarded_share == 0.0
    assert sorted(set(round(s, 6) for s in corrected.speeds)) == [0.5, 1.0]


def test_speed_uses_the_mean_of_both_calibrations():
    p = TimedPass(CALIB_REF_S, 1.0, CALIB_REF_S * 1.1)
    assert calib.speed_of(p) == pytest.approx(1 / 1.05)


def test_pass_dropped_only_when_its_calibrations_disagree():
    steady = TimedPass(CALIB_REF_S, 0.2, CALIB_REF_S * 1.15)
    flipped = TimedPass(CALIB_REF_S, 0.2, CALIB_REF_S * 1.16)
    outlier = TimedPass(CALIB_REF_S, 5.0, CALIB_REF_S)     # slow, kept
    corrected = correct_passes([steady, flipped, outlier])
    assert corrected.kept == [0, 2]
    assert corrected.discarded_share == pytest.approx(1 / 3)
    assert corrected.raw_median_s == 0.2          # raw median sees all


def test_every_pass_discarded_keeps_them_all_and_says_so():
    passes = [TimedPass(CALIB_REF_S, 0.2, CALIB_REF_S * 2)] * 3
    corrected = correct_passes(passes)
    assert corrected.discarded_share == 1.0
    assert corrected.kept == [0, 1, 2]


def test_relative_iqr_is_the_contract_formula():
    values = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert calib.relative_iqr(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert calib.relative_iqr([3.0]) == 0.0


# ----- serving bookkeeping --------------------------------------------------


def test_cycle_slice_wraps_and_reports_the_next_position():
    ops = list("abcde")
    first, position = workloads.cycle_slice(ops, 0, 3)
    assert (first, position) == (["a", "b", "c"], 3)
    second, position = workloads.cycle_slice(ops, position, 3)
    assert (second, position) == (["d", "e", "a"], 1)
    # A pass longer than the trace goes round more than once.
    long, position = workloads.cycle_slice(ops, position, 12)
    assert "".join(long) == "bcdeabcdeabc" and position == 3
    whole, position = workloads.cycle_slice(ops, 0, 5)
    assert (whole, position) == (ops, 0)


def test_consecutive_passes_tile_the_cycling_trace():
    ops = list(range(7))
    seen, position = [], 0
    for _ in range(5):
        chunk, position = workloads.cycle_slice(ops, position, 4)
        seen.extend(chunk)
    assert seen == [i % 7 for i in range(20)]


# ----- spans ----------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    recorder = SpanRecorder()
    recorder.names = ["pass", "open", "run", "op", "op"]
    recorder.starts = [0.0, 1.0, 3.0, 4.0, 5.0]
    recorder.ends = [10.0, 2.0, 9.0, 5.0, 7.0]
    recorder.parents = [-1, 0, 0, 2, 2]
    assert recorder.self_times() == [3.0, 1.0, 3.0, 1.0, 2.0]
    assert recorder.self_time_by_name() == {
        "pass": 3.0, "open": 1.0, "run": 3.0, "op": 3.0}


def test_spans_nest_by_the_innermost_open_span():
    recorder = SpanRecorder()
    with recorder.span("pass") as outer:
        with recorder.span("layer") as inner:
            recorder.add_leaf("op", 0.0, 0.0)
        recorder.add_leaf("op", 0.0, 0.0)
    assert recorder.parents == [-1, outer, inner, outer]
    assert recorder.ends[outer] >= recorder.ends[inner] > 0.0
    columns = recorder.as_columns("w")
    assert columns["name"] == ["pass", "layer", "op", "op"]
    assert columns["workload"] == "w"


# ----- digests --------------------------------------------------------------


class _Colour(Enum):
    RED = "red"


def test_digest_ignores_spelling_but_not_values():
    a = {"b": (1, 2.0), "a": {_Colour.RED: 1 / 3}, 3: None}
    b = {"3": None, "a": {"red": 0.33333333333333337}, "b": [1, 2.0]}
    assert workloads.canonical(a) == workloads.canonical(b)
    assert workloads.digest_of(a) == workloads.digest_of(b)
    assert workloads.digest_of(a) != workloads.digest_of(
        {"b": (1, 2.0), "a": {"red": 0.3334}, 3: None})
    # An int and the float of the same value are different results.
    assert workloads.digest_of([1]) != workloads.digest_of([1.0])
    with pytest.raises(TypeError):
        workloads.canonical({"x": object()})


# ----- the opcode count -----------------------------------------------------


def test_opcode_count_repeats_in_one_process(tmp_path):
    trace = workloads.stable_trace(3)
    inputs = workloads.make_inputs(
        workloads.Trace(trace.requests[:4000], name=trace.name),
        tmp_path / "t.rcol")
    first = workloads.count_bytecodes(workloads.ServeInproc, inputs)
    second = workloads.count_bytecodes(workloads.ServeInproc, inputs)
    assert first == second
    assert first[1] == workloads.BYTECODE_REQUESTS
    assert first[0] > first[1]
