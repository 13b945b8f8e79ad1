"""Tests for the 5 %-delta modification/interruption rule (Section 4.1)."""

import pytest

from repro.trace.modification import (
    ModificationDetector,
    ModificationPolicy,
    SizeEvent,
)


def test_validates_tolerance():
    with pytest.raises(ValueError):
        ModificationDetector(tolerance=0.0)
    with pytest.raises(ValueError):
        ModificationDetector(tolerance=1.0)


def test_first_observation():
    detector = ModificationDetector()
    obs = detector.observe("u", 1000)
    assert obs.event is SizeEvent.FIRST
    assert obs.document_size == 1000
    assert not obs.invalidates
    assert len(detector) == 1


def test_unchanged_size():
    detector = ModificationDetector()
    detector.observe("u", 1000)
    obs = detector.observe("u", 1000)
    assert obs.event is SizeEvent.UNCHANGED
    assert not obs.invalidates


def test_small_delta_is_modification():
    """< 5 % size change = the document was edited."""
    detector = ModificationDetector()
    detector.observe("u", 1000)
    obs = detector.observe("u", 1030)  # +3 %
    assert obs.event is SizeEvent.MODIFIED
    assert obs.invalidates
    assert obs.document_size == 1030
    assert detector.canonical_size("u") == 1030


def test_small_shrink_is_modification():
    detector = ModificationDetector()
    detector.observe("u", 1000)
    obs = detector.observe("u", 980)  # -2 %
    assert obs.event is SizeEvent.MODIFIED
    assert obs.document_size == 980


def test_large_shrink_is_interruption():
    """>= 5 % smaller = the client aborted; document unchanged."""
    detector = ModificationDetector()
    detector.observe("u", 1000)
    obs = detector.observe("u", 300)
    assert obs.event is SizeEvent.INTERRUPTED
    assert not obs.invalidates
    assert obs.document_size == 1000      # full size belief kept
    assert detector.canonical_size("u") == 1000


def test_exactly_5_percent_is_interruption():
    detector = ModificationDetector()
    detector.observe("u", 1000)
    obs = detector.observe("u", 950)  # exactly 5 %
    assert obs.event is SizeEvent.INTERRUPTED


def test_large_growth_reveals_partial_history():
    detector = ModificationDetector()
    detector.observe("u", 300)       # was itself a partial transfer
    obs = detector.observe("u", 1000)
    assert obs.event is SizeEvent.GREW
    assert obs.invalidates           # short cached copy can't serve this
    assert obs.document_size == 1000


def test_any_change_policy_treats_interruption_as_modification():
    detector = ModificationDetector(policy=ModificationPolicy.ANY_CHANGE)
    detector.observe("u", 1000)
    obs = detector.observe("u", 300)
    assert obs.event is SizeEvent.MODIFIED
    assert obs.invalidates
    assert obs.document_size == 300


def test_any_change_policy_unchanged_still_unchanged():
    detector = ModificationDetector(policy=ModificationPolicy.ANY_CHANGE)
    detector.observe("u", 1000)
    obs = detector.observe("u", 1000)
    assert obs.event is SizeEvent.UNCHANGED


def test_interruption_then_full_fetch_again():
    """u: 1000, 300 (abort), 1000 (full) — last one is unchanged."""
    detector = ModificationDetector()
    detector.observe("u", 1000)
    detector.observe("u", 300)
    obs = detector.observe("u", 1000)
    assert obs.event is SizeEvent.UNCHANGED


def test_event_counts_summary():
    detector = ModificationDetector()
    detector.observe("u", 1000)
    detector.observe("u", 1000)
    detector.observe("u", 1020)
    detector.observe("u", 100)
    summary = detector.summary()
    assert summary["first"] == 1
    assert summary["unchanged"] == 1
    assert summary["modified"] == 1
    assert summary["interrupted"] == 1


def test_urls_tracked_independently():
    detector = ModificationDetector()
    detector.observe("a", 1000)
    detector.observe("b", 50)
    assert detector.canonical_size("a") == 1000
    assert detector.canonical_size("b") == 50
    with pytest.raises(KeyError):
        detector.canonical_size("c")


def test_zero_previous_size_is_an_infinite_delta():
    """A URL first logged with 0 bytes: any positive size afterwards is
    past every tolerance, so it grows the belief and invalidates."""
    detector = ModificationDetector()
    detector.observe("u", 0)
    obs = detector.observe("u", 100)
    assert obs.event is SizeEvent.GREW
    assert obs.document_size == 100
    assert obs.invalidates
    assert detector.observe("u", 100).event is SizeEvent.UNCHANGED
