"""Tests for the durable, lease-claimed trial queue."""

import json

import pytest

from repro.experiments.queue import TrialQueue, trial_id_for
from repro.experiments.store import ResultsStore


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def make_queue(tmp_path, clock, owner="w1", ttl=10.0, max_attempts=3):
    return TrialQueue(tmp_path / "queue", owner=owner, lease_ttl=ttl,
                      max_attempts=max_attempts, clock=clock)


SPEC = {"trace": "dfn", "scale": 0.01, "policy": "lru",
        "size_fraction": 0.01, "seed": 42}


class TestEnqueue:
    def test_enqueue_and_claim(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        trial_id, new = queue.enqueue(SPEC)
        assert new
        assert trial_id == trial_id_for(SPEC)
        claimed = queue.claim()
        assert claimed is not None
        assert claimed.trial_id == trial_id
        assert claimed.spec == SPEC
        assert claimed.attempt == 1

    def test_enqueue_is_idempotent(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        id_a, new_a = queue.enqueue(SPEC)
        id_b, new_b = queue.enqueue(dict(SPEC))  # same content
        assert id_a == id_b
        assert new_a and not new_b
        assert len(queue.trial_ids()) == 1

    def test_distinct_specs_distinct_trials(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        queue.enqueue(SPEC)
        queue.enqueue({**SPEC, "seed": 43})
        assert len(queue.trial_ids()) == 2


class TestClaimComplete:
    def test_complete_marks_done_and_releases(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        trial_id, _ = queue.enqueue(SPEC)
        claimed = queue.claim()
        queue.complete(claimed, duration_seconds=1.5)
        assert queue.done_ids() == [trial_id]
        assert queue.claim() is None  # nothing left
        status = queue.status()
        assert status.done == 1 and status.pending == 0
        assert status.drained

    def test_completed_trial_never_reclaimed(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        queue.enqueue(SPEC)
        queue.complete(queue.claim())
        clock.advance(1000)
        assert queue.claim() is None

    def test_trial_completed_after_the_scan_is_not_claimed(
            self, tmp_path, clock, monkeypatch):
        """``w2`` scans the done markers, ``w1`` then completes the
        trial and lets its lease go, and ``w2`` acquires the lease: the
        trial must not run a second time."""
        first = make_queue(tmp_path, clock, owner="w1")
        second = make_queue(tmp_path, clock, owner="w2")
        first.enqueue(SPEC)
        first.complete(first.claim())
        monkeypatch.setattr(second, "done_ids", lambda: [])
        assert second.claim() is None
        assert first.status().done == 1

    def test_claimed_trial_not_claimable_by_others(self, tmp_path, clock):
        first = make_queue(tmp_path, clock, owner="w1")
        second = make_queue(tmp_path, clock, owner="w2")
        first.enqueue(SPEC)
        assert first.claim() is not None
        assert second.claim() is None
        assert second.status().running == 1

    def test_release_returns_trial_to_queue(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        queue.enqueue(SPEC)
        claimed = queue.claim()
        queue.release(claimed, "transient error")
        again = queue.claim()
        assert again is not None
        assert again.attempt == 2  # the failed attempt stays charged


class TestStaleLeaseRequeue:
    def test_dead_workers_trial_is_reclaimed(self, tmp_path, clock):
        dead = make_queue(tmp_path, clock, owner="dead", ttl=10.0)
        dead.enqueue(SPEC)
        assert dead.claim() is not None
        # "dead" vanishes (SIGKILL): no release, no renewals
        clock.advance(11.0)
        survivor = make_queue(tmp_path, clock, owner="alive", ttl=10.0)
        claimed = survivor.claim()
        assert claimed is not None
        assert claimed.lease.reclaimed_from == "dead"
        assert claimed.attempt == 2

    def test_live_lease_not_stolen(self, tmp_path, clock):
        holder = make_queue(tmp_path, clock, owner="w1", ttl=10.0)
        holder.enqueue(SPEC)
        holder.claim()
        clock.advance(5.0)
        assert make_queue(tmp_path, clock, owner="w2",
                          ttl=10.0).claim() is None

    def test_attempt_budget_exhaustion_abandons(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock, ttl=10.0, max_attempts=2)
        trial_id, _ = queue.enqueue(SPEC)
        for _ in range(2):
            assert queue.claim() is not None
            clock.advance(11.0)  # worker dies each time
        assert queue.claim() is None
        assert queue.failed_ids() == [trial_id]
        marker = json.loads(
            (queue.failed_dir / f"{trial_id}.json").read_text())
        assert marker["attempts"] == 2
        status = queue.status()
        assert status.failed == 1
        assert status.drained


class TestCorruptSpecs:
    def test_unreadable_spec_quarantined_not_fatal(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        trial_id, _ = queue.enqueue(SPEC)
        path = queue.trials_dir / f"{trial_id}.json"
        path.write_text("{torn spec")
        assert queue.claim() is None  # skipped, not crashed
        assert not path.exists()
        assert (queue.quarantine_dir / path.name).exists()

    def test_wrong_shape_spec_quarantined(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        trial_id, _ = queue.enqueue(SPEC)
        path = queue.trials_dir / f"{trial_id}.json"
        path.write_text('{"spec": "not an object"}')
        assert queue.spec_for(trial_id) is None
        assert (queue.quarantine_dir / path.name).exists()


class TestReconcile:
    def test_done_marker_without_record_reopens_trial(self, tmp_path,
                                                      clock):
        queue = make_queue(tmp_path, clock)
        store = ResultsStore(tmp_path / "store")
        trial_id, _ = queue.enqueue(SPEC)
        claimed = queue.claim()
        key = store.append("cfg", "git", 42, {"v": 1})
        queue.complete(claimed, key)
        assert queue.reconcile(store) == []  # marker backed by record

        # the record is destroyed (e.g. quarantined as corrupt)
        store.compact()
        store.base_path.write_text("")
        reopened = queue.reconcile(store)
        assert reopened == [trial_id]
        assert queue.done_ids() == []
        fresh = queue.claim()
        assert fresh is not None
        assert fresh.attempt == 1  # attempt budget restarted

    def test_marker_without_key_is_trusted(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        store = ResultsStore(tmp_path / "store")
        queue.enqueue(SPEC)
        queue.complete(queue.claim())  # no result key recorded
        assert queue.reconcile(store) == []
        assert len(queue.done_ids()) == 1

    def test_unreadable_marker_reopens(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        store = ResultsStore(tmp_path / "store")
        trial_id, _ = queue.enqueue(SPEC)
        queue.complete(queue.claim())
        (queue.done_dir / f"{trial_id}.json").write_text("{torn")
        assert queue.reconcile(store) == [trial_id]
        assert queue.claim() is not None
