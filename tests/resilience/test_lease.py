"""Tests for lease files: acquire, reclaim, renew, heartbeat."""

import json
import os
import sys
import threading
import time

import pytest

from repro.errors import LeaseError, LeaseLostError
from repro.resilience.lease import Heartbeat, LeaseManager, default_owner


class FakeClock:
    """A controllable time source."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def manager(tmp_path, clock, owner="w1", ttl=10.0):
    return LeaseManager(tmp_path / "leases", owner=owner,
                        ttl_seconds=ttl, clock=clock)


class TestAcquire:
    def test_acquire_and_release(self, tmp_path, clock):
        mgr = manager(tmp_path, clock)
        lease = mgr.acquire("trial-1")
        assert lease is not None
        assert lease.owner == "w1"
        assert lease.reclaimed_from is None
        assert mgr.holder("trial-1")["owner"] == "w1"
        assert mgr.release(lease) is True
        assert mgr.holder("trial-1") is None

    def test_second_claimant_refused_while_live(self, tmp_path, clock):
        first = manager(tmp_path, clock, owner="w1")
        second = manager(tmp_path, clock, owner="w2")
        assert first.acquire("t") is not None
        assert second.acquire("t") is None

    def test_reacquire_after_release(self, tmp_path, clock):
        mgr = manager(tmp_path, clock)
        lease = mgr.acquire("t")
        mgr.release(lease)
        assert mgr.acquire("t") is not None

    def test_names_are_sanitized(self, tmp_path, clock):
        mgr = manager(tmp_path, clock)
        lease = mgr.acquire("gd*(1)@5000/x")
        assert lease is not None
        assert lease.path.exists()
        assert "/" not in lease.path.name

    def test_invalid_ttl_rejected(self, tmp_path, clock):
        with pytest.raises(LeaseError):
            LeaseManager(tmp_path, ttl_seconds=0.0, clock=clock)

    def test_default_owner_is_host_and_pid(self):
        import os
        assert str(os.getpid()) in default_owner()


class TestStaleReclaim:
    def test_fresh_lease_is_not_stale(self, tmp_path, clock):
        mgr = manager(tmp_path, clock, ttl=10.0)
        mgr.acquire("t")
        clock.advance(9.0)
        assert not mgr.is_stale("t")

    def test_lease_goes_stale_past_ttl(self, tmp_path, clock):
        mgr = manager(tmp_path, clock, ttl=10.0)
        mgr.acquire("t")
        clock.advance(10.5)
        assert mgr.is_stale("t")

    def test_unclaimed_is_not_stale(self, tmp_path, clock):
        assert not manager(tmp_path, clock).is_stale("t")

    def test_stale_lease_is_reclaimed(self, tmp_path, clock):
        dead = manager(tmp_path, clock, owner="dead")
        dead.acquire("t")
        clock.advance(11.0)
        alive = manager(tmp_path, clock, owner="alive")
        lease = alive.acquire("t")
        assert lease is not None
        assert lease.reclaimed_from == "dead"
        assert alive.holder("t")["owner"] == "alive"

    def test_torn_lease_file_counts_as_stale(self, tmp_path, clock):
        mgr = manager(tmp_path, clock)
        lease = mgr.acquire("t")
        lease.path.write_text('{"owner": "dead", "renew')  # torn write
        assert mgr.is_stale("t")
        other = manager(tmp_path, clock, owner="w2")
        assert other.acquire("t") is not None

    def test_renewal_keeps_lease_live(self, tmp_path, clock):
        mgr = manager(tmp_path, clock, ttl=10.0)
        lease = mgr.acquire("t")
        clock.advance(8.0)
        mgr.renew(lease)
        clock.advance(8.0)
        assert not mgr.is_stale("t")  # 8s since renewal, not 16s

    def test_active_lists_only_live_leases(self, tmp_path, clock):
        mgr = manager(tmp_path, clock, ttl=10.0)
        mgr.acquire("live")
        dead = manager(tmp_path, clock, owner="dead", ttl=10.0)
        dead.acquire("gone")
        clock.advance(11.0)
        mgr.renew(mgr.acquire("live2"))
        assert "gone" not in mgr.active()
        assert "live2" in mgr.active()


class TestOwnershipVerification:
    def test_renew_after_reclaim_raises_lease_lost(self, tmp_path, clock):
        original = manager(tmp_path, clock, owner="gc-paused")
        lease = original.acquire("t")
        clock.advance(11.0)
        thief = manager(tmp_path, clock, owner="thief")
        assert thief.acquire("t") is not None
        with pytest.raises(LeaseLostError):
            original.renew(lease)

    def test_release_after_reclaim_is_a_noop(self, tmp_path, clock):
        original = manager(tmp_path, clock, owner="w1")
        lease = original.acquire("t")
        clock.advance(11.0)
        thief = manager(tmp_path, clock, owner="thief")
        thief.acquire("t")
        assert original.release(lease) is False
        # the thief's lease file survives the loser's release
        assert thief.holder("t")["owner"] == "thief"

    def test_racing_reclaimers_elect_exactly_one(self, tmp_path, clock):
        dead = manager(tmp_path, clock, owner="dead")
        dead.acquire("t")
        clock.advance(11.0)
        managers = [manager(tmp_path, clock, owner=f"w{i}")
                    for i in range(4)]
        wins = []
        barrier = threading.Barrier(len(managers))

        def race(mgr):
            barrier.wait()
            lease = mgr.acquire("t")
            if lease is not None:
                wins.append(lease.owner)

        threads = [threading.Thread(target=race, args=(m,))
                   for m in managers]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert json.loads(
            managers[0].path_for("t").read_text())["owner"] == wins[0]

    def test_reclaim_stress_elects_one_owner_per_generation(
            self, tmp_path, clock):
        """Eight threads (more than the cores) with a tiny switch
        interval reclaim one lease as it goes stale, over and over:
        every generation has exactly one owner."""
        holder = manager(tmp_path, clock, owner="first")
        holder.acquire("t")
        managers = [manager(tmp_path, clock, owner=f"w{i}")
                    for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(25):
                clock.advance(11.0)
                wins = []
                barrier = threading.Barrier(len(managers), timeout=10)

                def race(mgr):
                    barrier.wait()
                    lease = mgr.acquire("t")
                    if lease is not None:
                        wins.append(lease)

                threads = [threading.Thread(target=race, args=(m,))
                           for m in managers]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert len(wins) == 1
                assert holder.holder("t")["token"] == wins[0].token
        finally:
            sys.setswitchinterval(interval)
        assert wins[0].generation == 25

    def test_reclaim_between_a_rivals_stale_read_and_replace(
            self, tmp_path, clock):
        """The interleaving that elected two owners when a reclaim was
        replace-then-read-back: ``late`` reads the stale lease, then
        ``early`` reclaims it completely, then ``late`` carries on."""
        dead = manager(tmp_path, clock, owner="dead")
        dead.acquire("t")
        clock.advance(11.0)
        early = manager(tmp_path, clock, owner="early")
        late = manager(tmp_path, clock, owner="late")
        won_early = []
        read_stale = late.holder

        def holder_then_rival(name):
            current = read_stale(name)
            if not won_early:
                won_early.append(early.acquire(name))
            return current

        late.holder = holder_then_rival
        won_late = late.acquire("t")
        assert won_early[0] is not None
        assert won_early[0].reclaimed_from == "dead"
        assert won_late is None
        assert early.holder("t")["owner"] == "early"
        early.renew(won_early[0])

    def test_abandoned_election_passes_to_the_next_generation(
            self, tmp_path, clock):
        """A reclaimer that won generation 1 and died before taking
        over blocks the election only until its file is TTL-old."""
        dead = manager(tmp_path, clock, owner="dead")
        lease = dead.acquire("t")
        clock.advance(11.0)
        elected = lease.path.with_name(lease.path.name + ".1")
        elected.touch()
        alive = manager(tmp_path, clock, owner="alive")
        assert alive.acquire("t") is None     # generation 1 in flight
        old = time.time() - 11.0
        os.utime(elected, (old, old))
        reclaimed = alive.acquire("t")
        assert reclaimed is not None and reclaimed.generation == 2
        assert not elected.exists()
        assert alive.release(reclaimed)
        assert sorted(p.name for p in lease.path.parent.iterdir()) == []


class TestHeartbeat:
    def test_heartbeat_renews(self, tmp_path):
        mgr = LeaseManager(tmp_path, owner="w1", ttl_seconds=0.5)
        lease = mgr.acquire("t")
        with Heartbeat(mgr, lease, interval=0.05):
            time.sleep(0.7)  # > ttl: only renewals keep it live
            assert not mgr.is_stale("t")
        mgr.release(lease)

    def test_heartbeat_detects_loss(self, tmp_path):
        mgr = LeaseManager(tmp_path, owner="w1", ttl_seconds=0.2)
        lease = mgr.acquire("t")
        heartbeat = Heartbeat(mgr, lease, interval=0.05).start()
        # a rival steals the lease while the holder is "paused"
        lease.path.unlink()
        thief = LeaseManager(tmp_path, owner="thief", ttl_seconds=0.2)
        assert thief.acquire("t") is not None
        deadline = time.monotonic() + 5.0
        while not heartbeat.lost and time.monotonic() < deadline:
            time.sleep(0.02)
        heartbeat.stop()
        assert heartbeat.lost
