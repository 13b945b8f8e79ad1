"""End-to-end tests for the durable experiment service."""

import hashlib
import multiprocessing

import pytest

from repro.errors import ServiceError
from repro.experiments.htmlreport import _store_groups
from repro.experiments.queue import trial_id_for
from repro.experiments.regress import collect_samples
from repro.experiments.service import (
    AXES,
    TrialSpec,
    build_parser,
    build_report,
    enqueue_grid,
    execute_trial,
    open_service,
    service_status,
    work,
)
from repro.experiments.service import main as service_main
from repro.experiments.store import ResultsStore, canonical_json
from repro.resilience.faults import FaultInjector, FaultSpec

TINY = 1 / 512  # matches the conftest trace fixtures


#: The optional axes that make a spec each kind.
KINDS = {
    "cache": {},
    "network": dict(topology="two-level", strategy="lce", n=3),
    "serving": dict(shards=2),
}


def make_spec(kind="cache", **overrides):
    base = dict(trace="dfn", scale=TINY, policy="lru",
                size_fraction=0.01, seed=42, **KINDS[kind])
    base.update(overrides)
    return TrialSpec(**base)


class TestTrialSpec:
    def test_validation(self):
        with pytest.raises(ServiceError, match="trace"):
            make_spec(trace="nonsense")
        with pytest.raises(ServiceError, match="size_fraction"):
            make_spec(size_fraction=0.0)
        with pytest.raises(ServiceError, match="scale"):
            make_spec(scale=-1.0)

    def test_from_dict_roundtrip(self):
        spec = make_spec()
        assert TrialSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ServiceError, match="malformed"):
            TrialSpec.from_dict({"trace": "dfn"})
        with pytest.raises(ServiceError, match="malformed"):
            TrialSpec.from_dict({"trace": "dfn", "scale": "not-a-num",
                                 "policy": "lru", "size_fraction": 0.01,
                                 "seed": 1})

    def test_config_key_groups_replicas_across_seeds(self):
        assert make_spec(seed=1).config_key() == \
            make_spec(seed=2).config_key()
        assert make_spec(policy="gds(1)").config_key() != \
            make_spec(policy="lru").config_key()

    def test_result_key_separates_seeds(self):
        key_a = make_spec(seed=1).result_key("git")
        key_b = make_spec(seed=2).result_key("git")
        assert key_a.config_hash == key_b.config_hash
        assert key_a != key_b

    @pytest.mark.parametrize("axes, message", [
        (dict(topology="tree", strategy="lce", shards=2), "not both"),
        (dict(strategy="lce"), "need a topology"),
        (dict(n=3), "need a topology"),
        (dict(shards=2, n=3), "need a topology"),
        (dict(topology="tree"), "strategy"),
    ], ids=["topology+shards", "strategy-alone", "n-alone", "shards+n",
            "no-strategy"])
    def test_refuses_mixed_axes(self, axes, message):
        with pytest.raises(ServiceError, match=message):
            make_spec(**axes)
        with pytest.raises(ServiceError, match=message):
            TrialSpec.from_dict({**make_spec().as_dict(), **axes})

    def test_network_n_defaults_to_4(self):
        stored = make_spec("network").as_dict()
        del stored["n"]
        assert TrialSpec.from_dict(stored).n == 4
        assert TrialSpec.from_dict(stored).as_dict()["n"] == 4

    def test_from_dict_coerces_outside_input(self):
        spec = TrialSpec.from_dict(
            {"trace": "dfn", "scale": "0.01", "policy": "lru",
             "size_fraction": "0.05", "seed": "7", "shards": "4"})
        assert spec == TrialSpec(trace="dfn", scale=0.01, policy="lru",
                                 size_fraction=0.05, seed=7, shards=4)


#: ``config_key()``, ``trial_id_for(as_dict())`` and the payload digest
#: of one spec per kind, all computed at the commit *before* the three
#: spec classes became one: stored identity is frozen.
GOLDENS = {
    "cache": (
        dict(trace="dfn", scale=0.01, policy="gd*(1)",
             size_fraction=0.02, seed=42),
        "8582d6557c4efc9d", "b91a344824516a49", "5face3ec998ccfe3"),
    "network": (
        dict(trace="dfn", scale=0.01, policy="gds(1)",
             size_fraction=0.02, seed=42, topology="tree",
             strategy="lcd", n=3),
        "269207a6462e64a0", "0ca20df978701e56", "fe25fe799fc79972"),
    "serving": (
        dict(trace="rtp", scale=0.01, policy="lru",
             size_fraction=0.05, seed=7, shards=4),
        "6c5e8ce06eb079fc", "e1be4700b6187556", "492bf794c18f6fdb"),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestEveryKind:
    """The spec / executor / enqueue-work-report contract, once per
    kind a :class:`TrialSpec` can be."""

    def test_kind_is_derived_never_stored(self, kind):
        spec = make_spec(kind)
        assert spec.kind == kind
        assert set(spec.as_dict()) == {
            "trace", "scale", "policy", "size_fraction", "seed",
            *KINDS[kind]}

    def test_validation(self, kind):
        bad_axes = {"cache": [],
                    "network": [(dict(topology="torus"), "topology"),
                                (dict(strategy="mcd"), "strategy"),
                                (dict(n=0), "n must")],
                    "serving": [(dict(shards=0), "shards")]}[kind]
        for bad, message in [(dict(trace="nonsense"), "trace"),
                             (dict(size_fraction=0.0), "size_fraction"),
                             (dict(scale=-1.0), "scale"), *bad_axes]:
            with pytest.raises(ServiceError, match=message):
                make_spec(kind, **bad)

    def test_from_dict_roundtrip(self, kind):
        spec = make_spec(kind)
        assert TrialSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_rejects_malformed(self, kind):
        with pytest.raises(ServiceError, match="malformed"):
            TrialSpec.from_dict({"trace": "dfn", **KINDS[kind]})
        for field in make_spec(kind).as_dict():
            if field not in ("trace", "policy", "topology", "strategy"):
                with pytest.raises(ServiceError, match="malformed"):
                    TrialSpec.from_dict({**make_spec(kind).as_dict(),
                                         field: "not-a-num"})

    def test_config_key_groups_replicas(self, kind):
        assert make_spec(kind, seed=1).config_key() == \
            make_spec(kind, seed=2).config_key()
        varied = {"cache": dict(policy="gds(1)"),
                  "network": dict(strategy="lcd"),
                  "serving": dict(shards=3)}[kind]
        assert make_spec(kind, **varied).config_key() != \
            make_spec(kind).config_key()

    def test_stored_identity_is_frozen(self, kind):
        fields, config_key, trial_id, digest = GOLDENS[kind]
        spec = TrialSpec(**fields)
        assert spec.as_dict() == fields
        assert spec.config_key() == config_key
        assert trial_id_for(spec.as_dict()) == trial_id
        payload = canonical_json(execute_trial(spec))
        assert hashlib.sha256(
            payload.encode()).hexdigest()[:16] == digest

    def test_deterministic_payload(self, kind):
        spec = make_spec(kind)
        first = execute_trial(spec)
        assert first == execute_trial(spec)
        assert first["spec"] == spec.as_dict()
        assert 0.0 <= first["hit_rate"] <= 1.0
        assert set(first["type_hit_rates"]) >= {"image", "html"}

    def test_trace_formats_store_the_same_bytes(self, kind, tmp_path,
                                                monkeypatch):
        import repro.experiments.service as service

        """Same bytes whichever way the trace is held: generated in
        memory, or spilled once and mmap'd."""
        spec = make_spec(kind)
        monkeypatch.delenv("REPRO_SERVICE_TRACE_DIR", raising=False)
        monkeypatch.setattr(service, "_TRACES",
                            service._WorkerTraceCache())
        objects = execute_trial(spec)
        monkeypatch.setenv("REPRO_SERVICE_TRACE_DIR", str(tmp_path))
        monkeypatch.setattr(service, "_TRACES",
                            service._WorkerTraceCache())
        assert canonical_json(execute_trial(spec)) == \
            canonical_json(objects)
        assert list(tmp_path.glob("*.rcol"))

    @pytest.mark.parametrize("damage", ["truncated", "zeroed-header"])
    def test_damaged_spill_file_is_republished(self, kind, damage,
                                               tmp_path, monkeypatch):
        """A spilled trace a crash left truncated (or with its header
        never written) is regenerated, not trusted: the next process —
        a fresh trace cache — stores the same payload bytes."""
        import repro.experiments.service as service

        spec = make_spec(kind)
        monkeypatch.setenv("REPRO_SERVICE_TRACE_DIR", str(tmp_path))
        monkeypatch.setattr(service, "_TRACES",
                            service._WorkerTraceCache())
        intact = canonical_json(execute_trial(spec))
        (spilled,) = tmp_path.glob("*.rcol")
        whole = spilled.read_bytes()
        spilled.write_bytes(whole[:len(whole) // 2]
                            if damage == "truncated"
                            else bytes(4096) + whole[4096:])
        monkeypatch.setattr(service, "_TRACES",
                            service._WorkerTraceCache())
        assert canonical_json(execute_trial(spec)) == intact
        assert spilled.read_bytes() == whole
        assert [p.name for p in tmp_path.iterdir()] == [spilled.name]

    def test_enqueue_work_report(self, kind, tmp_path):
        queue, store = open_service(tmp_path / "svc")
        axes = dict(KINDS[kind])
        if kind == "network":
            axes = dict(topologies=[axes["topology"]],
                        strategies=[axes["strategy"]], n=axes["n"])
        grid = dict(traces=["dfn"], scale=TINY,
                    policies=["lru", "gds(1)"], size_fractions=[0.01],
                    seeds=[42, 1042], **axes)
        ids = enqueue_grid(queue, **grid)
        assert len(ids) == len(set(ids)) == 4
        assert enqueue_grid(queue, **grid) == ids  # idempotent
        assert work(queue, store, git_hash="testgit") == 4
        assert queue.status().drained
        assert work(queue, store, git_hash="testgit") == 0

        report = build_report(store)
        (group,) = report.data["groups"]
        assert {axis: group.get(axis) for axis in AXES} == \
            {**dict.fromkeys(AXES), **KINDS[kind]}
        assert [row["summary"]["n"] for row in group["ranking"]] == [2, 2]
        header = report.text.splitlines()[0]
        for axis, value in KINDS[kind].items():
            assert f" {axis}={value}" in header


class TestExecuteTrial:
    def test_deterministic_payload(self):
        spec = make_spec()
        first = execute_trial(spec)
        second = execute_trial(spec)
        assert first == second
        assert first["spec"] == spec.as_dict()
        assert 0.0 <= first["hit_rate"] <= 1.0
        assert 0.0 <= first["byte_hit_rate"] <= 1.0
        assert first["capacity_bytes"] > 0

    def test_different_policies_differ(self):
        lru = execute_trial(make_spec(policy="lru"))
        gds = execute_trial(make_spec(policy="gds(1)"))
        assert lru != gds


class TestWorkLoop:
    def enqueue_small_grid(self, root, seeds=(42, 1042)):
        queue, store = open_service(root, lease_ttl=5.0)
        ids = enqueue_grid(queue, traces=["dfn"], scale=TINY,
                           policies=["lru", "gds(1)"],
                           size_fractions=[0.01], seeds=list(seeds))
        return queue, store, ids

    def test_drains_queue_and_fills_store(self, tmp_path):
        queue, store, ids = self.enqueue_small_grid(tmp_path / "svc")
        executed = work(queue, store, git_hash="testgit")
        assert executed == len(ids) == 4
        assert queue.status().drained
        assert len(store.records()) == 4

    def test_work_is_idempotent(self, tmp_path):
        queue, store, _ = self.enqueue_small_grid(tmp_path / "svc")
        work(queue, store, git_hash="testgit")
        assert work(queue, store, git_hash="testgit") == 0
        assert len(store.records()) == 4

    def test_skips_execution_when_store_has_record(self, tmp_path):
        # Simulates a predecessor that died between its append and its
        # done marker: the record exists, the marker does not.
        queue, store, ids = self.enqueue_small_grid(
            tmp_path / "svc", seeds=(42,))
        spec = TrialSpec.from_dict(queue.spec_for(ids[0]))
        key = spec.result_key("testgit")
        store.append(key.config_hash, key.git_hash, key.seed,
                     {"spec": spec.as_dict(), "hit_rate": 0.123,
                      "byte_hit_rate": 0.1, "capacity_bytes": 1})
        work(queue, store, git_hash="testgit")
        # the pre-seeded record was honored, not re-executed
        assert store.records()[key]["payload"]["hit_rate"] == 0.123
        assert queue.status().drained

    def test_transient_execution_fault_retries(self, tmp_path):
        queue, store, ids = self.enqueue_small_grid(
            tmp_path / "svc", seeds=(42,))
        injector = FaultInjector.raise_once(ids[0])
        executed = work(queue, store, fault_injector=injector,
                        git_hash="testgit")
        assert executed == 2  # attempt 1 fails, attempt 2 succeeds...
        # (both trials complete; the count is completions)
        assert queue.status().drained

    def test_invalid_spec_is_abandoned_not_looped(self, tmp_path):
        queue, store = open_service(tmp_path / "svc", max_attempts=2)
        trial_id, _ = queue.enqueue({"trace": "nonsense", "scale": TINY,
                                     "policy": "lru",
                                     "size_fraction": 0.01, "seed": 1})
        executed = work(queue, store, git_hash="testgit")
        assert executed == 0
        status = queue.status()
        assert status.failed == 1
        assert status.drained

    def test_mixed_axes_spec_burns_its_attempts(self, tmp_path):
        # topology *and* shards: once run as a network trial under a
        # hash that ignored the shards; now an invalid spec like any.
        queue, store = open_service(tmp_path / "svc", max_attempts=2)
        trial_id, _ = queue.enqueue(
            {**make_spec("network").as_dict(), "shards": 4})
        assert work(queue, store, git_hash="testgit") == 0
        assert queue.failed_ids() == [trial_id]
        assert queue.attempts(trial_id) == 2
        assert store.records() == {}

    def test_idle_timeout_bounds_the_wait(self, tmp_path):
        # Another (simulated live) worker holds the only trial: a
        # second worker must wait, but idle_timeout bounds it.
        queue, store, ids = self.enqueue_small_grid(
            tmp_path / "svc", seeds=(42,))
        rival, _ = open_service(tmp_path / "svc", owner="rival",
                                lease_ttl=60.0)
        assert rival.claim() is not None
        executed = work(queue, store, git_hash="testgit",
                        poll_seconds=0.01, idle_timeout=0.1)
        # the free trial was done; the rival's was waited on, then the
        # timeout fired instead of spinning forever
        assert executed == 1
        assert not queue.status().drained


class TestCrashWindows:
    """Every window of the commit order, exercised with real SIGKILLs
    (os._exit) in child processes."""

    @staticmethod
    def _worker(root, injector):
        from repro.observability import events

        events.set_event_sink(None)
        queue, store = open_service(root, lease_ttl=0.5)
        work(queue, store, fault_injector=injector, git_hash="testgit")

    def run_worker(self, root, injector=None):
        ctx = multiprocessing.get_context()
        proc = ctx.Process(target=self._worker, args=(str(root), injector))
        proc.start()
        proc.join(120)
        assert not proc.is_alive()
        return proc.exitcode

    def enqueue_one(self, root):
        queue, store = open_service(root)
        ids = enqueue_grid(queue, traces=["dfn"], scale=TINY,
                           policies=["lru"], size_fractions=[0.01],
                           seeds=[42])
        return queue, store, ids[0]

    def test_crash_before_execution_recovers(self, tmp_path):
        root = tmp_path / "svc"
        queue, store, trial_id = self.enqueue_one(root)
        injector = FaultInjector.crash_once(trial_id)
        assert self.run_worker(root, injector) == 113  # died on purpose

        import time
        time.sleep(0.6)  # let the 0.5s lease go stale
        assert self.run_worker(root, injector) == 0  # attempt 2 clean
        assert queue.status().drained
        assert len(store.records()) == 1

    def test_crash_between_append_and_marker_recovers(self, tmp_path):
        root = tmp_path / "svc"
        queue, store, trial_id = self.enqueue_one(root)
        injector = FaultInjector.of(
            FaultSpec(key=f"{trial_id}#commit", kind="crash"))
        assert self.run_worker(root, injector) == 113
        # the record was appended before the crash...
        assert len(store.records()) == 1
        # ...but the done marker was not
        assert queue.done_ids() == []

        import time
        time.sleep(0.6)
        assert self.run_worker(root, injector) == 0
        assert queue.status().drained
        records = store.records()
        assert len(records) == 1  # dedup: no double record
        store.compact()
        assert len(store.records()) == 1


class TestStatusAndReport:
    def populate(self, root, seeds=(42, 1042, 2042)):
        queue, store = open_service(root)
        enqueue_grid(queue, traces=["dfn"], scale=TINY,
                     policies=["lru", "gds(1)"], size_fractions=[0.01],
                     seeds=list(seeds))
        work(queue, store, git_hash="testgit")
        return store

    def test_service_status_census(self, tmp_path):
        root = tmp_path / "svc"
        self.populate(root, seeds=(42,))
        status = service_status(root)
        assert status["queue"]["done"] == 2
        assert status["store"]["records"] == 2
        assert status["store"]["git_hashes"] == ["testgit"]
        assert status["store"]["quarantined"] == 0

    def test_report_reproducible_from_store_alone(self, tmp_path):
        store = self.populate(tmp_path / "svc")
        # a fresh handle with no queue knowledge sees the same report
        fresh = ResultsStore(tmp_path / "svc" / "store")
        report_a = build_report(store)
        report_b = build_report(fresh)
        assert report_a.text == report_b.text
        assert report_a.data == report_b.data

    def test_report_contents(self, tmp_path):
        store = self.populate(tmp_path / "svc")
        report = build_report(store, metric="hit_rate")
        assert "trace=dfn" in report.text
        assert "lru" in report.text and "gds(1)" in report.text
        (group,) = report.data["groups"]
        assert group["git_hash"] == "testgit"
        assert len(group["ranking"]) == 2
        assert len(group["comparisons"]) == 1
        for row in group["ranking"]:
            assert row["summary"]["n"] == 3

    def test_three_replicas_refuse_overclaiming(self, tmp_path):
        # With n=3 the minimum exact two-sided p is 1/10 > 0.05: the
        # report must share ranks rather than invent an ordering.
        store = self.populate(tmp_path / "svc")
        (group,) = build_report(store).data["groups"]
        ranks = {row["rank"] for row in group["ranking"]}
        assert ranks == {1}
        assert not group["comparisons"][0]["significant"]

    def test_rejects_unknown_metric(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        with pytest.raises(ServiceError, match="metric"):
            build_report(store, metric="latency")

    def test_foreign_records_ignored(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        store.append("cfg", "git", 1, {"something": "else"})
        report = build_report(store)
        assert report.data["groups"] == []
        assert "no service records" in report.text


class TestEnqueueVerb:
    """``service enqueue`` is the one way to queue a grid of any kind."""

    def enqueue(self, root, *flags):
        return service_main(["--root", str(root), "enqueue",
                             "--policies", "lru", "--seeds", "1",
                             *flags])

    def test_axis_flags_pick_the_kind(self, tmp_path, capsys):
        root = tmp_path / "svc"
        assert self.enqueue(root) == 0
        assert self.enqueue(root, "--topologies", "tree", "mesh",
                            "--n", "2") == 0
        assert self.enqueue(root, "--shards", "2") == 0
        queue, _ = open_service(root)
        specs = [TrialSpec.from_dict(queue.spec_for(trial_id))
                 for trial_id in queue.trial_ids()]
        assert sorted(spec.kind for spec in specs) == \
            ["cache", "network", "network", "serving"]
        # --strategies defaults to lce once --topologies is given
        assert {(spec.topology, spec.strategy, spec.n)
                for spec in specs if spec.kind == "network"} == \
            {("tree", "lce", 2), ("mesh", "lce", 2)}

    @pytest.mark.parametrize("flags, message", [
        (["--shards", "2", "--topologies", "tree"], "not both"),
        (["--n", "2"], "need a topology"),
        (["--strategies", "lcd"], "need a topology"),
    ], ids=["topology+shards", "n-alone", "strategy-alone"])
    def test_incoherent_axes_exit_2(self, tmp_path, capsys, flags,
                                    message):
        assert self.enqueue(tmp_path / "svc", *flags) == 2
        assert message in capsys.readouterr().err
        queue, _ = open_service(tmp_path / "svc")
        assert queue.trial_ids() == []

    def test_enqueue_is_the_only_queueing_verb(self):
        assert ("{enqueue,work,status,report,regress,compact,chaos}"
                in build_parser().format_usage())

    @pytest.mark.parametrize("argv", [
        ["--log-level", "bogus", "status"],
        ["enqueue", "--topologies", "torus"],
        ["status", "--log-level", "bogus"],
    ], ids=["log-level", "topology", "verb-log-level"])
    def test_argparse_refuses(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            service_main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_network_cli_has_no_enqueue(self, capsys):
        from repro.network.cli import main as network_main

        with pytest.raises(SystemExit) as exit_info:
            network_main(["enqueue"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestMixedKindStore:
    """Every reader of the store asks :meth:`TrialSpec.condition_of`
    which trials are replicas of one condition, so trials that differ
    only in kind — or in network shape — never share a sample."""

    #: Same (trace, scale, policy, size_fraction, seed) five times over.
    AXES_BY_HIT_RATE = {
        0.5: {},
        0.9: dict(topology="tree", strategy="lce", n=3),
        0.7: dict(topology="tree", strategy="lce", n=4),
        0.1: dict(shards=4),
    }

    @pytest.fixture
    def store(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        for hit_rate, axes in self.AXES_BY_HIT_RATE.items():
            spec = make_spec(seed=1, **axes)
            key = spec.result_key("abc123")
            store.append(key.config_hash, key.git_hash, key.seed,
                         {"spec": spec.as_dict(), "hit_rate": hit_rate,
                          "byte_hit_rate": hit_rate / 2})
        return store

    def expected_conditions(self, *base):
        return {(*base, *axes.items())
                for axes in self.AXES_BY_HIT_RATE.values()}

    def test_collect_samples_keeps_kinds_apart(self, store):
        samples = collect_samples(store)
        assert set(samples) == self.expected_conditions(
            "dfn", TINY, "lru", 0.01)
        assert sorted(by_hash["abc123"]["hit_rate"][1]
                      for by_hash in samples.values()) == \
            sorted(self.AXES_BY_HIT_RATE)

    def test_html_report_keeps_kinds_apart(self, store):
        groups = _store_groups(store)
        assert set(groups) == {
            (condition, "abc123")
            for condition in self.expected_conditions("dfn", TINY)}
        assert sorted(group[0.01]["lru"][1]["hit_rate"]
                      for group in groups.values()) == \
            sorted(self.AXES_BY_HIT_RATE)

    def test_build_report_keeps_kinds_and_shapes_apart(self, store):
        report = build_report(store)
        groups = report.data["groups"]
        assert sorted(
            (group["ranking"][0]["summary"]["mean"],
             {axis: group[axis] for axis in AXES if axis in group})
            for group in groups) == sorted(
                self.AXES_BY_HIT_RATE.items())
        headers = [line for line in report.text.splitlines()
                   if line.startswith("==")]
        assert len(set(headers)) == 4
        assert sum(" topology=tree strategy=lce n=3 " in header
                   for header in headers) == 1
        assert sum(" n=4 " in header for header in headers) == 1
        assert sum(" shards=4 " in header for header in headers) == 1

    def test_classic_only_report_text_is_unchanged(self, tmp_path):
        # The exact text the report printed before conditions had one
        # definition, over a store no optional axis ever touched.
        store = ResultsStore(tmp_path / "store")
        for trace in ("rtp", "dfn"):
            for policy, base in (("lru", 0.40), ("gds(1)", 0.45)):
                for seed in range(3):
                    store.append(
                        f"cfg-{trace}-{policy}", "abc123", seed,
                        {"spec": {"trace": trace, "scale": 0.01,
                                  "policy": policy,
                                  "size_fraction": 0.05, "seed": seed},
                         "hit_rate": base + seed * 0.01,
                         "byte_hit_rate": base / 2})
        group = [
            "rank  policy           n     mean              95% CI",
            "   1  gds(1)           3   0.4600 [0.4352, 0.4848]",
            "=  1  lru              3   0.4100 [0.3852, 0.4348]",
            "(= : not significantly different from the row above; "
            "ranks are shared)",
            "pair                                  p    A12 "
            "magnitude  significant",
            "gds(1) vs lru                    0.1000  1.000 "
            "large      False      ",
        ]
        assert build_report(store).text == "\n".join([
            "== trace=dfn scale=0.01 cache=5.0% git=abc123 ==", *group,
            "",
            "== trace=rtp scale=0.01 cache=5.0% git=abc123 ==", *group,
        ]).rstrip()


class TestOneSampleReader:
    """Store files are outside input: the report, the HTML report and
    the regression detector read them through one sample reader, which
    skips a record whose spec is malformed and drops a metric that is a
    bool, not a number, or not a finite float."""

    @staticmethod
    def record(policy, seed, spec=(), **metrics):
        return {"spec": {"trace": "dfn", "scale": TINY,
                         "policy": policy, "size_fraction": 0.01,
                         "seed": seed, **dict(spec)}, **metrics}

    @pytest.fixture
    def clean(self, tmp_path):
        store = ResultsStore(tmp_path / "clean")
        for policy, base in (("lru", 0.40), ("gds(1)", 0.45)):
            for seed in range(3):
                rate = base + seed * 0.01
                store.append(f"cfg-{policy}", "abc123", seed, self.record(
                    policy, seed, hit_rate=rate, byte_hit_rate=rate / 2,
                    type_hit_rates={"image": rate, "html": rate / 3}))
        return store

    @pytest.fixture
    def malformed(self, clean, tmp_path):
        store = ResultsStore(tmp_path / "malformed")
        for key, record in sorted(clean.records().items()):
            store.append(key.config_hash, key.git_hash, key.seed,
                         record["payload"])
        store.append("cfg-lru", "abc123", 3, self.record(
            "lru", 3, hit_rate=True, byte_hit_rate=True))
        store.append("cfg-lru", "abc123", 4, self.record(
            "lru", 4, hit_rate="0.9", byte_hit_rate="0.4",
            type_hit_rates={"image": "0.9"}))
        store.append("cfg-lru", "abc123", 5, self.record(
            "lru", 5, spec={"trace": ["dfn"]}, hit_rate=0.9))
        store.append("cfg-lru", "abc123", 6, self.record(
            "lru", 6, spec={"scale": "tiny"}, hit_rate=0.9))
        store.append("cfg-lru", "abc123", 7, self.record(
            "lru", 7, hit_rate=10 ** 400, byte_hit_rate=float("nan"),
            type_hit_rates={"image": 10 ** 400, "html": float("inf")}))
        return store

    @pytest.mark.parametrize("metric", ["hit_rate", "byte_hit_rate"])
    def test_build_report_counts_neither_value(self, clean, malformed,
                                               metric):
        report = build_report(malformed, metric=metric)
        assert report.data == build_report(clean, metric=metric).data
        assert report.text == build_report(clean, metric=metric).text

    def test_html_report_counts_neither_value(self, clean, malformed):
        from repro.experiments.htmlreport import report_from_store

        assert report_from_store(malformed) == report_from_store(clean)

    def test_collect_samples_counts_neither_value(self, clean,
                                                  malformed):
        samples = collect_samples(malformed)
        assert samples == collect_samples(clean)
        ((_, by_hash),) = [item for item in samples.items()
                           if "lru" in item[0]]
        assert sorted(by_hash["abc123"]["hit_rate"]) == [0, 1, 2]
