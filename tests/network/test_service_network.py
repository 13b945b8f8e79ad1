"""What only a network trial has: its payload fields, the seed's
reach into placement, and sharing one store with classic trials.
The spec-level cases every kind shares are the ``network`` parameter
of ``tests/experiments/test_service.py::TestEveryKind``."""

from repro.experiments.service import (
    TrialSpec,
    build_report,
    enqueue_grid,
    execute_trial,
    open_service,
    work,
)

TINY = 1 / 512


def make_spec(**overrides):
    base = dict(trace="dfn", scale=TINY, topology="two-level",
                strategy="lce", policy="lru", size_fraction=0.01,
                seed=42, n=3)
    base.update(overrides)
    return TrialSpec(**base)


class TestExecuteNetworkTrial:
    def test_payload_deterministic(self):
        spec = make_spec(topology="mesh", strategy="probcache")
        assert execute_trial(spec) == execute_trial(spec)

    def test_payload_shape(self):
        payload = execute_trial(make_spec())
        assert payload["spec"] == make_spec().as_dict()
        assert payload["n_caches"] == 4           # 3 children + parent
        assert 0.0 <= payload["hit_rate"] <= 1.0
        assert 0.0 <= payload["edge_hit_rate"] <= payload["hit_rate"]
        assert "html" in payload["type_hit_rates"]
        assert any(key.startswith("html/")
                   for key in payload["placement_shares"])

    def test_seed_feeds_probcache(self):
        base = make_spec(topology="path", strategy="probcache")
        same = execute_trial(base)
        other = execute_trial(make_spec(
            topology="path", strategy="probcache", seed=1042))
        assert same["spec"] != other["spec"]
        assert same["hit_rate"] != other["hit_rate"]


class TestServiceRoundTrip:
    def test_enqueue_work_report(self, tmp_path):
        root = tmp_path / "svc"
        queue, store = open_service(root)
        grid = dict(traces=["dfn"], scale=TINY,
                    topologies=["two-level", "mesh"],
                    strategies=["lce"], policies=["lru"],
                    size_fractions=[0.01], seeds=[42], n=3)
        ids = enqueue_grid(queue, **grid)
        assert len(ids) == 2
        # Enqueueing the same grid again is a no-op.
        assert enqueue_grid(queue, **grid) == ids
        # A classic trial shares the queue and store.
        enqueue_grid(queue, traces=["dfn"], scale=TINY,
                     policies=["lru"], size_fractions=[0.01],
                     seeds=[42])
        executed = work(queue, store, git_hash="testhash")
        assert executed == 3
        assert queue.status().pending == 0

        records = store.records()
        assert len(records) == 3
        topologies = {record["payload"]["spec"].get("topology")
                      for record in records.values()}
        assert topologies == {"two-level", "mesh", None}

        report = build_report(store)
        # Network and classic conditions land in separate groups.
        assert "topology=two-level strategy=lce n=3" in report.text
        assert "topology=mesh strategy=lce n=3" in report.text
        assert len(report.data["groups"]) == 3
