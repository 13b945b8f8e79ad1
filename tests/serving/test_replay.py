"""Load replay and the triple-path validation gate.

The load-bearing claims:

* replayed per-shard hit rates equal a ``run_cells`` simulation of
  each shard's substream **exactly** (one thread per shard preserves
  per-shard order, and the served cache is bit-compatible with the
  simulator);
* for model policies on an IRM workload, the Che prediction lands
  within its usual validation tolerance of the replayed rates.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.model.catalog import catalog_from_trace
from repro.model.validation import validate_hierarchy, validate_model
from repro.serving.replay import (
    ReplayConfig,
    partition_trace,
    replay,
    validate_replay,
)
from repro.serving.sharding import ShardedCache
from repro.simulation.engine import SimulationConfig, run_cells
from repro.simulation.metrics import TypeMetrics
from repro.trace.columnar import open_columnar, write_columnar
from repro.types import DOCUMENT_TYPES
from repro.workload.generator import generate_trace
from repro.workload.profiles import dfn_like

#: The module itself (``repro.serving.replay`` the attribute is the
#: function).
replay_module = importlib.import_module("repro.serving.replay")


@pytest.fixture(scope="module")
def irm_trace():
    """Seeded IRM trace (~13k requests) — the regime the Che
    comparison assumes; the CI gate runs the same shape larger."""
    return generate_trace(dfn_like(scale=1.0 / 512.0, seed=42),
                          temporal_model="irm")


def _capacity(trace, fraction=0.05):
    unique = {r.url: r.size for r in trace.requests}
    return max(int(sum(unique.values()) * fraction), 8)


class TestReplayMechanics:
    def test_partition_preserves_order_and_covers(self, irm_trace):
        cache = ShardedCache(_capacity(irm_trace), n_shards=4)
        parts = partition_trace(irm_trace, cache)
        assert sum(len(p) for p in parts.values()) == \
            len(irm_trace.requests)
        for shard, substream in parts.items():
            owner = cache.ring.owner
            urls = substream.urls()
            assert all(owner(urls[doc]) == shard
                       for doc in substream.doc_ids.tolist())
            stamps = substream.timestamps.tolist()
            assert stamps == sorted(stamps)

    def test_report_accounting(self, irm_trace):
        config = ReplayConfig(capacity_bytes=_capacity(irm_trace),
                              n_shards=4)
        report = replay(irm_trace, config)
        assert report.requests == len(irm_trace.requests)
        assert report.hits + report.misses == report.requests
        assert report.requests == sum(s.requests
                                      for s in report.per_shard)
        assert report.hits == sum(s.hits for s in report.per_shard)
        assert 0 < report.hit_rate < 1
        assert report.requests_per_second > 0
        assert report.latency_samples > 0
        assert set(report.latency_quantiles) == {"p50", "p95", "p99"}
        payload = report.as_dict()
        assert payload["hit_rate"] == pytest.approx(report.hit_rate)

    def test_per_type_hit_rates_consistent(self, irm_trace):
        config = ReplayConfig(capacity_bytes=_capacity(irm_trace),
                              n_shards=2)
        report = replay(irm_trace, config)
        by_type = {}
        for request in irm_trace.requests:
            by_type[request.doc_type.value] = \
                by_type.get(request.doc_type.value, 0) + 1
        hits = sum(
            round(report.per_type_hit_rate[name] * count)
            for name, count in by_type.items()
            if name in report.per_type_hit_rate)
        assert hits == report.hits

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ReplayConfig(capacity_bytes=2, n_shards=4).validate()
        with pytest.raises(ConfigurationError):
            ReplayConfig(capacity_bytes=100,
                         latency_sample_every=0).validate()

    def test_replay_against_existing_cache_checks_shape(self,
                                                        irm_trace):
        cache = ShardedCache(_capacity(irm_trace), n_shards=2)
        config = ReplayConfig(capacity_bytes=_capacity(irm_trace),
                              n_shards=4)
        with pytest.raises(ConfigurationError):
            replay(irm_trace, config, cache=cache)


class TestTriplePathValidation:
    @pytest.mark.parametrize("policy", ["lru", "gdsf(1)"])
    def test_replay_matches_simulation_exactly(self, irm_trace,
                                               policy):
        config = ReplayConfig(capacity_bytes=_capacity(irm_trace),
                              n_shards=4, policy=policy)
        validation = validate_replay(irm_trace, config)
        assert validation.sim_mae == 0.0
        assert validation.sim_max_error == 0.0
        for shard in validation.shards:
            assert shard.replayed_hit_rate == \
                pytest.approx(shard.simulated_hit_rate, abs=1e-12)

    def test_model_within_tolerance_on_irm(self, irm_trace):
        """Third path: per-shard Che predictions.  The tiny test trace
        is noisier than the CI-scale gate, so the tolerance here is
        looser (CI runs ~100k requests at 2pp MAE)."""
        config = ReplayConfig(capacity_bytes=_capacity(irm_trace),
                              n_shards=4, policy="lru")
        validation = validate_replay(irm_trace, config)
        assert validation.model_mae is not None
        assert validation.model_mae <= 0.05
        assert all(s.model_hit_rate is not None
                   for s in validation.shards)

    def test_model_path_skipped_for_unsupported_policy(self,
                                                       irm_trace):
        config = ReplayConfig(capacity_bytes=_capacity(irm_trace),
                              n_shards=2, policy="gdsf(1)")
        validation = validate_replay(irm_trace, config)
        assert validation.model_mae is None
        assert all(s.model_hit_rate is None
                   for s in validation.shards)

    def test_aggregate_matches_whole_trace_partitioned_sim(self,
                                                           irm_trace):
        """Sanity on the headline claim: aggregate replayed hits
        equal the sum of per-substream simulations."""
        config = ReplayConfig(capacity_bytes=_capacity(irm_trace),
                              n_shards=4)
        report = replay(irm_trace, config)
        probe = ShardedCache(config.capacity_bytes,
                             n_shards=config.n_shards)
        parts = partition_trace(irm_trace, probe)
        simulated_hits = 0
        for shard in probe.shard_names:
            substream = parts[shard]
            if not substream:
                continue
            [result] = run_cells(
                substream,
                [SimulationConfig(
                    capacity_bytes=probe.shard(
                        shard).capacity_bytes,
                    policy="lru", warmup_fraction=0.0)])
            simulated_hits += result.metrics.overall.hits
        assert report.hits == simulated_hits


#: Report fields that measure the host, not the replay.
_TIMING = ("duration_seconds", "requests_per_second",
           "latency_quantiles", "latency_samples")


def _untimed(report) -> dict:
    payload = report.as_dict()
    for key in _TIMING:
        payload.pop(key)
    return payload


@pytest.fixture(scope="module")
def gaps_trace():
    """A gaps-model DFN trace: documents change size and transfers are
    interrupted, so last sizes and clamped transfer sums matter."""
    trace = generate_trace(dfn_like(scale=1.0 / 512.0, seed=11))
    sizes = {}
    changed = any(sizes.setdefault(r.url, r.size) != r.size
                  for r in trace.requests)
    assert changed
    assert any(r.transfer_size < r.size for r in trace.requests)
    return trace


@pytest.fixture(scope="module")
def rcol_of(tmp_path_factory):
    """The ``.rcol`` spill of a trace, opened."""
    opened = []

    def spill(trace):
        path = tmp_path_factory.mktemp("rcol") / f"{trace.name}.rcol"
        write_columnar(path, trace.requests, name=trace.name)
        opened.append(open_columnar(path))
        return opened[-1]

    yield spill
    for trace in opened:
        trace.close()


class TestReplayOnColumns:
    @pytest.mark.parametrize("n_shards", [1, 3, 4])
    @pytest.mark.parametrize("policy", ["lru", "gdsf(1)", "gd*(p)"])
    def test_per_type_equals_partitioned_run_cells(self, irm_trace,
                                                   policy, n_shards):
        """k shards are k independent ``run_cells`` passes, per type:
        the replay's per-type rates and hits are the partitions'
        summed TypeMetrics, to the last bit."""
        config = ReplayConfig(capacity_bytes=_capacity(irm_trace),
                              n_shards=n_shards, policy=policy)
        report = replay(irm_trace, config)
        probe = ShardedCache(config.capacity_bytes, n_shards=n_shards,
                             policy=policy)
        simulated = TypeMetrics()
        for shard, substream in partition_trace(irm_trace,
                                                probe).items():
            if not len(substream):
                continue
            [result] = run_cells(substream, [SimulationConfig(
                capacity_bytes=probe.shard(shard).capacity_bytes,
                policy=policy, warmup_fraction=0.0)])
            simulated.merge(result.metrics)
        expected = {
            doc_type.value: simulated.by_type[doc_type].hit_rate
            for doc_type in sorted(DOCUMENT_TYPES,
                                   key=lambda t: t.value)
            if simulated.by_type[doc_type].requests}
        assert list(report.per_type_hit_rate.items()) == \
            list(expected.items())
        assert report.hits == simulated.overall.hits
        assert report.requests == simulated.overall.requests

    def test_rcol_replay_builds_no_request(self, irm_trace, rcol_of,
                                           monkeypatch):
        """An ``.rcol`` replays from its columns: with Request
        construction made to fail, the replay (and a validation with no
        model calibration) equals the in-memory one."""
        rcol = rcol_of(irm_trace)
        config = ReplayConfig(capacity_bytes=_capacity(irm_trace),
                              n_shards=3, policy="gdsf(1)")
        expected = replay(irm_trace, config)
        expected_validation = validate_replay(irm_trace, config)

        def no_request(*args, **kwargs):
            raise AssertionError("a Request was built")

        monkeypatch.setattr("repro.trace.columnar.Request", no_request)
        assert _untimed(replay(rcol, config)) == _untimed(expected)
        validation = validate_replay(rcol, config)
        assert [s.as_dict() for s in validation.shards] == \
            [s.as_dict() for s in expected_validation.shards]

    def test_rcol_model_validations_build_no_request(
            self, irm_trace, rcol_of, monkeypatch):
        """The model's paths read an ``.rcol``'s columns too: with
        Request construction made to fail, LRU replay validation (whose
        shards the model predicts), model validation and hierarchy
        validation each equal their in-memory run."""
        rcol = rcol_of(irm_trace)
        config = ReplayConfig(capacity_bytes=_capacity(irm_trace),
                              n_shards=3, policy="lru")

        def validations(trace):
            replayed = validate_replay(trace, config)
            assert all(s.model_error is not None
                       for s in replayed.shards)
            return ([s.as_dict() for s in replayed.shards],
                    validate_model(trace).as_dict(),
                    validate_hierarchy(trace).as_dict())
        expected = validations(irm_trace)

        def no_request(*args, **kwargs):
            raise AssertionError("a Request was built")

        monkeypatch.setattr("repro.trace.columnar.Request", no_request)
        assert validations(rcol) == expected

    @pytest.mark.parametrize("source", ["trace", "rcol"])
    def test_restricted_catalog_equals_each_shards_own(
            self, gaps_trace, rcol_of, source):
        """One calibration narrowed to a shard's documents is that
        shard's own calibration: every array and the name."""
        trace = gaps_trace if source == "trace" else rcol_of(gaps_trace)
        cache = ShardedCache(_capacity(gaps_trace), n_shards=3)
        whole = catalog_from_trace(trace)
        requests = list(trace)
        for shard, substream in partition_trace(trace, cache).items():
            own = catalog_from_trace(
                [r for r in requests if cache.ring.owner(r.url) == shard],
                name=f"{shard}-substream")
            narrowed = whole.restrict(np.unique(substream.doc_ids),
                                      name=f"{shard}-substream")
            assert narrowed.name == own.name
            for array in ("probabilities", "sizes", "type_codes",
                          "counts", "mean_transfers"):
                assert np.array_equal(getattr(narrowed, array),
                                      getattr(own, array)), array

    def test_catalog_that_does_not_index_the_columns_is_refused(
            self, irm_trace, monkeypatch):
        """The narrowing trusts doc id k to be catalog entry k only
        after checking it: a catalog in another document order fails
        loudly instead of predicting from the wrong documents."""
        monkeypatch.setattr(
            replay_module, "catalog_from_trace",
            lambda columns: catalog_from_trace(irm_trace.requests[::-1]))
        config = ReplayConfig(capacity_bytes=_capacity(irm_trace),
                              n_shards=2, policy="lru")
        with pytest.raises(ConfigurationError, match="do not index"):
            validate_replay(irm_trace, config)
