"""Tests for the self-calibrating cost economy.

Covers the acceptance properties of the cost-economy PR:

* **marginal-cost admission** — in a cache with a scorer a payload whose
  marginal rebuild cost is lower than every sampled victim's never enters
  the warm cache; unpriceable candidates, a non-full cache and a
  scorer-less cache always admit;
* **two-tier property suite** — a seeded Zipf workload larger than the
  memory tier, across every encoder × memory/file/zip/sqlite backends:
  byte parity with direct checkouts, and a warm hit-rate / replayed-delta
  improvement of the two-tier cache over the memory-only one;
* **corruption degrades to recompute** — a torn spill file is dropped and
  recomputed, never served and never raised;
* **measured Δ/Φ model** — apply observations accumulate into an
  index-only chain-seconds model;
* **zero-payload-read evaluation** — an adaptive controller evaluation
  touches no payloads in the backend;
* **staging-cost calibration** — measured staging cost folds back into
  the estimate scale, rides the decision log, and survives restarts via
  the catalog.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.serve_bench import zipf_request_stream
from repro.server.service import VersionStoreService
from repro.storage.cache_tiers import LRUPayloadCache, SpillTier, TieredPayloadCache
from repro.storage.repack import StagingCostCalibration
from repro.storage.repository import Repository

from .test_parallel_serving import ENCODERS, backend_spec

BACKENDS = ["memory", "file", "zip", "sqlite"]


def economy_backend_spec(kind: str, tmp_path) -> str:
    if kind == "sqlite":
        return f"sqlite://{tmp_path}/catalog.db"
    return backend_spec(kind, tmp_path)


def build_chain_repository(encoder_key: str, spec, num_versions: int = 24):
    encoder_factory, payload_factory = ENCODERS[encoder_key]
    repo = Repository(encoder_factory(), backend=spec, cache_size=0)
    payloads = payload_factory(num_versions)
    vid = repo.commit(payloads[0])
    vids = [vid]
    for payload in payloads[1:]:
        vid = repo.commit(payload, parents=[vid])
        vids.append(vid)
    return repo, vids, payloads


# --------------------------------------------------------------------- #
# marginal-cost admission
# --------------------------------------------------------------------- #
class TestCostAdmission:
    def test_cheap_candidate_is_rejected_when_full(self):
        costs = {"a": 10.0, "b": 20.0, "cheap": 1.0, "dear": 99.0}
        cache = LRUPayloadCache(2, victim_cost=costs.get)
        cache.put("a", "A")
        cache.put("b", "B")
        cache.put("cheap", "X")
        assert "cheap" not in cache
        assert cache.admission_rejections == 1
        # An expensive candidate displaces the cheapest victim instead.
        cache.put("dear", "D")
        assert "dear" in cache

    def test_scorerless_cache_never_rejects(self):
        cache = LRUPayloadCache(1)
        cache.put("a", "A")
        cache.put("b", "B")
        assert cache.admission_rejections == 0
        assert "b" in cache

    def test_unpriceable_candidate_or_victim_admits(self):
        costs = {"a": 10.0}
        cache = LRUPayloadCache(1, victim_cost=costs.get)
        cache.put("a", "A")
        cache.put("mystery", "M")  # candidate unpriceable -> admitted
        assert "mystery" in cache
        cache.put("known", "K")  # victim 'mystery' unpriceable -> admitted
        assert "known" in cache
        assert cache.admission_rejections == 0

    def test_not_full_always_admits(self):
        cache = LRUPayloadCache(4, victim_cost=lambda key: 100.0)
        cache.put("cheap", "X")
        assert "cheap" in cache
        assert cache.admission_rejections == 0


# --------------------------------------------------------------------- #
# the two-tier property suite
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_kind", BACKENDS)
@pytest.mark.parametrize("encoder_key", sorted(ENCODERS))
class TestTieredCacheProperties:
    def test_parity_and_warm_improvement(self, encoder_key, backend_kind, tmp_path):
        """Zipf stream larger than the memory tier: byte parity, fewer
        warm replays, and rejected cheap admissions under the cost policy."""
        spec = economy_backend_spec(backend_kind, tmp_path / "store")
        os.makedirs(tmp_path / "store", exist_ok=True)
        repo, vids, payloads = build_chain_repository(encoder_key, spec)
        expected = dict(zip(vids, payloads))
        stream = zipf_request_stream(vids, 80, exponent=1.1, seed=7)

        def warm_replay(service):
            """(deltas, hit_rate) of the warm replay after a cold pass."""
            for vid in stream:  # cold pass warms the tiers
                service.checkout(vid)
            cache = service.materializer.cache
            disk = getattr(cache, "disk", None)
            deltas_before = service.stats_counters.deltas_applied
            hits_before, misses_before = cache.hits, cache.misses
            disk_hits_before = disk.hits if disk is not None else 0
            for vid in stream:
                result = service.checkout(vid)
                assert result.payload == expected[vid]
            deltas = service.stats_counters.deltas_applied - deltas_before
            probes = (cache.hits - hits_before) + (cache.misses - misses_before)
            warm_hits = cache.hits - hits_before
            if disk is not None:
                warm_hits += disk.hits - disk_hits_before
            return deltas, warm_hits / probes if probes else 0.0

        single = VersionStoreService(repo, cache_size=4)
        single_deltas, single_hit_rate = warm_replay(single)
        single.close()

        tiered = VersionStoreService(
            repo,
            cache_size=4,
            cache_tier_dir=str(tmp_path / "tier"),
            cache_tier_bytes=32 * 1024 * 1024,
        )
        tiered_deltas, tiered_hit_rate = warm_replay(tiered)
        disk = tiered.materializer.cache.disk
        assert disk.spills > 0
        assert disk.hits > 0
        tiered.close()

        # The workload genuinely overflows the 4-entry memory tier, so the
        # memory-only cache cannot answer everything warm; the disk tier
        # must close (part of) that gap without ever replaying *more*.
        assert single_hit_rate < 1.0
        assert tiered_hit_rate > single_hit_rate
        assert tiered_deltas <= single_deltas


def test_torn_spill_file_degrades_to_recompute(tmp_path):
    cache = TieredPayloadCache(
        2, spill_dir=str(tmp_path / "tier"), spill_bytes=1 << 20
    )
    for index in range(4):
        cache.put(f"key{index}", [f"payload-{index}"] * 50)
    # Tear a spilled file behind the tier's back.
    victim = next(iter(cache.disk._index))
    with open(cache.disk._path(victim), "wb") as handle:
        handle.write(b"\x00torn")
    assert LRUPayloadCache.is_miss(cache.disk.get(victim))
    assert cache.disk.corruption_drops == 1
    assert victim not in cache.disk
    # The other entries still round-trip.
    survivor = next(iter(cache.disk._index))
    assert not LRUPayloadCache.is_miss(cache.disk.get(survivor))


def test_spill_tier_scrubs_previous_process_leftovers(tmp_path):
    tier_dir = tmp_path / "tier"
    os.makedirs(tier_dir)
    stale = tier_dir / "deadbeef.spill"
    stale.write_bytes(b"stale")
    torn_tmp = tier_dir / "deadbeef.spill.tmp12345"
    torn_tmp.write_bytes(b"torn")
    SpillTier(str(tier_dir), 1 << 20)
    assert not stale.exists()
    assert not torn_tmp.exists()


def test_frontend_acceptors_do_not_scrub_each_others_spills(tmp_path):
    """``--frontend-procs`` acceptors each spill into their own directory:
    opening the second tier must not unlink what the first has indexed."""
    from repro.cli import _cache_tier_dir, build_parser

    args = build_parser().parse_args(
        ["serve", str(tmp_path / "repo"), "--cache-tier-bytes", str(1 << 20)]
    )
    assert _cache_tier_dir(args, None) == str(tmp_path / "repo" / "cache-tier")
    first = SpillTier(_cache_tier_dir(args, 0), args.cache_tier_bytes)
    first.put("key", ["payload"] * 50)
    second = SpillTier(_cache_tier_dir(args, 1), args.cache_tier_bytes)
    assert first.directory != second.directory
    assert first.get("key") == ["payload"] * 50
    assert LRUPayloadCache.is_miss(second.get("key"))


def test_serving_with_torn_spills_recomputes_not_errors(tmp_path):
    repo, vids, payloads = build_chain_repository("line", None)
    service = VersionStoreService(
        repo,
        cache_size=2,
        cache_tier_dir=str(tmp_path / "tier"),
        cache_tier_bytes=1 << 20,
    )
    for vid in vids:
        service.checkout(vid)
    disk = service.materializer.cache.disk
    for key in list(disk._index):
        with open(disk._path(key), "wb") as handle:
            handle.write(b"garbage")
    for vid, payload in zip(vids, payloads):
        assert service.checkout(vid).payload == payload
    assert disk.corruption_drops > 0
    service.close()


# --------------------------------------------------------------------- #
# the measured Δ/Φ model
# --------------------------------------------------------------------- #
class TestMeasuredCostModel:
    def test_serving_populates_the_model(self):
        repo, vids, _ = build_chain_repository("line", None)
        service = VersionStoreService(repo, cache_size=0)
        for vid in vids:
            service.checkout(vid)
        model = repo.store.measured_cost_model()
        assert model["observations"] > 0
        assert model["observed_objects"] > 0
        assert model["seconds_per_phi"] is not None
        assert model["seconds_per_phi"] >= 0.0
        tip = repo.object_id_of(vids[-1])
        seconds = repo.store.measured_chain_seconds(tip)
        assert seconds is not None and seconds >= 0.0
        service.close()

    def test_measured_chain_seconds_is_index_only(self):
        repo, vids, _ = build_chain_repository("line", None)
        service = VersionStoreService(repo, cache_size=0)
        for vid in vids:
            service.checkout(vid)
        backend = repo.store.backend
        original_get = backend.get
        reads: list[str] = []

        def instrumented_get(key):
            reads.append(key)
            return original_get(key)

        backend.get = instrumented_get
        try:
            for vid in vids:
                repo.store.measured_chain_seconds(repo.object_id_of(vid))
        finally:
            backend.get = original_get
        assert reads == []
        service.close()


# --------------------------------------------------------------------- #
# controller evaluation: zero payload reads
# --------------------------------------------------------------------- #
def test_adaptive_evaluation_reads_no_payloads():
    repo, vids, _ = build_chain_repository("line", None)
    service = VersionStoreService(repo, cache_size=8)
    # Few enough accesses that the controller stays in its warming /
    # steady states: evaluation cycles that never solve a plan.
    for vid in vids[:10]:
        service.checkout(vid)

    backend = repo.store.backend
    original_get = backend.get
    original_get_many = getattr(backend, "get_many", None)
    reads: list[str] = []

    def instrumented_get(key):
        reads.append(key)
        return original_get(key)

    def instrumented_get_many(keys, **kwargs):
        reads.extend(keys)
        return original_get_many(keys, **kwargs)

    backend.get = instrumented_get
    if original_get_many is not None:
        backend.get_many = instrumented_get_many
    evaluated = 0
    try:
        for _ in range(5):
            before = len(reads)
            report = service.adaptive_repack_cycle()
            if "repack" in report:
                # The controller triggered and a plan was solved — plan
                # construction diffs payloads by design.  Everything up to
                # that decision already ran read-free; stop the window.
                break
            # Evaluation — warm pricing, controller observe, staging
            # estimate — is a pure cost-index walk.
            assert reads[before:] == []
            evaluated += 1
    finally:
        backend.get = original_get
        if original_get_many is not None:
            backend.get_many = original_get_many
    assert evaluated >= 1
    service.close()


# --------------------------------------------------------------------- #
# staging-cost calibration
# --------------------------------------------------------------------- #
class TestStagingCalibration:
    def test_scale_converges_toward_measured_ratio(self):
        calibration = StagingCostCalibration()
        assert calibration.calibrated(100.0) == 100.0
        calibration.observe(100.0, 50.0)
        assert calibration.scale == pytest.approx(0.5)
        for _ in range(20):
            calibration.observe(100.0, 50.0)
        assert calibration.calibrated(100.0) == pytest.approx(50.0)

    def test_state_roundtrip_and_clamps(self):
        calibration = StagingCostCalibration()
        calibration.observe(1.0, 1e9)
        assert calibration.scale == calibration.max_scale
        reloaded = StagingCostCalibration()
        reloaded.load_state(calibration.state_dict())
        assert reloaded.scale == calibration.scale
        assert reloaded.observations == calibration.observations
        reloaded.load_state({"scale": "bogus"})  # garbage is ignored
        assert reloaded.scale == calibration.scale

    def test_repack_records_and_persists_calibration(self, tmp_path):
        spec = f"sqlite://{tmp_path}/catalog.db"
        repo, vids, _ = build_chain_repository("line", spec)
        service = VersionStoreService(repo, cache_size=8)
        for vid in vids:
            service.checkout(vid)
        report = service.repack()
        assert report["applied"]
        assert report["staging_cost_estimate"] > 0
        assert report["staging_cost_paid"] > 0
        assert report["staging_seconds"] >= 0
        assert report["staging_scale"] == pytest.approx(
            service.staging_calibration.scale
        )
        stats = service.stats()
        assert stats["repack"]["staging_calibration"]["observations"] == 1
        decision = stats["repack"]["decisions"][-1]
        assert decision["event"] == "repack"
        assert decision["staging_cost_paid"] > 0
        assert "staging_scale" in decision
        service.close()

        # A fresh service over the same catalog restores the learned scale.
        reopened = Repository(repo.encoder, backend=spec, cache_size=0)
        service2 = VersionStoreService(reopened)
        assert service2.staging_calibration.scale == pytest.approx(
            service.staging_calibration.scale
        )
        assert service2.staging_calibration.observations == 1
        service2.close()

    def test_adaptive_gate_uses_the_calibrated_estimate(self):
        repo, vids, _ = build_chain_repository("line", None)
        service = VersionStoreService(repo, cache_size=8)
        # Poison the calibration so the calibrated staging cost is huge:
        # a triggered controller must then veto on amortization grounds.
        service.staging_calibration.observe(1.0, 1e6)
        for _ in range(6):
            for vid in vids:
                service.checkout(vid)
            report = service.adaptive_repack_cycle()
            assert not report["fired"]
            if "staging_cost_calibrated" in report:
                assert report["staging_cost_calibrated"] == pytest.approx(
                    report["staging_cost_estimate"]
                    * service.staging_calibration.scale
                )
        service.close()


# --------------------------------------------------------------------- #
# stats plumbing
# --------------------------------------------------------------------- #
def test_stats_expose_admission_and_tier(tmp_path):
    repo, vids, _ = build_chain_repository("line", None)
    service = VersionStoreService(
        repo,
        cache_size=4,
        cache_tier_dir=str(tmp_path / "tier"),
        cache_tier_bytes=1 << 20,
    )
    for vid in vids:
        service.checkout(vid)
    cache = service.stats()["serving"]["cache"]
    assert "admission_rejections" in cache
    tier = cache["tier"]
    assert tier["max_bytes"] == 1 << 20
    assert tier["spills"] > 0
    assert tier["bytes_used"] > 0
    service.close()
