"""The warm cost model: predictions vs measured serving work.

Property suite for the tentpole of the warm-cost refactor:

* **parity** — on randomized Zipf workloads across every encoder ×
  backend combination, ``warm_chain_cost`` predicted *immediately before*
  each request matches the ``deltas_applied`` / ``recreation_cost`` the
  service then actually reports, request by request;
* **cold degradation** — with an empty cache the warm model collapses to
  the existing cold Φ chain pricing exactly;
* **workload pricing** — ``expected_workload_cost(materializer=...)``
  aggregates per-version warm costs under the same frequencies as the
  cold price, and the served-stream acceptance bar (±15% on the benchmark
  Zipf workload) holds;
* **cost-aware eviction** — the cache ranks victims by the same marginal
  cost metric: cheap-to-rebuild entries go first, the most recent entry
  is never sacrificed, unpriceable entries leave before priced ones.
"""

from __future__ import annotations

import pytest

from repro.bench.serve_bench import warm_pricing_benchmark, zipf_request_stream
from repro.server.service import VersionStoreService
from repro.storage.batch import BatchMaterializer
from repro.storage.cache_tiers import LRUPayloadCache
from repro.storage.repack import expected_workload_cost
from repro.storage.repository import Repository

from tests.test_parallel_serving import BACKENDS, ENCODERS, backend_spec


def build_repo(encoder_key: str, backend_kind: str, tmp_path, num_versions: int = 9):
    encoder_factory, payload_factory = ENCODERS[encoder_key]
    repo = Repository(
        encoder=encoder_factory(),
        backend=backend_spec(backend_kind, tmp_path),
        cache_size=0,
    )
    payloads = payload_factory(num_versions)
    vids = [repo.commit(payloads[0], message="base")]
    for index, payload in enumerate(payloads[1:-2], start=1):
        vids.append(repo.commit(payload, parents=[vids[-1]], message=f"s{index}"))
    # A fork off the middle so chains share a prefix without being linear.
    fork_base = vids[len(vids) // 2]
    for payload in payloads[-2:]:
        vids.append(repo.commit(payload, parents=[fork_base], message="fork"))
        fork_base = vids[-1]
    return repo, vids


@pytest.mark.parametrize("backend_kind", BACKENDS)
@pytest.mark.parametrize("encoder_key", sorted(ENCODERS))
class TestWarmParityAcrossEncodersAndBackends:
    def test_prediction_matches_served_request_stream(
        self, encoder_key, backend_kind, tmp_path
    ):
        repo, vids = build_repo(encoder_key, backend_kind, tmp_path)
        service = VersionStoreService(repo, cache_size=4)
        stream = zipf_request_stream(vids, 30, exponent=1.7, seed=13)
        for step, vid in enumerate(stream):
            object_id = repo.object_id_of(vid)
            predicted = service.materializer.warm_chain_cost(object_id)
            response = service.checkout(vid)
            assert response.deltas_applied == predicted.deltas, (
                encoder_key,
                backend_kind,
                step,
                vid,
            )
            assert response.recreation_cost == pytest.approx(
                predicted.phi, rel=1e-9, abs=1e-9
            ), (encoder_key, backend_kind, step, vid)
        service.close()

    def test_cold_prediction_equals_chain_stats(
        self, encoder_key, backend_kind, tmp_path
    ):
        repo, vids = build_repo(encoder_key, backend_kind, tmp_path)
        service = VersionStoreService(repo, cache_size=8)
        for vid in vids:
            object_id = repo.object_id_of(vid)
            warm = service.materializer.warm_chain_cost(object_id)
            cold = repo.store.chain_stats(object_id)
            assert warm.cold
            assert warm.cached_depth == 0
            assert warm.phi == pytest.approx(cold.phi_total)
            assert warm.deltas == cold.num_deltas
            assert warm.chain_length == cold.length
        service.close()


class TestWarmWorkloadPricing:
    def _repo(self):
        repo = Repository(cache_size=0)
        payload = [f"row,{i}" for i in range(30)]
        vids = [repo.commit(payload)]
        for step in range(1, 10):
            payload = list(payload) + [f"appended,{step}"]
            vids.append(repo.commit(payload))
        return repo, vids

    def test_empty_cache_degrades_to_cold_price(self):
        repo, vids = self._repo()
        service = VersionStoreService(repo, cache_size=16)
        priced = expected_workload_cost(
            repo, None, materializer=service.materializer
        )
        assert priced["warm"]["per_request"] == pytest.approx(priced["per_request"])
        assert priced["warm"]["total"] == pytest.approx(priced["total"])
        service.close()

    def test_warm_price_is_sum_of_per_version_warm_costs(self):
        repo, vids = self._repo()
        service = VersionStoreService(repo, cache_size=4)
        for vid in (vids[-1], vids[-1], vids[3]):
            service.checkout(vid)
        frequencies = {vid: float(index + 1) for index, vid in enumerate(vids)}
        priced = expected_workload_cost(
            repo, frequencies, materializer=service.materializer
        )
        expected_total = sum(
            frequencies[vid]
            * service.materializer.warm_chain_cost(repo.object_id_of(vid)).phi
            for vid in vids
        )
        weight = sum(frequencies.values())
        assert priced["warm"]["total"] == pytest.approx(expected_total)
        assert priced["warm"]["per_request"] == pytest.approx(expected_total / weight)
        assert priced["warm"]["total"] <= priced["total"] + 1e-9
        service.close()

    def test_stats_surface_warm_pricing(self):
        repo, vids = self._repo()
        service = VersionStoreService(repo, cache_size=8)
        for vid in (vids[-1], vids[-1], vids[-2]):
            service.checkout(vid)
        stats = service.stats()
        cold = stats["workload"]["expected_recreation_cost"]
        assert "warm" in cold
        assert cold["warm"]["per_request"] <= cold["per_request"] + 1e-9
        decayed = stats["workload"]["decayed"]["expected_recreation_cost"]
        assert "warm" in decayed
        service.close()

    def test_acceptance_zipf_within_15_percent(self):
        """The PR's acceptance bar: predicted warm expected cost within
        ±15% of measured serving work on the benchmark Zipf workload."""
        rows = warm_pricing_benchmark(num_requests=150, cache_size=16, seed=3)
        assert rows, "benchmark produced no scenarios"
        for row in rows:
            assert row["delta_rel_error"] <= 0.15, row
            assert row["cost_rel_error"] <= 0.15, row
            # The whole point: cold pricing is nowhere near what warm
            # serving pays; the warm model is.
            assert row["cold_predicted_deltas"] > row["measured_deltas"]


class TestCostAwareEviction:
    def test_evicts_cheapest_candidate_not_oldest(self):
        costs = {"a": 50.0, "b": 1.0, "c": 30.0}
        cache = LRUPayloadCache(3, victim_cost=lambda key: costs[key])
        for key in ("a", "b", "c"):
            cache.put(key, key.upper())
        cache.put("d", "D")  # over capacity: "b" is the cheapest old entry
        assert "b" not in cache
        assert all(key in cache for key in ("a", "c", "d"))
        assert cache.cost_evictions == 1

    def test_most_recent_entry_is_never_the_victim(self):
        # The newest payload always *looks* cheap (its base is cached);
        # sacrificing it would defeat warm repeats entirely.
        cache = LRUPayloadCache(1, victim_cost=lambda key: 0.0)
        cache.put("old", 1)
        cache.put("new", 2)
        assert "new" in cache
        assert "old" not in cache

    def test_unpriceable_entries_evict_first(self):
        costs = {"a": 5.0, "b": None, "c": 10.0}
        cache = LRUPayloadCache(3, victim_cost=lambda key: costs[key])
        for key in ("a", "b", "c"):
            cache.put(key, key)
        cache.put("d", "d")
        assert "b" not in cache
        assert "a" in cache and "c" in cache and "d" in cache

    def test_scorer_exception_is_contained(self):
        def boom(key):
            raise RuntimeError("scoring failed")

        cache = LRUPayloadCache(2, victim_cost=boom)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # must not raise
        assert len(cache) == 2

    def test_plain_lru_without_scorer(self):
        cache = LRUPayloadCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_materializer_wires_marginal_cost_by_default(self):
        repo = Repository(cache_size=0)
        payload = [f"row,{i}" for i in range(20)]
        vids = [repo.commit(payload)]
        for step in range(1, 6):
            payload = list(payload) + [f"appended,{step}"]
            vids.append(repo.commit(payload))
        engine = BatchMaterializer(repo.store, repo.encoder, cache_size=4)
        assert engine.cache.victim_cost is not None
        engine.materialize(repo.object_id_of(vids[-1]))
        # Every cached entry must be priceable through the store's index.
        for key in list(engine.cache._entries):
            cost = engine._marginal_payload_cost(key)
            assert cost is not None and cost >= 0.0

    def test_marginal_cost_is_suffix_below_deepest_cached_ancestor(self):
        repo = Repository(cache_size=0)
        payload = [f"row,{i}" for i in range(20)]
        vids = [repo.commit(payload)]
        for step in range(1, 5):
            payload = list(payload) + [f"appended,{step}"]
            vids.append(repo.commit(payload))
        engine = BatchMaterializer(repo.store, repo.encoder, cache_size=64)
        tip_oid = repo.object_id_of(vids[-1])
        engine.materialize(tip_oid)  # caches the whole chain
        chain = repo.store.chain_ids(tip_oid)
        # With its base cached, a delta's marginal cost is its own phi.
        tip_meta = repo.store.meta(chain[-1])
        assert engine._marginal_payload_cost(chain[-1]) == pytest.approx(
            tip_meta.phi
        )
        # Strip the cache: the tip's marginal cost grows to the full chain.
        engine.clear_cache()
        full = repo.store.chain_stats(tip_oid).phi_total
        assert engine._marginal_payload_cost(chain[-1]) == pytest.approx(full)

    def test_cost_eviction_preserves_expensive_chain_payloads(self):
        """Under pressure, the cost-aware cache keeps the deep chain's
        work while a scorer-less (plain recency) cache throws it away —
        measured by what a repeat checkout of the deep tip replays."""
        def build():
            repo = Repository(cache_size=0)
            deep_payload = [f"deep,{i}" for i in range(40)]
            deep = [repo.commit(deep_payload)]
            for step in range(1, 8):
                deep_payload = list(deep_payload) + [f"deep-append,{step}"]
                deep.append(repo.commit(deep_payload, parents=[deep[-1]]))
            shallow = []
            for chain in range(4):
                # Tiny payloads: cheap to rebuild, so the marginal-cost
                # ranking sacrifices them before the deep chain's work.
                shallow.append(
                    repo.commit([f"shallow-{chain}"], parents=[])
                )
            return repo, deep, shallow

        replays = {}
        for eviction in ("cost", "lru"):
            repo, deep, shallow = build()
            engine = BatchMaterializer(repo.store, repo.encoder, cache_size=3)
            if eviction == "lru":
                engine.cache = LRUPayloadCache(3)
            engine.materialize(repo.object_id_of(deep[-1]))
            for vid in shallow:  # pressure from cheap full objects
                engine.materialize(repo.object_id_of(vid))
            replays[eviction] = engine.materialize(
                repo.object_id_of(deep[-1])
            ).deltas_applied
        assert replays["cost"] <= replays["lru"]
        assert replays["cost"] < 7, replays  # some deep work survived
