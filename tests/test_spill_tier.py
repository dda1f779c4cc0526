"""Tests for the byte budget of the disk spill tier and its failure modes.

The spill tier (:class:`repro.storage.cache_tiers.SpillTier`) keeps the
compressed bytes it holds under ``max_bytes``: the oldest entries are
ranked by ``victim_cost`` (plain LRU without a scorer) and the cheapest
one is deleted, file and all.  Payloads it cannot hold — larger than the
whole tier, or not picklable — stay memory-only instead of raising.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.storage.cache_tiers import LRUPayloadCache, SpillTier, TieredPayloadCache


def payload(index: int) -> bytes:
    """An incompressible 1 KiB payload, so every entry spills the same size."""
    return random.Random(index).randbytes(1024)


@pytest.fixture
def entry_size(tmp_path) -> int:
    probe = SpillTier(str(tmp_path / "probe"), 1 << 20)
    probe.put("probe", payload(0))
    return probe.bytes_used


def spill_files(tier: SpillTier) -> set[str]:
    return {name for name in os.listdir(tier.directory) if name.endswith(".spill")}


def fill(tier: SpillTier, count: int) -> None:
    for index in range(count):
        tier.put(f"k{index}", payload(index))


class TestByteBudget:
    def test_least_recently_used_entries_leave_first(self, tmp_path, entry_size):
        tier = SpillTier(str(tmp_path / "tier"), int(3.5 * entry_size))
        fill(tier, 6)
        assert tier.bytes_used <= tier.max_bytes
        assert [key for key in ("k0", "k1", "k2") if key in tier] == []
        assert all(key in tier for key in ("k3", "k4", "k5"))
        assert tier.lru_evictions == 3
        assert tier.cost_evictions == 0
        # Evicted entries take their files with them.
        assert spill_files(tier) == {"k3.spill", "k4.spill", "k5.spill"}

    def test_a_hit_refreshes_recency(self, tmp_path, entry_size):
        tier = SpillTier(str(tmp_path / "tier"), int(3.5 * entry_size))
        fill(tier, 3)
        assert tier.get("k0") == payload(0)
        tier.put("k3", payload(3))
        assert "k0" in tier
        assert "k1" not in tier

    def test_cheapest_sampled_victim_is_evicted(self, tmp_path, entry_size):
        costs = {"k0": 10.0, "k1": 1.0, "k2": 5.0, "k3": 7.0}
        tier = SpillTier(
            str(tmp_path / "tier"), int(3.5 * entry_size), victim_cost=costs.get
        )
        fill(tier, 4)
        assert "k1" not in tier
        assert all(key in tier for key in ("k0", "k2", "k3"))
        assert tier.cost_evictions == 1
        assert tier.lru_evictions == 0

    def test_unpriceable_and_unscorable_entries_evict_first(
        self, tmp_path, entry_size
    ):
        def victim_cost(key: str) -> float | None:
            if key == "k1":
                return None
            if key == "k2":
                raise RuntimeError("scorer failed")
            return 1.0

        tier = SpillTier(
            str(tmp_path / "tier"), int(3.5 * entry_size), victim_cost=victim_cost
        )
        fill(tier, 5)
        assert "k1" not in tier
        assert "k2" not in tier
        assert all(key in tier for key in ("k0", "k3", "k4"))

    def test_newest_entry_is_never_a_victim(self, tmp_path, entry_size):
        costs = {"k0": 10.0, "k1": 0.0}
        tier = SpillTier(
            str(tmp_path / "tier"), int(1.5 * entry_size), victim_cost=costs.get
        )
        fill(tier, 2)
        assert "k1" in tier
        assert "k0" not in tier


class TestPayloadsTheTierCannotHold:
    def test_payload_larger_than_the_tier_is_not_spilled(self, tmp_path, entry_size):
        tier = SpillTier(str(tmp_path / "tier"), entry_size // 2)
        tier.put("big", payload(0))
        assert "big" not in tier
        assert tier.spills == 0
        assert spill_files(tier) == set()

    def test_unpicklable_payload_stays_memory_only(self, tmp_path):
        cache = TieredPayloadCache(
            4, spill_dir=str(tmp_path / "tier"), spill_bytes=1 << 20
        )
        unpicklable = [lambda: None]
        cache.put("k", unpicklable)
        assert cache.get("k") is unpicklable
        assert "k" not in cache.disk
        assert cache.disk.spills == 0

    def test_disabled_tier_stores_nothing(self, tmp_path):
        tier = SpillTier(str(tmp_path / "tier"), 0)
        tier.put("k", payload(0))
        assert "k" not in tier
        assert LRUPayloadCache.is_miss(tier.get("k"))
        assert tier.misses == 1
        assert not os.path.exists(tier.directory)


class TestVanishedFiles:
    def test_missing_spill_file_is_a_plain_miss(self, tmp_path):
        tier = SpillTier(str(tmp_path / "tier"), 1 << 20)
        tier.put("k", payload(0))
        os.unlink(os.path.join(tier.directory, "k.spill"))
        assert LRUPayloadCache.is_miss(tier.get("k"))
        assert tier.corruption_drops == 0
        assert "k" not in tier
        assert tier.bytes_used == 0

    def test_clear_deletes_every_spill_file(self, tmp_path):
        tier = SpillTier(str(tmp_path / "tier"), 1 << 20)
        fill(tier, 3)
        tier.clear()
        assert len(tier) == 0
        assert tier.bytes_used == 0
        assert spill_files(tier) == set()


def test_failing_admission_scorer_admits_the_entry():
    def victim_cost(key: str) -> float:
        if key == "new":
            raise RuntimeError("scorer failed")
        return 100.0

    cache = LRUPayloadCache(2, victim_cost=victim_cost)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("new", 3)
    assert cache.get("new") == 3
    assert cache.admission_rejections == 0
    assert len(cache) == 2
