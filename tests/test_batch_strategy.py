"""The union-tree DFS guarantee: every shared prefix replays exactly once."""

from __future__ import annotations

import pytest

from repro.storage.batch import BatchMaterializer
from repro.storage.repository import Repository


def build_tree_repo() -> tuple[Repository, list[str]]:
    """A trunk with three branches — plenty of shared prefix to amortize."""
    repo = Repository(cache_size=0)
    payload = [f"row,{i}" for i in range(25)]
    vids = [repo.commit(payload)]
    for step in range(1, 8):
        payload = payload + [f"trunk,{step}"]
        vids.append(repo.commit(payload))
    fork_point = vids[-1]
    for branch in ("a", "b", "c"):
        repo.branch(branch, at=fork_point)
        repo.switch(branch)
        branch_payload = payload + [f"branch,{branch}"]
        vids.append(repo.commit(branch_payload))
        branch_payload = branch_payload + [f"tip,{branch}"]
        vids.append(repo.commit(branch_payload))
    return repo, vids


def unique_delta_objects(repo: Repository, vids: list[str]) -> int:
    """Number of distinct delta objects across the requested chains."""
    deltas = set()
    for vid in vids:
        for obj in repo.store.delta_chain(repo.object_id_of(vid)):
            if obj.is_delta:
                deltas.add(obj.object_id)
    return len(deltas)


class TestDFSGuarantee:
    @pytest.mark.parametrize("cache_size", [0, 1, 2, 64, 256])
    def test_every_prefix_replayed_once_regardless_of_cache(self, cache_size):
        """The DFS guarantee: replay count equals the union tree's delta count."""
        repo, vids = build_tree_repo()
        engine = BatchMaterializer(
            repo.store, repo.encoder, cache_size=cache_size
        )
        result = engine.materialize_many(
            [(vid, repo.object_id_of(vid)) for vid in vids]
        )
        assert result.deltas_applied == unique_delta_objects(repo, vids)
        for vid in vids:
            assert result.items[vid].payload == repo.checkout(vid).payload

    def test_dfs_accounting_stays_within_predictions(self):
        repo, vids = build_tree_repo()
        engine = BatchMaterializer(repo.store, repo.encoder, cache_size=0)
        result = engine.materialize_many(
            [(vid, repo.object_id_of(vid)) for vid in vids]
        )
        total_paid = 0.0
        for item in result.items.values():
            assert item.recreation_cost <= item.predicted_cost + 1e-9
            total_paid += item.recreation_cost
        assert total_paid == pytest.approx(result.total_recreation_cost)
        assert result.total_recreation_cost < result.total_predicted_cost

    def test_dfs_reads_the_warm_cache_across_batches(self):
        repo, vids = build_tree_repo()
        engine = BatchMaterializer(repo.store, repo.encoder, cache_size=256)
        requests = [(vid, repo.object_id_of(vid)) for vid in vids]
        engine.materialize_many(requests)
        warm = engine.materialize_many(requests)
        assert warm.deltas_applied == 0

    def test_dfs_short_circuits_at_deepest_cached_ancestor(self):
        """A warm repeat must replay nothing when the tip is cached and no
        intermediate prefix node is (the chain is trimmed at the cached
        tip, not re-walked from the root)."""
        repo, vids = build_tree_repo()
        tip = vids[-1]
        engine = BatchMaterializer(repo.store, repo.encoder, cache_size=1)
        request = [(tip, repo.object_id_of(tip))]
        cold = engine.materialize_many(request)
        assert cold.deltas_applied > 0
        # Leave the tip as the cache's only entry: a one-slot cache keeps
        # whichever payload is dearest to rebuild, not necessarily the tip.
        engine.clear_cache()
        engine.cache.put(repo.object_id_of(tip), cold.items[tip].payload)
        warm = engine.materialize_many(request)
        assert warm.deltas_applied == 0
        assert warm.items[tip].payload == repo.checkout(tip).payload

    def test_dfs_mixed_trimmed_and_untrimmed_chains(self):
        """One chain trims at a cached tip while a sibling still needs the
        shared prefix; both must come back correct."""
        repo, vids = build_tree_repo()
        tip_a, tip_b = vids[-1], vids[-3]
        engine = BatchMaterializer(repo.store, repo.encoder, cache_size=1)
        first = engine.materialize_many([(tip_a, repo.object_id_of(tip_a))])
        engine.clear_cache()
        engine.cache.put(repo.object_id_of(tip_a), first.items[tip_a].payload)
        # tip_a is now the only cached payload; tip_b needs the full prefix.
        mixed = engine.materialize_many(
            [(tip_a, repo.object_id_of(tip_a)), (tip_b, repo.object_id_of(tip_b))]
        )
        for vid in (tip_a, tip_b):
            assert mixed.items[vid].payload == repo.checkout(vid).payload
        assert mixed.items[tip_a].deltas_applied == 0

    def test_dfs_handles_duplicate_and_deduplicated_requests(self):
        repo = Repository(cache_size=0)
        payload = [f"row,{i}" for i in range(10)]
        first = repo.commit(payload)
        # Disjoint lines: the delta is not smaller, so both are stored full.
        repo.commit([f"other,{i}" for i in range(10)])
        revert = repo.commit(payload)  # same content => same object id
        assert repo.object_id_of(first) == repo.object_id_of(revert)
        batch = repo.checkout_many([first, revert, first])
        assert len(batch.items) == 2
        assert all(item.chain_length == 0 for item in batch.items.values())
        assert batch.items[first].payload == batch.items[revert].payload == payload
