"""Tests for the batch checkout engine (checkout_many / BatchMaterializer)."""

from __future__ import annotations

import pytest

from repro.exceptions import VersionNotFoundError
from repro.storage.batch import BatchMaterializer
from repro.storage.repository import Repository


def build_chain_repo(
    num_versions: int = 50, cache_size: int = 0
) -> tuple[Repository, list[str]]:
    """A repository whose versions form one shared-prefix delta chain.

    Cache-less by default, so sequential checkouts pay the full Φ chain.
    """
    repo = Repository(cache_size=cache_size)
    payload = [f"row,{i},{i * 2}" for i in range(40)]
    version_ids = [repo.commit(payload, message="base")]
    for step in range(1, num_versions):
        payload = payload + [f"appended,{step},0"]
        version_ids.append(repo.commit(payload, message=f"step {step}"))
    return repo, version_ids


class TestCheckoutMany:
    def test_fewer_delta_applications_than_sequential(self):
        """The acceptance-criteria scenario: a 50-version shared-prefix chain."""
        repo, version_ids = build_chain_repo(50)

        # Sequential, cache-less serving applies the full chain per version.
        sequential_applications = 0
        sequential_payloads = {}
        for vid in version_ids:
            result = repo.checkout(vid)
            sequential_applications += result.chain_length
            sequential_payloads[vid] = result.payload
        assert sequential_applications == sum(range(50))  # 0 + 1 + ... + 49

        batch = repo.checkout_many(version_ids)
        assert batch.naive_delta_applications == sequential_applications
        # Strictly fewer applications — each shared prefix is replayed once.
        assert batch.deltas_applied < sequential_applications
        assert batch.deltas_applied == 49
        # ...and identical payloads.
        for vid in version_ids:
            assert batch.items[vid].payload == sequential_payloads[vid]

    def test_costs_paid_vs_predicted(self):
        repo, version_ids = build_chain_repo(20)
        sequential_cost = sum(
            repo.checkout(vid).recreation_cost
            for vid in version_ids
        )
        batch = repo.checkout_many(version_ids)
        # The Φ prediction is exactly what sequential serving pays...
        assert batch.total_predicted_cost == pytest.approx(sequential_cost)
        # ...and the batch pays strictly less, with non-negative per-item savings.
        assert batch.total_recreation_cost < batch.total_predicted_cost
        assert batch.cost_savings > 0
        for item in batch.items.values():
            assert item.recreation_cost <= item.predicted_cost + 1e-9

    def test_request_order_does_not_matter(self):
        repo, version_ids = build_chain_repo(15)
        forward = repo.checkout_many(version_ids)
        repo.materializer.clear_cache()
        backward = repo.checkout_many(list(reversed(version_ids)))
        assert forward.deltas_applied == backward.deltas_applied
        for vid in version_ids:
            assert forward.items[vid].payload == backward.items[vid].payload

    def test_bounded_cache_stays_correct(self):
        repo, version_ids = build_chain_repo(12)
        tight = BatchMaterializer(repo.store, repo.encoder, cache_size=2)
        result = tight.materialize_many(
            [(vid, repo.object_id_of(vid)) for vid in version_ids]
        )
        for vid in version_ids:
            assert result.items[vid].payload == repo.checkout(vid).payload
        assert result.deltas_applied <= result.naive_delta_applications

    def test_zero_cache_dfs_still_shares_prefixes(self):
        """The union-tree DFS replays each shared prefix once even cache-less."""
        repo, version_ids = build_chain_repo(8)
        cold = BatchMaterializer(repo.store, repo.encoder, cache_size=0)
        result = cold.materialize_many(
            [(vid, repo.object_id_of(vid)) for vid in version_ids]
        )
        assert result.deltas_applied == len(version_ids) - 1
        for vid in version_ids:
            assert result.items[vid].payload == repo.checkout(vid).payload

    def test_branched_history_shares_the_common_prefix(self):
        repo = Repository(cache_size=0)
        base = [f"row,{i}" for i in range(30)]
        trunk = [repo.commit(base)]
        for step in range(1, 10):
            base = base + [f"trunk,{step}"]
            trunk.append(repo.commit(base))
        # Two branches forking from the trunk head.
        heads = []
        for branch in ("left", "right"):
            repo.branch(branch, at=trunk[-1])
            repo.switch(branch)
            heads.append(repo.commit(base + [f"branch,{branch}"]))
        batch = repo.checkout_many(trunk + heads)
        # Trunk replayed once (9 deltas) plus one delta per branch head.
        assert batch.deltas_applied == 11
        assert batch.naive_delta_applications == sum(range(10)) + 2 * 10

    def test_duplicate_requests_served_once(self):
        repo, version_ids = build_chain_repo(6)
        head = version_ids[-1]
        single_cost = repo.checkout(head).recreation_cost
        batch = repo.checkout_many([head, head, head])
        assert len(batch.items) == 1
        assert batch.items[head].payload == repo.checkout(head).payload
        # The single materialization stays charged — a repeated key must not
        # replace the charged item with a zeroed copy.
        assert batch.total_recreation_cost == pytest.approx(single_cost)
        assert batch.deltas_applied == len(version_ids) - 1

    def test_deduplicated_versions_charged_once(self):
        """Distinct versions with identical content share one object id; the
        aggregate paid cost must reflect the single materialization."""
        repo = Repository(cache_size=0)
        payload = [f"row,{i}" for i in range(20)]
        original = repo.commit(payload)
        # No line in common, so the delta is not smaller: every version is
        # stored in full and the revert lands on the original's object.
        repo.commit([f"other,{i}" for i in range(20)])
        revert = repo.commit(payload)  # content-identical to `original`
        assert repo.object_id_of(original) == repo.object_id_of(revert)

        batch = repo.checkout_many([original, revert])
        assert len(batch.items) == 2
        assert all(item.chain_length == 0 for item in batch.items.values())
        single_cost = repo.checkout(original).recreation_cost
        # Paid once, not once per alias; the prediction still counts both.
        assert batch.total_recreation_cost == pytest.approx(single_cost)
        assert batch.total_predicted_cost == pytest.approx(2 * single_cost)
        assert batch.items[original].payload == batch.items[revert].payload == payload

    def test_unknown_version_rejected(self):
        repo, _ = build_chain_repo(3)
        with pytest.raises(VersionNotFoundError):
            repo.checkout_many(["ghost"])

    def test_empty_request_list(self):
        repo, _ = build_chain_repo(3)
        batch = repo.checkout_many([])
        assert batch.items == {}
        assert batch.deltas_applied == 0
        assert batch.total_recreation_cost == 0.0

    def test_cache_persists_across_batches(self):
        repo, version_ids = build_chain_repo(10, cache_size=64)
        repo.checkout_many(version_ids)
        # A follow-up batch over already-cached versions applies no deltas.
        again = repo.checkout_many([version_ids[-1]])
        assert again.deltas_applied == 0
