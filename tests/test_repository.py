"""Tests for the prototype version-managed repository."""

from __future__ import annotations

import pytest

from repro.delta.line_diff import LineDiffEncoder
from repro.exceptions import MergeError, RepositoryError, VersionNotFoundError
from repro.storage.repository import Repository


def make_payload(tag: str, rows: int = 30) -> list[str]:
    return [f"{tag},{index},{index * 2}" for index in range(rows)]


class TestCommitAndCheckout:
    def test_single_commit_roundtrip(self):
        repo = Repository()
        payload = make_payload("base")
        vid = repo.commit(payload, message="base")
        assert repo.checkout(vid).payload == payload
        assert len(repo) == 1

    def test_child_commit_stored_as_delta(self):
        repo = Repository(encoder=LineDiffEncoder())
        base = make_payload("base", rows=100)
        first = repo.commit(base)
        changed = list(base)
        changed[5] = "edited,row"
        second = repo.commit(changed)
        # The second object should be a delta, so total storage is much less
        # than two full copies.
        two_copies = 2 * repo.store.get(repo.object_id_of(first)).storage_cost()
        assert repo.total_storage_cost() < two_copies
        assert repo.checkout(second).payload == changed

    def test_dissimilar_commit_stored_in_full(self):
        repo = Repository()
        repo.commit(make_payload("aaaa"))
        vid = repo.commit([f"completely different {i}" for i in range(200)])
        assert repo.checkout(vid).chain_length == 0

    def test_explicit_parents_and_ids(self):
        repo = Repository()
        a = repo.commit(make_payload("a"), version_id="rev-a")
        b = repo.commit(make_payload("b"), parents=[a], version_id="rev-b")
        assert repo.graph.parents("rev-b") == ["rev-a"]
        assert b == "rev-b"

    def test_unknown_parent_rejected(self):
        repo = Repository()
        with pytest.raises(VersionNotFoundError):
            repo.commit(make_payload("x"), parents=["ghost"])

    def test_checkout_unknown_version_rejected(self):
        with pytest.raises(VersionNotFoundError):
            Repository().checkout("ghost")

    def test_removed_knobs_are_rejected(self):
        # Commit always deltas against the first parent, and checkouts
        # keep no per-repository ledger.
        with pytest.raises(TypeError):
            Repository(delta_against_parent=False)
        repo = Repository()
        vid = repo.commit(make_payload("knobs"))
        with pytest.raises(TypeError):
            repo.checkout(vid, record_stats=False)
        with pytest.raises(TypeError):
            repo.checkout_many([vid], record_stats=False)

    def test_disk_backed_repository(self, tmp_path):
        repo = Repository(directory=str(tmp_path / "objects"))
        vid = repo.commit(make_payload("disk"))
        assert repo.checkout(vid).payload == make_payload("disk")


class TestBranchesAndMerges:
    def test_branch_switch_commit(self):
        repo = Repository()
        base = repo.commit(make_payload("base"))
        repo.branch("feature")
        repo.switch("feature")
        feature = repo.commit(make_payload("feature"))
        assert repo.head("feature") == feature
        assert repo.head("main") == base
        assert repo.graph.parents(feature) == [base]

    def test_duplicate_branch_rejected(self):
        repo = Repository()
        repo.commit(make_payload("x"))
        repo.branch("dev")
        with pytest.raises(RepositoryError):
            repo.branch("dev")

    def test_switch_unknown_branch_rejected(self):
        with pytest.raises(RepositoryError):
            Repository().switch("ghost")

    def test_branch_at_specific_version(self):
        repo = Repository()
        first = repo.commit(make_payload("one"))
        repo.commit(make_payload("two"))
        repo.branch("old", at=first)
        assert repo.head("old") == first

    def test_merge_records_two_parents(self):
        repo = Repository()
        base = repo.commit(make_payload("base"))
        repo.branch("side")
        repo.switch("side")
        side = repo.commit(make_payload("side"))
        repo.switch("main")
        main = repo.commit(make_payload("main"))
        merged = repo.merge(side, make_payload("merged"))
        assert set(repo.graph.parents(merged)) == {main, side}

    def test_merge_into_empty_branch_rejected(self):
        repo = Repository()
        with pytest.raises(MergeError):
            repo.merge("anything", make_payload("m"))

    def test_merge_with_self_rejected(self):
        repo = Repository()
        head = repo.commit(make_payload("only"))
        with pytest.raises(MergeError):
            repo.merge(head, make_payload("m"))

    def test_log_returns_history_newest_first(self):
        repo = Repository()
        ids = [repo.commit(make_payload(f"c{i}")) for i in range(4)]
        log = repo.log()
        assert [v.version_id for v in log] == list(reversed(ids))
        assert repo.log(ids[1])[-1].version_id == ids[0]


class TestOptimizationBridge:
    def build_repo(self) -> Repository:
        repo = Repository(encoder=LineDiffEncoder())
        payload = make_payload("base", rows=80)
        repo.commit(payload)
        for index in range(6):
            payload = payload[:40] + [f"extra,{index},0"] + payload[40:]
            repo.commit(payload)
        return repo

    def test_cost_model_measured_from_payloads(self):
        repo = self.build_repo()
        model = repo.build_cost_model(hop_limit=2)
        assert model.delta.num_deltas() > 0
        # Adjacent versions differ by one line, so their delta must be far
        # smaller than a full version.
        ids = repo.graph.version_ids
        assert model.delta[ids[0], ids[1]] < 0.2 * model.delta[ids[0], ids[0]]

    def test_problem_instance_roundtrip(self):
        repo = self.build_repo()
        instance = repo.problem_instance(hop_limit=2)
        assert set(instance.version_ids) == set(repo.graph.version_ids)

    def test_repack_reduces_storage_and_preserves_payloads(self):
        from repro.algorithms.mst import minimum_storage_plan

        repo = self.build_repo()
        payloads = {vid: repo.checkout(vid).payload for vid in repo.graph.version_ids}
        instance = repo.problem_instance(hop_limit=2)
        plan = minimum_storage_plan(instance)
        report = repo.repack(plan)
        assert report["storage_after"] <= report["storage_before"] + 1e-6
        for vid, payload in payloads.items():
            assert repo.checkout(vid).payload == payload

    def test_repack_to_materialize_all(self):
        from repro.baselines.naive import materialize_all_plan

        repo = self.build_repo()
        instance = repo.problem_instance(hop_limit=2)
        repo.repack(materialize_all_plan(instance))
        for vid in repo.graph.version_ids:
            assert repo.checkout(vid).chain_length == 0
