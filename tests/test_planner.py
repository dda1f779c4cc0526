"""Tests for applying storage plans to a repository (``Repository.repack``)."""

from __future__ import annotations

import pytest

from repro.core.storage_plan import StoragePlan
from repro.delta.line_diff import LineDiffEncoder
from repro.exceptions import InvalidStoragePlanError
from repro.storage import plan_order
from repro.storage.repository import Repository


def build_repo(num_versions: int = 5) -> Repository:
    repo = Repository(encoder=LineDiffEncoder())
    payload = [f"row,{i},{i * i}" for i in range(60)]
    repo.commit(payload)
    for index in range(num_versions - 1):
        payload = payload[:30] + [f"inserted,{index},0"] + payload[30:]
        repo.commit(payload)
    return repo


class TestPlanOrder:
    def test_parents_precede_children(self):
        plan = StoragePlan()
        plan.materialize("a")
        plan.assign("b", "a")
        plan.assign("c", "b")
        plan.materialize("d")
        order = plan_order(plan)
        assert order.index("a") < order.index("b") < order.index("c")
        assert set(order) == {"a", "b", "c", "d"}

    def test_cycle_detected(self):
        plan = StoragePlan()
        plan.assign("a", "b")
        plan.assign("b", "a")
        with pytest.raises(InvalidStoragePlanError):
            plan_order(plan)


class TestRepositoryRepack:
    def test_single_chain_layout(self):
        repo = build_repo(5)
        ids = repo.graph.version_ids
        payloads = {vid: repo.checkout(vid).payload for vid in ids}
        plan = StoragePlan()
        plan.materialize(ids[0])
        for parent, child in zip(ids, ids[1:]):
            plan.assign(child, parent)
        report = repo.repack(plan)
        assert report["num_materialized"] == 1
        assert report["num_deltas"] == len(ids) - 1
        for vid in ids:
            assert repo.checkout(vid).payload == payloads[vid]
        assert repo.checkout(ids[-1]).chain_length == len(ids) - 1

    def test_incomplete_plan_rejected(self):
        repo = build_repo(3)
        plan = StoragePlan()
        plan.materialize(repo.graph.version_ids[0])
        with pytest.raises(InvalidStoragePlanError):
            repo.repack(plan)

    def test_unreferenced_objects_dropped(self):
        repo = build_repo(4)
        ids = repo.graph.version_ids
        plan = StoragePlan.materialize_all(ids)
        repo.repack(plan)
        # Every version is now a standalone full object; the store should not
        # keep any delta objects around.
        assert all(not obj.is_delta for obj in repo.store)

    def test_report_storage_matches_store(self):
        repo = build_repo(4)
        ids = repo.graph.version_ids
        plan = StoragePlan()
        plan.materialize(ids[0])
        for parent, child in zip(ids, ids[1:]):
            plan.assign(child, parent)
        report = repo.repack(plan)
        assert report["storage_after"] == pytest.approx(repo.store.total_storage_cost())

    def test_repack_is_idempotent(self):
        repo = build_repo(4)
        ids = repo.graph.version_ids
        plan = StoragePlan()
        plan.materialize(ids[0])
        for parent, child in zip(ids, ids[1:]):
            plan.assign(child, parent)
        first = repo.repack(plan)
        second = repo.repack(plan)
        assert second["storage_after"] == pytest.approx(first["storage_after"])
