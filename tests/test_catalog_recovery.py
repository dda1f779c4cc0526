"""Crash-recovery battery for the ``sqlite://`` metadata catalog.

A process can die at any point of the repack snapshot lifecycle.  The
catalog's guarantee is that *the active epoch is never the casualty*:

* **killed after ``create_snapshot``** (before any staging writes) — the
  abandoned ``staged`` row is visible, prunable, and the old epoch keeps
  serving byte-identically;
* **killed mid-staging** (the backend dies partway through the staged
  object writes, via :class:`~repro.storage.testing.FlakyBackend`) — the
  staging is recorded as ``failed``, zero staged state leaks into the
  active mapping, commits resume, and a later healed repack succeeds;
* **killed between ``stage_mapping`` and ``activate_snapshot``** — the
  fully-staged snapshot never becomes visible; a fresh process adopts the
  old epoch and ``prune_dead_epochs`` collects the orphaned staging
  without touching a single live chain;
* **activation is atomic** — after a successful activation the catalog
  is in the exactly-swapped state; a superseded staging can never
  activate afterwards (the crash window collapses to "before the
  transaction committed" or "after", with nothing in between).
"""

from __future__ import annotations

import pytest

from repro.core.problems import default_threshold, solve
from repro.storage.repack import OnlineRepacker
from repro.storage.repository import Repository
from repro.storage.testing import FlakyBackend, InjectedFault

from tests.test_catalog import commit_chain, make_repo, repack_once


def staged_plan(repo: Repository, problem: int = 3):
    instance = repo.problem_instance(hop_limit=2)
    return solve(
        instance, problem, threshold=default_threshold(instance, problem)
    ).plan


def checkout_all(repo: Repository) -> dict:
    return {
        vid: repo.checkout(vid).payload
        for vid in repo.graph.version_ids
    }


class TestCrashBeforeActivation:
    def test_abandoned_staging_leaves_old_epoch_intact(self, tmp_path):
        path = tmp_path / "cat.db"
        repo = make_repo(path)
        commit_chain(repo, 5)
        before = checkout_all(repo)

        # The "crashed" repacker: stages a full snapshot, then dies before
        # activate_snapshot (we simply never call it).
        crashed = make_repo(path)
        snapshot_id, _ = crashed.catalog.create_snapshot()
        mapping = {
            vid: crashed.object_id_of(vid) for vid in crashed.graph.version_ids
        }
        crashed.catalog.stage_mapping(snapshot_id, mapping)
        del crashed

        # A fresh process sees the old epoch, byte-identically.
        survivor = make_repo(path)
        assert survivor.epoch == 0
        assert checkout_all(survivor) == before
        assert snapshot_id in survivor.catalog.prunable_snapshots()

        report = OnlineRepacker(survivor).prune_dead_epochs()
        assert report["pruned_snapshots"] >= 1
        assert checkout_all(survivor) == before

    def test_crash_right_after_create_snapshot(self, tmp_path):
        path = tmp_path / "cat.db"
        repo = make_repo(path)
        commit_chain(repo, 3)
        before = checkout_all(repo)
        snapshot_id, proposed = repo.catalog.create_snapshot()
        assert proposed == 1
        # Crash here: no staging rows were ever written.

        survivor = make_repo(path)
        assert survivor.epoch == 0
        assert checkout_all(survivor) == before
        OnlineRepacker(survivor).prune_dead_epochs()
        statuses = [s["id"] for s in survivor.catalog.snapshots()]
        assert snapshot_id not in statuses
        # Commits resume on the surviving epoch.
        survivor.commit(["after", "the", "crash"], message="resume")

    def test_superseded_staging_can_never_activate(self, tmp_path):
        repo = make_repo(tmp_path / "cat.db")
        commit_chain(repo, 4)
        catalog = repo.catalog
        orphan, _ = catalog.create_snapshot()
        mapping = {vid: repo.object_id_of(vid) for vid in repo.graph.version_ids}
        catalog.stage_mapping(orphan, mapping)
        repack_once(repo)  # a healthy repack wins epoch 1 meanwhile
        # The orphan was staged against epoch 0, which is gone.
        assert catalog.activate_snapshot(orphan) is None
        assert repo.catalog.epoch() == 1


class TestCrashMidStaging:
    def test_staging_fault_records_failed_snapshot(self, tmp_path):
        from repro.storage.catalog import SQLiteBackend

        flaky = FlakyBackend(SQLiteBackend(f"sqlite://{tmp_path}/cat.db"))
        repo = Repository(backend=flaky, cache_size=0)
        assert repo.catalog is not None  # found through the wrapper
        commit_chain(repo, 6)
        before = checkout_all(repo)
        plan = staged_plan(repo)

        flaky.fail_puts_after = flaky.puts  # first staged write dies
        repacker = OnlineRepacker(repo)
        with pytest.raises(InjectedFault):
            repacker.rebuild(plan)

        statuses = {s["status"] for s in repo.catalog.snapshots()}
        assert "failed" in statuses
        assert "staged" not in statuses
        assert repo.epoch == 0
        assert checkout_all(repo) == before

        # Commits resume, and a healed repack completes normally.
        flaky.heal()
        repo.commit(before[next(iter(before))] + ["resumed"], message="resume")
        report = repack_once(repo)
        assert report["epoch"] == 1.0
        repacker.prune_dead_epochs()
        assert repo.catalog.prunable_snapshots() == []

    def test_prune_after_fault_leaks_nothing(self, tmp_path):
        from repro.storage.catalog import SQLiteBackend

        flaky = FlakyBackend(SQLiteBackend(f"sqlite://{tmp_path}/cat.db"))
        repo = Repository(backend=flaky, cache_size=0)
        commit_chain(repo, 6)
        before = checkout_all(repo)
        plan = staged_plan(repo)

        flaky.fail_puts_after = flaky.puts + 2  # die partway through
        with pytest.raises(InjectedFault):
            OnlineRepacker(repo).rebuild(plan)
        flaky.heal()

        OnlineRepacker(repo).prune_dead_epochs()
        # After the sweep the store holds exactly the chains the active
        # manifest reaches — the partial staging left zero orphans.
        live = set()
        for oid in repo.catalog.live_object_ids():
            live.update(repo.store.chain_ids(oid))
        assert set(repo.store.object_ids()) == live
        assert checkout_all(repo) == before


class TestActivationAtomicity:
    def test_activation_swaps_everything_or_nothing(self, tmp_path):
        path = tmp_path / "cat.db"
        repo = make_repo(path)
        vids = commit_chain(repo, 4)
        catalog = repo.catalog
        (old_active,) = [
            s["id"] for s in catalog.snapshots() if s["status"] == "active"
        ]
        snapshot_id, _ = catalog.create_snapshot()
        mapping = {vid: repo.object_id_of(vid) for vid in vids}
        catalog.stage_mapping(snapshot_id, mapping)

        # Before the activation transaction: old epoch fully active.
        fresh = make_repo(path)
        assert fresh.epoch == 0
        statuses = {s["id"]: s["status"] for s in fresh.catalog.snapshots()}
        assert statuses[old_active] == "active"
        assert statuses[snapshot_id] == "staged"

        assert catalog.activate_snapshot(snapshot_id) == 1

        # After: the new epoch fully active, the old retained as 'dead'
        # with its mapping intact — no intermediate state is observable.
        fresh = make_repo(path)
        assert fresh.epoch == 1
        rows = {s["id"]: s for s in fresh.catalog.snapshots()}
        assert rows[snapshot_id]["status"] == "active"
        assert rows[old_active]["status"] == "dead"
        assert rows[old_active]["versions"] == len(vids)
