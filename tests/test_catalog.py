"""Test battery for the ``sqlite://`` transactional metadata catalog.

Covers the acceptance properties of the catalog subsystem:

* **backend roundtrip** — ``SQLiteBackend`` is a full
  :class:`~repro.storage.backends.StorageBackend` (put/get/delete/keys,
  pickled values, reopenable spec);
* **shared metadata** — two :class:`Repository` instances on one catalog
  see each other's commits, branches and branch switches via ``sync()``;
* **restart** — a fresh process (new ``Repository``) reloads the complete
  version graph, counter, current branch and epoch from the catalog alone;
* **snapshot lifecycle** — staged → active is exactly-once (a lost race
  returns ``None`` and the loser's staging is prunable), activation
  carries forward versions committed after staging, dead epochs retain
  their mappings until pruned;
* **stale-commit retry** — a commit planned against a superseded epoch
  retries internally instead of corrupting the mapping;
* **epoch monotonicity** — ``stats.repack.epoch`` survives restarts, for
  both catalog-backed and JSON-state repositories;
* **workload + controller state** — the catalog-backed workload log is
  numerically identical to the file log, and adaptive-controller state
  round-trips through the catalog.
"""

from __future__ import annotations

import json
import os
import sqlite3

import pytest

from repro.core.problems import default_threshold, solve
from repro.exceptions import (
    DuplicateVersionError,
    SnapshotConflictError,
)
from repro.server.service import VersionStoreService
from repro.storage.catalog import (
    MetadataCatalog,
    SQLiteBackend,
)
from repro.storage.repack import AdaptiveRepackController, OnlineRepacker
from repro.storage.repository import Repository
from repro.storage.workload_log import WorkloadLog


def make_repo(path) -> Repository:
    return Repository(backend=f"sqlite://{path}", cache_size=0)


def commit_chain(repo: Repository, count: int, width: int = 20) -> list[str]:
    payload = [f"row,{i},{i * i}" for i in range(width)]
    vids = [repo.commit(payload, message="base")]
    for step in range(1, count):
        payload = list(payload)
        payload[step * 3 % len(payload)] = f"edited,{step}"
        payload.append(f"appended,{step}")
        vids.append(repo.commit(payload, message=f"step {step}"))
    return vids


def repack_once(repo: Repository, problem: int = 3) -> dict:
    instance = repo.problem_instance(hop_limit=2)
    threshold = default_threshold(instance, problem)
    result = solve(instance, problem, threshold=threshold)
    return OnlineRepacker(repo).repack(result.plan)


# --------------------------------------------------------------------- #
# SQLiteBackend as a storage backend
# --------------------------------------------------------------------- #
class TestSQLiteBackend:
    def test_roundtrip_and_keys(self, tmp_path):
        backend = SQLiteBackend(f"sqlite://{tmp_path}/cat.db")
        backend.put("a", {"x": [1, 2, 3]})
        backend.put("b", ["lines", "of", "text"])
        assert backend.get("a") == {"x": [1, 2, 3]}
        assert set(backend.keys()) == {"a", "b"}
        assert "a" in backend and "missing" not in backend
        assert len(backend) == 2
        got = backend.get_many(["a", "b", "missing"])
        assert set(got) == {"a", "b"}
        backend.delete("a")
        assert "a" not in backend

    def test_spec_reopens_same_store(self, tmp_path):
        path = str(tmp_path / "cat.db")
        backend = SQLiteBackend(f"sqlite://{path}")
        backend.put("k", "v")
        from repro.storage.backends import open_backend

        reopened = open_backend(backend.spec())
        assert reopened.get("k") == "v"

    def test_get_many_chunks_large_key_sets(self, tmp_path):
        backend = SQLiteBackend(f"sqlite://{tmp_path}/cat.db")
        keys = [f"key{i}" for i in range(1203)]
        for key in keys:
            backend.put(key, key.upper())
        got = backend.get_many(keys)
        assert len(got) == len(keys)
        assert got["key1202"] == "KEY1202"


# --------------------------------------------------------------------- #
# shared metadata between repository instances
# --------------------------------------------------------------------- #
class TestSharedCatalog:
    def test_peer_sees_commits_and_branches(self, tmp_path):
        path = tmp_path / "cat.db"
        writer, reader = make_repo(path), make_repo(path)
        vids = commit_chain(writer, 4)
        assert reader.sync() is True
        assert set(reader.graph.version_ids) == set(vids)
        assert reader.branches["main"] == vids[-1]
        assert reader.checkout(vids[-1]).payload == writer.checkout(vids[-1]).payload

        writer.branch("exp", at=vids[0])
        reader.sync()
        assert reader.branches["exp"] == vids[0]

    def test_sync_is_cheap_when_nothing_changed(self, tmp_path):
        repo = make_repo(tmp_path / "cat.db")
        commit_chain(repo, 2)
        repo.sync()
        assert repo.sync() is False  # change_seq poll short-circuits

    def test_restart_reloads_everything(self, tmp_path):
        path = tmp_path / "cat.db"
        repo = make_repo(path)
        vids = commit_chain(repo, 3)
        repo.branch("side", at=vids[1])
        repo.switch("side")
        expected = {vid: repo.checkout(vid).payload for vid in vids}

        reopened = make_repo(path)
        assert set(reopened.graph.version_ids) == set(vids)
        assert reopened.current_branch == "side"
        assert reopened.branches["side"] == vids[1]
        for vid in vids:
            assert reopened.checkout(vid).payload == expected[vid]
        # The counter continues, never reusing an id.
        new_vid = reopened.commit(["fresh", "payload"], message="after restart")
        assert new_vid not in vids

    def test_duplicate_version_id_rejected(self, tmp_path):
        repo = make_repo(tmp_path / "cat.db")
        repo.commit(["a"], version_id="dup")
        with pytest.raises(DuplicateVersionError):
            repo.commit(["b"], version_id="dup")


# --------------------------------------------------------------------- #
# snapshot lifecycle
# --------------------------------------------------------------------- #
class TestSnapshotLifecycle:
    def test_activation_is_exactly_once(self, tmp_path):
        repo = make_repo(tmp_path / "cat.db")
        commit_chain(repo, 3)
        catalog = repo.catalog
        first, epoch_a = catalog.create_snapshot()
        second, epoch_b = catalog.create_snapshot()
        assert epoch_a == epoch_b == 1  # both staged against epoch 0
        mapping = {vid: repo.object_id_of(vid) for vid in repo.graph.version_ids}
        catalog.stage_mapping(first, mapping)
        catalog.stage_mapping(second, mapping)

        assert catalog.activate_snapshot(first) == 1
        assert catalog.activate_snapshot(second) is None  # lost the race
        assert catalog.activate_snapshot(first) is None  # no double swap
        catalog.fail_snapshot(second, "lost activation race")
        statuses = {s["id"]: s["status"] for s in catalog.snapshots()}
        assert statuses[first] == "active"
        assert statuses[second] == "failed"
        assert second in catalog.prunable_snapshots()

    def test_activation_carries_forward_late_commits(self, tmp_path):
        repo = make_repo(tmp_path / "cat.db")
        vids = commit_chain(repo, 3)
        catalog = repo.catalog
        snapshot_id, _ = catalog.create_snapshot()
        mapping = {vid: repo.object_id_of(vid) for vid in vids}
        catalog.stage_mapping(snapshot_id, mapping)
        late = repo.commit(["committed", "after", "staging"], message="late")
        assert catalog.activate_snapshot(snapshot_id) == 1
        (active,) = [s for s in catalog.snapshots() if s["status"] == "active"]
        assert active["id"] == snapshot_id
        assert active["versions"] == len(vids) + 1
        repo.sync(force=True)
        assert repo.object_id_of(late) in catalog.live_object_ids()
        assert repo.checkout(late).payload == ["committed", "after", "staging"]

    def test_dead_epoch_keeps_its_mapping_until_prune(self, tmp_path):
        repo = make_repo(tmp_path / "cat.db")
        vids = commit_chain(repo, 4)
        (old,) = [s for s in repo.catalog.snapshots() if s["status"] == "active"]
        old_objects = {repo.object_id_of(vid) for vid in vids}
        repack_once(repo)
        (dead,) = [s for s in repo.catalog.snapshots() if s["id"] == old["id"]]
        assert dead["status"] == "dead"
        # The dead epoch still maps every version, so readers and peers
        # still on it keep their objects until it is pruned.
        assert dead["versions"] == old["versions"] == len(vids)
        assert old_objects <= repo.catalog.live_object_ids()

    def test_prune_refuses_active_snapshot(self, tmp_path):
        repo = make_repo(tmp_path / "cat.db")
        commit_chain(repo, 2)
        (active,) = [s for s in repo.catalog.snapshots() if s["status"] == "active"]
        with pytest.raises(SnapshotConflictError):
            repo.catalog.prune_snapshot(active["id"])

    def test_prune_dead_epochs_sweeps_unreferenced_objects(self, tmp_path):
        repo = make_repo(tmp_path / "cat.db")
        vids = commit_chain(repo, 6)
        expected = {vid: repo.checkout(vid).payload for vid in vids}
        repack_once(repo)
        repacker = OnlineRepacker(repo)
        report = repacker.prune_dead_epochs()
        assert report["pruned_snapshots"] >= 1
        # Every live version still materializes; the store holds exactly
        # the objects the active manifest's chains reach.
        for vid in vids:
            assert repo.checkout(vid).payload == expected[vid]
        assert repo.catalog.prunable_snapshots() == []
        live = set()
        for oid in repo.catalog.live_object_ids():
            live.update(repo.store.chain_ids(oid))
        assert set(repo.store.object_ids()) == live


# --------------------------------------------------------------------- #
# repack through the repository / service layers
# --------------------------------------------------------------------- #
class TestCatalogRepack:
    def test_repack_bytes_identical_and_peer_adopts_epoch(self, tmp_path):
        path = tmp_path / "cat.db"
        repo, peer = make_repo(path), make_repo(path)
        vids = commit_chain(repo, 8)
        expected = {vid: repo.checkout(vid).payload for vid in vids}
        peer.sync()

        report = repack_once(repo)
        assert report["epoch"] == 1.0
        assert repo.epoch == 1

        assert peer.sync() is True
        assert peer.epoch == 1
        for vid in vids:
            assert peer.checkout(vid).payload == expected[vid]

    def test_epoch_survives_restart(self, tmp_path):
        path = tmp_path / "cat.db"
        repo = make_repo(path)
        commit_chain(repo, 5)
        repack_once(repo)
        repack_once(repo, problem=5)
        assert repo.epoch == 2

        reopened = make_repo(path)
        assert reopened.epoch == 2
        service = VersionStoreService(reopened, cache_size=0)
        assert service.stats()["repack"]["epoch"] == 2

    def test_stale_commit_retries_against_new_epoch(self, tmp_path):
        path = tmp_path / "cat.db"
        repo, peer = make_repo(path), make_repo(path)
        vids = commit_chain(repo, 5)
        peer.sync()
        # A peer repack re-encodes the head as a full object in a new
        # epoch, so this process's remembered delta base for vids[-1] is
        # no longer the active mapping.
        catalog = repo.catalog
        new_oid = repo.store.put_full(repo.checkout(vids[-1]).payload)
        snapshot_id, _ = catalog.create_snapshot()
        mapping = {vid: repo.object_id_of(vid) for vid in vids}
        mapping[vids[-1]] = new_oid
        catalog.stage_mapping(snapshot_id, mapping)
        assert catalog.activate_snapshot(snapshot_id) == 1

        # The stale commit must succeed by syncing + re-encoding
        # internally, never by recording a delta against a dead base.  The
        # payload is a small edit of the parent's so it encodes as a delta.
        payload = peer.checkout(vids[-1]).payload + ["stale,edit"]
        new_vid = peer.commit(payload, parents=[vids[-1]], message="stale")
        assert peer.epoch == 1
        assert repo.sync() is True
        assert repo.checkout(new_vid).payload == payload

    def test_service_reports_lost_swap_as_conflict(self, tmp_path):
        path = tmp_path / "cat.db"
        repo, rival = make_repo(path), make_repo(path)
        commit_chain(repo, 6)
        rival.sync()
        service = VersionStoreService(repo, cache_size=0)

        # Interleave: the rival activates an epoch while the service's
        # repack is already planned/staged.  We emulate the interleaving by
        # staging+activating through the rival between plan and swap — the
        # service must surface applied=False with a conflict, not corrupt.
        original_swap = service.repacker.swap

        def racing_swap(staged):
            repack_once(rival)
            return original_swap(staged)

        service.repacker.swap = racing_swap
        report = service.repack(problem=3)
        assert report["applied"] is False
        assert "conflict" in report
        service.repacker.swap = original_swap
        # The rival's epoch won; everything still serves.
        repo.sync(force=True)
        assert repo.epoch == 1


# --------------------------------------------------------------------- #
# workload log + controller state in the catalog
# --------------------------------------------------------------------- #
class TestCatalogWorkloadLog:
    def test_matches_file_log_exactly(self, tmp_path):
        catalog = MetadataCatalog(str(tmp_path / "cat.db"))
        file_log = WorkloadLog(str(tmp_path / "workload.log"))
        cat_log = WorkloadLog(catalog)
        accesses = ["v1", "v2", "v1", "v3", "v1", "v2"] * 3
        for vid in accesses:
            file_log.record(vid)
            cat_log.record(vid)
        assert cat_log.counts() == file_log.counts()
        assert cat_log.total_accesses == file_log.total_accesses
        for vid in ("v1", "v2", "v3"):
            assert cat_log.decayed_counts()[vid] == pytest.approx(
                file_log.decayed_counts()[vid], abs=1e-12
            )
        ids = ["v1", "v2", "v3"]
        assert cat_log.frequencies(ids) == file_log.frequencies(ids)

    def test_counters_shared_across_instances_and_restart(self, tmp_path):
        path = str(tmp_path / "cat.db")
        catalog = MetadataCatalog(path)
        WorkloadLog(catalog).record_many(["a", "b", "a"])
        other = WorkloadLog(MetadataCatalog(path))
        assert other.counts() == {"a": 2, "b": 1}
        other.clear()
        assert WorkloadLog(MetadataCatalog(path)).counts() == {}

    def test_half_life_mismatch_rejected(self, tmp_path):
        catalog = MetadataCatalog(str(tmp_path / "cat.db"))
        log = WorkloadLog(catalog, half_life=100.0)
        log.record("v1")
        with pytest.raises(ValueError):
            log.decayed_frequencies(["v1"], half_life=7.0)


class TestControllerState:
    def test_state_roundtrips_through_catalog(self, tmp_path):
        catalog = MetadataCatalog(str(tmp_path / "cat.db"))
        controller = AdaptiveRepackController()
        controller.baseline = 42.5
        controller.evaluations = 7
        controller.repacks_fired = 2
        catalog.save_policy_state("controller_state", controller.state_dict())

        restored = AdaptiveRepackController()
        restored.load_state(catalog.load_policy_state("controller_state"))
        assert restored.baseline == 42.5
        assert restored.evaluations == 7
        assert restored.repacks_fired == 2

    def test_load_tolerates_missing_state(self, tmp_path):
        catalog = MetadataCatalog(str(tmp_path / "cat.db"))
        assert catalog.load_policy_state("controller_state") is None
        controller = AdaptiveRepackController()
        controller.load_state(None)  # no-op, keeps defaults
        assert controller.evaluations == 0

    def test_unknown_policy_name_is_refused(self, tmp_path):
        catalog = MetadataCatalog(str(tmp_path / "cat.db"))
        with pytest.raises(ValueError):
            catalog.save_policy_state("epoch", {"scale": 2.0})
        assert catalog.epoch() == 0

    def test_service_restores_rows_in_the_existing_layout(self, tmp_path):
        """A catalog whose ``controller_state`` and ``staging_calibration``
        meta rows hold plain JSON objects (the layout every earlier release
        wrote) restores both policies unchanged."""
        path = str(tmp_path / "cat.db")
        repo = Repository(backend=f"sqlite://{path}")
        repo.commit(["row,1", "row,2"])
        with sqlite3.connect(path) as connection:
            connection.executemany(
                "INSERT OR REPLACE INTO meta(key, value) VALUES (?, ?)",
                [
                    (
                        "controller_state",
                        json.dumps({"state": "steady", "baseline": 42.5, "evaluations": 7}),
                    ),
                    (
                        "staging_calibration",
                        json.dumps({"scale": 1.75, "observations": 3}),
                    ),
                ],
            )
        service = VersionStoreService(
            Repository(backend=f"sqlite://{path}"), adaptive_repack=True
        )
        try:
            assert service.policy.controller.state == "steady"
            assert service.policy.controller.baseline == 42.5
            assert service.policy.controller.evaluations == 7
            assert service.policy.staging_calibration.scale == 1.75
            assert service.policy.staging_calibration.observations == 3
        finally:
            service.close()


# --------------------------------------------------------------------- #
# CLI state-file integration
# --------------------------------------------------------------------- #
class TestCLIStateFile:
    def test_sqlite_state_file_is_pointer_only(self, tmp_path):
        from repro.cli import load_repository, save_repository

        directory = str(tmp_path / "repo")
        os.makedirs(directory)
        repo = make_repo(os.path.join(directory, "cat.db"))
        repo.backend_spec = "sqlite://cat.db"
        commit_chain(repo, 3)
        save_repository(repo, directory)

        import json

        with open(os.path.join(directory, "repro_state.json")) as handle:
            state = json.load(handle)
        assert set(state) == {"backend"}  # catalog is authoritative

        reopened = load_repository(directory)
        assert len(reopened) == 3

    def test_json_state_restores_epoch(self, tmp_path):
        from repro.cli import load_repository, save_repository

        directory = str(tmp_path / "repo")
        os.makedirs(directory)
        repo = Repository(backend=f"file://{directory}/objects", cache_size=0)
        repo.backend_spec = f"file://{directory}/objects"
        commit_chain(repo, 4)
        repack_once(repo)
        assert repo.epoch == 1
        save_repository(repo, directory)

        reopened = load_repository(directory)
        assert reopened.epoch == 1
        service = VersionStoreService(reopened, cache_size=0)
        assert service.stats()["repack"]["epoch"] == 1
