"""Tests for VersionStoreService: warm cache, coalescing, thread safety."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ReproError, VersionNotFoundError
from repro.server.service import VersionStoreService
from repro.storage.backends import FilesystemBackend
from repro.storage.catalog import SQLiteBackend
from repro.storage.repository import Repository
from repro.storage.testing import FlakyBackend, InjectedFault


def build_service(
    num_versions: int = 12, **service_kwargs
) -> tuple[VersionStoreService, list[str]]:
    repo = Repository(cache_size=0)
    payload = [f"row,{i},{i * 3}" for i in range(30)]
    vids = [repo.commit(payload, message="base")]
    for step in range(1, num_versions):
        payload = payload + [f"appended,{step}"]
        vids.append(repo.commit(payload, message=f"step {step}"))
    return VersionStoreService(repo, **service_kwargs), vids


class TestCheckout:
    def test_matches_direct_repository_checkout(self):
        service, vids = build_service()
        for vid in vids:
            direct = service.repository.checkout(vid)
            served = service.checkout(vid)
            assert served.payload == direct.payload
            assert served.chain_length == direct.chain_length

    def test_warm_cache_spares_repeat_replays(self):
        service, vids = build_service()
        head = vids[-1]
        first = service.checkout(head)
        assert first.deltas_applied == len(vids) - 1
        second = service.checkout(head)
        assert second.deltas_applied == 0
        assert second.payload == first.payload

    def test_cache_shared_across_checkout_and_batch(self):
        service, vids = build_service()
        service.checkout_many(vids)
        # The batch warmed the same cache single checkouts read.
        assert service.checkout(vids[-1]).deltas_applied == 0

    def test_unknown_version_raises(self):
        service, _ = build_service(3)
        with pytest.raises(VersionNotFoundError):
            service.checkout("ghost")
        # A failed request must not leave a stuck inflight entry behind.
        assert service._inflight == {}
        with pytest.raises(VersionNotFoundError):
            service.checkout("ghost")

    def test_stats_track_amortization(self):
        service, vids = build_service(10)
        for vid in vids:
            service.checkout(vid)
        for vid in vids:
            service.checkout(vid)
        stats = service.stats()["serving"]
        assert stats["checkout_requests"] == 2 * len(vids)
        assert stats["naive_delta_applications"] == 2 * sum(range(len(vids)))
        # Ascending first pass replays each delta once; warm pass replays none.
        assert stats["deltas_applied"] == len(vids) - 1
        assert stats["deltas_applied"] < stats["naive_delta_applications"]


class TestCommit:
    def test_commit_then_checkout(self):
        service, vids = build_service(4)
        new_vid = service.commit(["fresh", "payload"], parents=[vids[0]])
        assert service.checkout(new_vid).payload == ["fresh", "payload"]
        assert service.stats()["serving"]["commits"] == 1

    def test_commit_on_new_branch(self):
        service, vids = build_service(4)
        vid = service.commit(["branched"], branch="experiments", parents=[vids[1]])
        assert service.repository.branches["experiments"] == vid

    def test_commit_on_new_branch_starts_at_the_current_head(self):
        service, vids = build_service(4)
        vid = service.commit(["branched"], branch="experiments")
        repo = service.repository
        assert repo.graph.version(vid).parents == (vids[-1],)
        assert repo.current_branch == "experiments"
        assert repo.branches["main"] == vids[-1]
        assert repo.graph.version(service.commit(["next"])).parents == (vid,)

    def test_on_commit_hook_fires(self):
        seen = []
        repo = Repository()
        service = VersionStoreService(repo, on_commit=seen.append)
        service.commit(["a"])
        service.commit(["a", "b"])
        assert seen == [repo, repo]

    def test_plan_requires_versions(self):
        service = VersionStoreService(Repository())
        with pytest.raises(ReproError):
            service.plan()

    def test_plan_reports_metrics_and_plan(self):
        service, _ = build_service(6)
        report = service.plan(problem=1)
        assert report["algorithm"] == "mst"
        assert report["metrics"]["storage_cost"] > 0
        assert report["plan"]["materialized"]
        assert len(report["plan"]["deltas"]) + len(report["plan"]["materialized"]) == 6


def flaky_store(kind: str, tmp_path) -> FlakyBackend:
    if kind == "file":
        return FlakyBackend(FilesystemBackend(str(tmp_path / "objects")))
    return FlakyBackend(SQLiteBackend(f"sqlite://{tmp_path}/cat.db"))


class TestFailedCommitLeavesBranches:
    """A commit that fails creates and switches no branch, in memory or in
    the catalog, so the next plain commit still lands where it did."""

    @pytest.mark.parametrize("kind", ["file", "sqlite"])
    @pytest.mark.parametrize("failure", ["unknown-parent", "put-failure"])
    def test_branches_are_unchanged(self, kind, failure, tmp_path):
        backend = flaky_store(kind, tmp_path)
        repo = Repository(backend=backend)
        head = repo.commit(["row,1", "row,2"], message="base")
        service = VersionStoreService(repo)
        before = (repo.branches, repo.current_branch)
        if failure == "unknown-parent":
            parents, error = ["nope"], VersionNotFoundError
        else:
            backend.fail_puts_after = 0
            parents, error = None, InjectedFault
        with pytest.raises(error):
            service.commit(["x"], parents=parents, branch="feat")
        assert (repo.branches, repo.current_branch) == before
        if kind == "sqlite":
            reloaded = Repository(backend=SQLiteBackend(f"sqlite://{tmp_path}/cat.db"))
            assert (reloaded.branches, reloaded.current_branch) == before
        backend.heal()
        vid = service.commit(["row,1", "row,2", "row,3"])
        assert repo.branches == {"main": vid}
        assert repo.graph.version(vid).parents == (head,)
        service.close()


class TestConcurrency:
    def test_coalesced_requests_share_one_replay(self):
        service, vids = build_service(20)
        head = vids[-1]
        barrier = threading.Barrier(8)
        responses: list = []
        errors: list = []

        def request():
            barrier.wait()
            try:
                responses.append(service.checkout(head))
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=request) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(responses) == 8
        expected = service.repository.checkout(head).payload
        # Coalescing correctness: every waiter got the same bytes.
        for response in responses:
            assert response.payload == expected
        # Exactly one request led; it alone paid the replay.
        leaders = [r for r in responses if not r.coalesced]
        stats = service.stats()["serving"]
        assert stats["deltas_applied"] == len(vids) - 1
        assert stats["coalesced_requests"] == len(responses) - len(leaders)
        # The inflight table drains completely.
        assert service._inflight == {}

    def test_multithreaded_checkout_many(self):
        service, vids = build_service(16)
        expected = {
            vid: service.repository.checkout(vid).payload
            for vid in vids
        }
        barrier = threading.Barrier(6)
        failures: list = []

        def batch(offset: int):
            barrier.wait()
            requested = vids[offset:] + vids[:offset]
            try:
                result = service.checkout_many(requested)
                for vid in requested:
                    if result.items[vid].payload != expected[vid]:
                        failures.append((offset, vid))
            except BaseException as error:
                failures.append((offset, error))

        threads = [threading.Thread(target=batch, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        stats = service.stats()["serving"]
        assert stats["checkout_requests"] == 6 * len(vids)
        # Six interleaved batches over the same chain never replay more than
        # one batch's worth of deltas plus the warm-cache-free first pass.
        assert stats["deltas_applied"] <= len(vids) - 1 + 5 * 0 + len(vids)

    def test_stats_snapshots_are_never_torn(self):
        """Counters recorded together must appear together: a stats snapshot
        taken during concurrent batches may not mix a materialization's
        cache-counter effects with missing serving counters (or tear the
        per-version map against the request total)."""
        service, vids = build_service(16)
        stop = threading.Event()
        violations: list = []
        errors: list = []

        def hammer_batches(offset: int) -> None:
            while not stop.is_set():
                try:
                    service.checkout_many(vids[offset:] + vids[:offset])
                    service.checkout(vids[offset])
                except BaseException as error:  # pragma: no cover
                    errors.append(error)
                    return

        def poll_stats() -> None:
            while not stop.is_set():
                snapshot = service.stats()["serving"]
                per_version_total = sum(snapshot["per_version"].values())
                if per_version_total != snapshot["checkout_requests"]:
                    violations.append(
                        ("per_version", per_version_total, snapshot["checkout_requests"])
                    )
                if snapshot["deltas_applied"] > snapshot["naive_delta_applications"]:
                    violations.append(("deltas", snapshot))
                if snapshot["coalesced_requests"] > snapshot["checkout_requests"]:
                    violations.append(("coalesced", snapshot))
                if snapshot["deltas_applied"] > snapshot["cache"]["misses"]:
                    # Every applied delta was a cache miss first; seeing the
                    # application without the miss means the snapshot tore.
                    violations.append(("cache", snapshot))

        workers = [
            threading.Thread(target=hammer_batches, args=(i,)) for i in range(3)
        ] + [threading.Thread(target=poll_stats) for _ in range(2)]
        for thread in workers:
            thread.start()
        import time

        time.sleep(0.8)
        stop.set()
        for thread in workers:
            thread.join(timeout=30)
        assert errors == []
        assert violations == []

    def test_mixed_readers_and_writers(self):
        service, vids = build_service(8)
        barrier = threading.Barrier(4)
        errors: list = []

        def reader():
            barrier.wait()
            try:
                for vid in vids:
                    service.checkout(vid)
            except BaseException as error:
                errors.append(error)

        def writer(tag: str):
            barrier.wait()
            try:
                for step in range(3):
                    service.commit([f"{tag},{step}"], parents=[vids[0]])
            except BaseException as error:
                errors.append(error)

        threads = [
            threading.Thread(target=reader),
            threading.Thread(target=reader),
            threading.Thread(target=writer, args=("w1",)),
            threading.Thread(target=writer, args=("w2",)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert service.stats()["serving"]["commits"] == 6
