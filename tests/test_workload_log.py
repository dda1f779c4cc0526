"""Tests for the persistent workload log (frequencies that survive restarts)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.storage.repository import Repository
from repro.storage.workload_log import WorkloadLog
from repro.server.service import VersionStoreService


class TestInMemory:
    def test_record_and_counts(self):
        log = WorkloadLog()
        log.record("v0")
        log.record("v1", count=3)
        log.record("v0")
        assert log.counts() == {"v0": 2, "v1": 3}
        assert log.total_accesses == 5
        assert len(log) == 2

    def test_record_many_batches(self):
        log = WorkloadLog()
        log.record_many(["v0", "v1", "v0", "v2"])
        assert log.counts() == {"v0": 2, "v1": 1, "v2": 1}

    def test_rejects_non_positive_counts(self):
        log = WorkloadLog()
        with pytest.raises(ValueError):
            log.record("v0", count=0)

    def test_frequencies_cover_requested_versions(self):
        log = WorkloadLog()
        log.record("v0", count=4)
        log.record("ghost", count=9)
        freqs = log.frequencies(["v0", "v1"])
        # Logged-but-deleted versions are dropped; never-accessed ones get 0.
        assert freqs == {"v0": 4.0, "v1": 0.0}

    def test_frequencies_empty_when_nothing_relevant(self):
        log = WorkloadLog()
        assert log.frequencies(["v0", "v1"]) == {}
        log.record("ghost")
        assert log.frequencies(["v0"]) == {}

    def test_frequencies_smoothing(self):
        log = WorkloadLog()
        log.record("v0", count=4)
        assert log.frequencies(["v0", "v1"], smoothing=0.5) == {"v0": 4.5, "v1": 0.5}

    def test_clear(self):
        log = WorkloadLog()
        log.record("v0")
        log.clear()
        assert log.counts() == {}
        assert log.total_accesses == 0


class TestPersistence:
    def test_persist_reload_round_trip(self, tmp_path):
        """Frequencies survive a service restart — the tentpole property."""
        path = str(tmp_path / "workload.log")
        log = WorkloadLog(path)
        log.record("v0", count=2)
        log.record("v1")
        log.record("v0")

        reloaded = WorkloadLog(path)
        assert reloaded.counts() == {"v0": 3, "v1": 1}
        assert reloaded.total_accesses == 4
        # Appending keeps working after a reload.
        reloaded.record("v2")
        assert WorkloadLog(path).counts() == {"v0": 3, "v1": 1, "v2": 1}

    def test_missing_file_starts_empty(self, tmp_path):
        log = WorkloadLog(str(tmp_path / "nope.log"))
        assert log.counts() == {}

    def test_torn_tail_tolerated(self, tmp_path):
        """A crash mid-append must not brick the log on the next start."""
        path = str(tmp_path / "workload.log")
        WorkloadLog(path).record("v0", count=5)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('["v1", 3')  # no closing bracket, no newline
        reloaded = WorkloadLog(path)
        assert reloaded.counts() == {"v0": 5}
        reloaded.record("v2")
        assert WorkloadLog(path).counts()["v2"] == 1

    def test_compaction_preserves_totals(self, tmp_path):
        path = str(tmp_path / "workload.log")
        log = WorkloadLog(path)
        for i in range(300):
            log.record(f"v{i % 3}")
        log.compact()
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 3
        assert WorkloadLog(path).counts() == {"v0": 100, "v1": 100, "v2": 100}

    def test_autocompaction_bounds_file_growth(self, tmp_path):
        path = str(tmp_path / "workload.log")
        log = WorkloadLog(path)
        for _ in range(2000):
            log.record("hot")
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) < 2000
        assert WorkloadLog(path).counts() == {"hot": 2000}

    def test_compaction_merges_other_process_appends(self, tmp_path):
        """A CLI one-shot appending next to a running server must survive
        the server's compaction (the file is the source of truth)."""
        path = str(tmp_path / "workload.log")
        server_log = WorkloadLog(path)
        server_log.record("served", count=10)
        # Another process appends to the same file behind this log's back.
        WorkloadLog(path).record("cli-only", count=7)
        server_log.compact()
        assert WorkloadLog(path).counts() == {"served": 10, "cli-only": 7}
        # The compacting process adopted the merged totals too.
        assert server_log.counts() == {"served": 10, "cli-only": 7}

    def test_clear_truncates_file(self, tmp_path):
        path = str(tmp_path / "workload.log")
        log = WorkloadLog(path)
        log.record("v0")
        log.clear()
        assert WorkloadLog(path).counts() == {}

    def test_concurrent_records_all_land(self, tmp_path):
        path = str(tmp_path / "workload.log")
        log = WorkloadLog(path)
        barrier = threading.Barrier(6)

        def hammer(tag: int) -> None:
            barrier.wait()
            for _ in range(50):
                log.record(f"v{tag}")

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert log.total_accesses == 300
        assert WorkloadLog(path).counts() == {f"v{i}": 50 for i in range(6)}

    def test_file_format_is_json_lines(self, tmp_path):
        path = str(tmp_path / "workload.log")
        WorkloadLog(path).record("v0", count=2)
        with open(path, "r", encoding="utf-8") as handle:
            assert json.loads(handle.readline()) == ["v0", 2]


class TestServiceIntegration:
    def test_service_records_and_survives_restart(self, tmp_path):
        """Serving stats feed the log; a new service over the same file sees
        the old traffic — the restart loop named in the ROADMAP."""
        path = str(tmp_path / "workload.log")

        def build() -> tuple[VersionStoreService, list[str]]:
            repo = Repository(cache_size=0)
            payload = [f"row,{i}" for i in range(20)]
            vids = [repo.commit(payload)]
            for step in range(1, 6):
                payload = payload + [f"a,{step}"]
                vids.append(repo.commit(payload))
            return (
                VersionStoreService(repo, workload_log=WorkloadLog(path)),
                vids,
            )

        service, vids = build()
        for vid in (vids[0], vids[0], vids[3]):
            service.checkout(vid)
        service.checkout_many([vids[1], vids[1], vids[4]])
        stats = service.stats()["workload"]
        assert stats["total_accesses"] == 6
        assert stats["distinct_versions"] == 4

        restarted, _ = build()
        assert restarted.workload_log.counts() == {
            vids[0]: 2,
            vids[3]: 1,
            vids[1]: 2,
            vids[4]: 1,
        }
        restarted.checkout(vids[0])
        assert restarted.workload_log.counts()[vids[0]] == 3

    @pytest.mark.parametrize("on_file", [False, True], ids=["memory", "file"])
    def test_stats_reads_the_workload_state_once(self, tmp_path, on_file):
        """One ``/stats`` is one ``workload_state()`` read of the store —
        the summary and both frequency vectors come from that one state."""

        class CountingStore:
            def __init__(self, inner) -> None:
                self.inner = inner
                self.reads = 0

            def workload_record(self, entries, half_life):
                self.inner.workload_record(entries, half_life)

            def workload_state(self, half_life=None):
                self.reads += 1
                return self.inner.workload_state(half_life)

            def workload_clear(self):
                self.inner.workload_clear()

        repo = Repository(cache_size=0)
        payload = [f"row,{i}" for i in range(20)]
        vids = [repo.commit(payload)]
        for step in range(1, 4):
            payload = payload + [f"a,{step}"]
            vids.append(repo.commit(payload))
        log = WorkloadLog(str(tmp_path / "workload.log") if on_file else None)
        store = log._store = CountingStore(log._store)
        service = VersionStoreService(repo, workload_log=log)
        for vid in (vids[0], vids[0], vids[2]):
            service.checkout(vid)
        store.reads = 0
        stats = service.stats()["workload"]
        assert store.reads == 1
        assert stats["total_accesses"] == 3
        assert stats["distinct_versions"] == 2
        assert stats["decayed_total"] == pytest.approx(
            sum(log.decayed_counts().values())
        )
        frequencies = log.frequencies(repo.graph.version_ids)
        assert stats["expected_recreation_cost"]["weight"] == pytest.approx(
            sum(frequencies.values())
        )

    def test_coalesced_requests_count_as_accesses(self):
        repo = Repository(cache_size=0)
        payload = [f"row,{i}" for i in range(50)]
        vids = [repo.commit(payload)]
        for step in range(1, 10):
            payload = payload + [f"a,{step}"]
            vids.append(repo.commit(payload))
        service = VersionStoreService(repo)
        barrier = threading.Barrier(6)

        def fire() -> None:
            barrier.wait()
            service.checkout(vids[-1])

        threads = [threading.Thread(target=fire) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every request — leader and coalesced waiters — is real demand.
        assert service.workload_log.counts()[vids[-1]] == 6


class TestDecayingView:
    def test_decayed_tracks_recency_not_totals(self):
        """Old-hot/new-hot flip: raw counts tie, the decayed view doesn't."""
        log = WorkloadLog(half_life=10.0)
        for _ in range(20):
            log.record("old")
        for _ in range(20):
            log.record("new")
        counts = log.counts()
        assert counts["old"] == counts["new"] == 20
        decayed = log.decayed_counts()
        # 20 accesses (= 2 half-lives) have passed since "old" was hot.
        assert decayed["new"] > 2 * decayed["old"]

    def test_decay_halves_per_half_life(self):
        log = WorkloadLog(half_life=4.0)
        log.record("v0")  # weight 1 at tick 0
        log.record_many(["filler"] * 4)  # clock advances one half-life
        assert log.decayed_counts()["v0"] == pytest.approx(0.5)
        assert log.counts()["v0"] == 1

    def test_decayed_frequencies_vector_shape_matches_raw(self):
        log = WorkloadLog(half_life=8.0)
        log.record("v0", count=4)
        vector = log.decayed_frequencies(["v0", "v1"])
        assert set(vector) == {"v0", "v1"}
        assert vector["v1"] == 0.0
        assert vector["v0"] > 0.0
        assert log.decayed_frequencies(["never"]) == {}

    def test_rejects_non_positive_half_life(self):
        with pytest.raises(ValueError):
            WorkloadLog(half_life=0.0)
        log = WorkloadLog()
        with pytest.raises(ValueError):
            log.decayed_frequencies(["v0"], half_life=-1.0)

    def test_in_memory_log_cannot_recompute_other_half_life(self):
        log = WorkloadLog(half_life=8.0)
        log.record("v0")
        with pytest.raises(ValueError):
            log.decayed_frequencies(["v0"], half_life=2.0)

    def test_decayed_view_survives_restart(self, tmp_path):
        path = str(tmp_path / "workload.log")
        log = WorkloadLog(path, half_life=10.0)
        for _ in range(20):
            log.record("old")
        for _ in range(20):
            log.record("new")
        expected = log.decayed_counts()
        reloaded = WorkloadLog(path, half_life=10.0)
        assert reloaded.decayed_counts()["new"] == pytest.approx(expected["new"])
        assert reloaded.decayed_counts()["old"] == pytest.approx(expected["old"])

    def test_file_backed_log_recomputes_any_half_life(self, tmp_path):
        """`--half-life N` replays the on-disk event order with N."""
        path = str(tmp_path / "workload.log")
        log = WorkloadLog(path, half_life=100.0)
        for _ in range(10):
            log.record("old")
        for _ in range(10):
            log.record("new")
        sharp = log.decayed_frequencies(["old", "new"], half_life=5.0)
        blunt = log.decayed_frequencies(["old", "new"], half_life=100.0)
        # A sharper half-life discounts the old version far more.
        assert sharp["new"] / max(sharp["old"], 1e-9) > blunt["new"] / blunt["old"]

    def test_compaction_preserves_decayed_weights(self, tmp_path):
        path = str(tmp_path / "workload.log")
        log = WorkloadLog(path, half_life=10.0)
        for _ in range(30):
            log.record("old")
        for _ in range(30):
            log.record("new")
        before = log.decayed_counts()
        log.compact()
        after = WorkloadLog(path, half_life=10.0).decayed_counts()
        assert after["new"] == pytest.approx(before["new"], rel=1e-3)
        assert after["old"] == pytest.approx(before["old"], rel=1e-3)

    def test_compaction_keeps_full_weight_precision(self, tmp_path):
        path = str(tmp_path / "workload.log")
        log = WorkloadLog(path, half_life=7.0)
        for _ in range(123):
            log.record("hot")
        log.record("cold")
        before = log.decayed_counts()
        log.compact()
        after = WorkloadLog(path, half_life=7.0).decayed_counts()
        # Bit-exact, not approximately equal: compaction must not round
        # the persisted weights (repeated compactions would drift).
        assert after == before

    def test_compaction_fsyncs_before_rename(self, tmp_path, monkeypatch):
        import os as os_module

        synced = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            os_module, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        log = WorkloadLog(str(tmp_path / "workload.log"))
        log.record("v0", count=5)
        synced.clear()
        log.compact()
        assert synced, "compaction must fsync the rewritten log before rename"

    def test_snapshot_reports_half_life(self):
        log = WorkloadLog(half_life=42.0)
        log.record("v0", count=3)
        snapshot, _raw, _decayed = log.stats_views(None)
        assert snapshot["half_life"] == 42.0
        assert snapshot["decayed_total"] == pytest.approx(3.0)


class TestHalfLifeRepack:
    def _build_service(self, tmp_path, num_versions=10):
        path = str(tmp_path / "workload.log")
        repo = Repository(cache_size=0)
        payload = [f"row,{i}" for i in range(25)]
        vids = [repo.commit(payload)]
        for step in range(1, num_versions):
            payload = payload + [f"a,{step}"]
            vids.append(repo.commit(payload))
        service = VersionStoreService(
            repo, workload_log=WorkloadLog(path, half_life=16.0)
        )
        return service, vids

    def test_service_repack_accepts_half_life(self, tmp_path):
        service, vids = self._build_service(tmp_path)
        for vid in vids:
            service.checkout(vid)
        report = service.repack(half_life=16.0, threshold_factor=1.5)
        assert report["half_life"] == 16.0
        assert report["workload_aware"] is True
        assert report["epoch"] == 1

    def test_stats_expose_both_workload_views(self, tmp_path):
        service, vids = self._build_service(tmp_path)
        for vid in vids:
            service.checkout(vid)
        workload = service.stats()["workload"]
        assert workload["expected_recreation_cost"]["per_request"] > 0
        assert workload["decayed"]["half_life"] == 16.0
        assert workload["decayed"]["expected_recreation_cost"]["per_request"] > 0
