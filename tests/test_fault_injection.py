"""Fault-injection battery: storage failures land exactly where designed.

Covers the recovery guarantees of the storage stack under injected
:class:`IOError`\\ s and simulated crashes:

* **torn writes are scrubbed** — a put that dies mid-write (leaving a
  partial value under the content-addressed key) never leaves that key
  behind, and never indexes it;
* **repack phase-1 abort** — a staging failure leaves the store exactly
  as it was: the old epoch keeps serving byte-identically, zero staged
  objects leak (torn ones included), commits resume, and a later healed
  repack succeeds;
* **commit abort** — a commit whose object write fails registers nothing:
  graph, branch head and id allocation are exactly as before, and the
  planner still works;
* **workload-log crash recovery** — a crash mid-append loses at most the
  torn final line; a crash mid-compaction loses *nothing* (the
  write-then-rename either completed or never happened), and the log
  keeps appending afterwards.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.problems import solve
from repro.server.service import VersionStoreService
from repro.storage.backends import MemoryBackend
from repro.storage.repository import Repository
from repro.storage.testing import FlakyBackend, InjectedFault, TornValue
from repro.storage.workload_log import WorkloadLog


def build_chain_repo(backend, num_versions: int = 10) -> tuple[Repository, list]:
    repo = Repository(cache_size=0, backend=backend)
    payload = [f"row,{i},{i * i}" for i in range(25)]
    vids = [repo.commit(payload, message="base")]
    for step in range(1, num_versions):
        payload = list(payload)
        payload[step * 3 % len(payload)] = f"edited,{step}"
        payload.append(f"appended,{step}")
        vids.append(repo.commit(payload, message=f"step {step}"))
    return repo, vids


# --------------------------------------------------------------------- #
# torn writes at the object-store layer
# --------------------------------------------------------------------- #
class TestTornWriteScrub:
    def test_failed_put_leaves_no_key_and_no_index_entry(self):
        flaky = FlakyBackend(MemoryBackend(), partial_write=True)
        repo, vids = build_chain_repo(flaky, num_versions=3)
        keys_before = set(flaky.child.keys())
        flaky.fail_puts_after = flaky.puts  # next put dies mid-write

        with pytest.raises(InjectedFault):
            repo.store.put_full(["entirely", "new", "content"])

        assert set(flaky.child.keys()) == keys_before, "torn key not scrubbed"
        assert not any(
            isinstance(flaky.child.get(key), TornValue) for key in flaky.child.keys()
        )

    def test_healed_put_succeeds_and_roundtrips(self):
        flaky = FlakyBackend(MemoryBackend(), partial_write=True)
        store_payload = ["after", "the", "fault"]
        repo, _ = build_chain_repo(flaky, num_versions=2)
        flaky.fail_puts_after = flaky.puts
        with pytest.raises(InjectedFault):
            repo.store.put_full(store_payload)
        flaky.heal()
        object_id = repo.store.put_full(store_payload)
        assert repo.store.get(object_id).payload == store_payload

    def test_injected_get_surfaces_and_heals(self):
        flaky = FlakyBackend(MemoryBackend())
        repo, vids = build_chain_repo(flaky, num_versions=4)
        expected = repo.checkout(vids[-1]).payload
        service = VersionStoreService(repo, cache_size=0)
        flaky.fail_gets_after = flaky.gets
        with pytest.raises(InjectedFault):
            service.checkout(vids[-1])
        flaky.heal()
        response = service.checkout(vids[-1])
        assert response.payload == expected
        service.close()


# --------------------------------------------------------------------- #
# repack phase-1 abort
# --------------------------------------------------------------------- #
class TestRepackAbort:
    def _serve_some(self, service, vids):
        for vid in (vids[-1], vids[-1], vids[-2], vids[0]):
            service.checkout(vid)

    def test_aborted_staging_leaks_nothing_and_keeps_serving(self):
        flaky = FlakyBackend(MemoryBackend(), partial_write=True)
        repo, vids = build_chain_repo(flaky)
        service = VersionStoreService(repo, cache_size=8)
        self._serve_some(service, vids)
        expected = {
            vid: repo.checkout(vid).payload for vid in vids
        }
        keys_before = set(flaky.child.keys())
        epoch_before = service.repacker.epoch

        # Let two staged objects land, then die mid-write on the third.
        flaky.fail_puts_after = flaky.puts + 2
        with pytest.raises(InjectedFault):
            service.repack(use_workload=False, threshold_factor=3.0)
        flaky.heal()

        assert set(flaky.child.keys()) == keys_before, (
            "staged objects leaked past the abort"
        )
        assert not any(
            isinstance(flaky.child.get(key), TornValue) for key in flaky.child.keys()
        ), "a torn partial write survived the abort"
        assert service.repacker.epoch == epoch_before
        for vid in vids:
            assert service.checkout(vid).payload == expected[vid], vid
        service.close()

    def test_store_still_writable_and_repackable_after_abort(self):
        flaky = FlakyBackend(MemoryBackend())
        repo, vids = build_chain_repo(flaky)
        service = VersionStoreService(repo, cache_size=8)
        self._serve_some(service, vids)
        flaky.fail_puts_after = flaky.puts  # first staged write dies
        with pytest.raises(InjectedFault):
            service.repack(use_workload=False, threshold_factor=3.0)
        flaky.heal()

        # The write gate must have been released by the abort.
        new_vid = service.commit(["fresh", "after", "abort"])
        assert service.checkout(new_vid).payload == ["fresh", "after", "abort"]

        expected = {
            vid: repo.checkout(vid).payload for vid in vids
        }
        report = service.repack(use_workload=False, threshold_factor=3.0)
        assert report["applied"] is True
        assert service.repacker.epoch == 1
        for vid in vids:
            assert service.checkout(vid).payload == expected[vid], vid
        service.close()

    def test_abort_mid_stream_never_disturbs_old_epoch_reads(self):
        """Checkouts interleaved around the abort stay byte-identical."""
        flaky = FlakyBackend(MemoryBackend())
        repo, vids = build_chain_repo(flaky)
        service = VersionStoreService(repo, cache_size=4)
        expected = {
            vid: repo.checkout(vid).payload for vid in vids
        }
        for round_number in range(3):
            flaky.fail_puts_after = flaky.puts + round_number
            with pytest.raises(InjectedFault):
                service.repack(use_workload=False, threshold_factor=3.0)
            flaky.heal()
            for vid in (vids[-1], vids[round_number], vids[0]):
                assert service.checkout(vid).payload == expected[vid], (
                    round_number,
                    vid,
                )
        service.close()


# --------------------------------------------------------------------- #
# a commit whose object write fails
# --------------------------------------------------------------------- #
class TestCommitAbort:
    def test_failed_commit_registers_no_phantom_version(self):
        flaky = FlakyBackend(MemoryBackend())
        repo, vids = build_chain_repo(flaky)
        head_before = repo.head()
        flaky.fail_puts_after = flaky.puts  # the commit's object write dies
        with pytest.raises(InjectedFault):
            repo.commit(["never", "stored"], message="doomed")
        flaky.heal()

        assert len(repo) == len(vids)
        assert repo.head() == head_before
        assert [version.version_id for version in repo.log()] == vids[::-1]
        # The id the failed commit would have taken goes to the next one.
        retry = repo.commit(["stored", "this", "time"], message="retry")
        assert retry == f"v{len(vids)}"
        assert repo.checkout(retry).payload == ["stored", "this", "time"]
        # Every version the graph names has an object: planning still works.
        report = repo.repack(solve(repo.problem_instance(), 1).plan)
        assert report["storage_after"] > 0
        for vid in vids + [retry]:
            repo.checkout(vid)


# --------------------------------------------------------------------- #
# workload-log crash recovery
# --------------------------------------------------------------------- #
class TestWorkloadLogCrashes:
    def _seed_log(self, path: str) -> dict:
        log = WorkloadLog(path)
        for vid, count in (("v0", 3), ("v1", 2), ("v2", 1)):
            log.record(vid, count)
        return log.counts()

    def test_crash_mid_append_loses_at_most_the_torn_line(self, tmp_path):
        path = str(tmp_path / "workload.log")
        counts = self._seed_log(path)
        # A crash mid-append leaves a prefix of the final line and no
        # trailing newline; simulate it byte-for-byte.
        complete = open(path, "rb").read()
        torn_line = json.dumps(["v9", 1]).encode()
        with open(path, "wb") as handle:
            handle.write(complete + torn_line[: len(torn_line) // 2])

        reloaded = WorkloadLog(path)
        assert reloaded.counts() == counts, "complete lines must all survive"
        # The next append must start on a fresh line, not glue onto the
        # fragment — and the result must parse cleanly forever after.
        reloaded.record("v3")
        final = WorkloadLog(path)
        assert final.counts() == {**counts, "v3": 1}

    def test_crash_mid_append_with_partial_batch_line(self, tmp_path):
        path = str(tmp_path / "workload.log")
        counts = self._seed_log(path)
        with open(path, "ab") as handle:
            handle.write(b'["v7", ')  # truncated JSON, no newline
        reloaded = WorkloadLog(path)
        assert reloaded.counts() == counts
        assert reloaded.total_accesses == sum(counts.values())

    def test_crash_mid_compaction_loses_nothing(self, tmp_path, monkeypatch):
        path = str(tmp_path / "workload.log")
        log = WorkloadLog(path)
        for step in range(40):
            log.record(f"v{step % 5}")
        counts = log.counts()
        decayed = log.decayed_counts()

        real_replace = os.replace

        def crash_replace(src, dst, *args, **kwargs):
            if str(dst).endswith("workload.log"):
                raise OSError("injected crash mid-compaction")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", crash_replace)
        with pytest.raises(OSError, match="mid-compaction"):
            log.compact()
        monkeypatch.undo()

        # Write-then-rename: the original file is untouched, the half
        # written .tmp is ignored by a fresh load.
        reloaded = WorkloadLog(path)
        assert reloaded.counts() == counts
        assert reloaded.decayed_counts() == pytest.approx(decayed)

        # A healed compaction completes and seeds the decayed view.
        reloaded.compact()
        compacted = WorkloadLog(path)
        assert compacted.counts() == counts
        assert compacted.decayed_counts() == pytest.approx(decayed, rel=1e-4)

    def test_append_keeps_working_after_failed_compaction(self, tmp_path, monkeypatch):
        path = str(tmp_path / "workload.log")
        log = WorkloadLog(path)
        for step in range(20):
            log.record(f"v{step % 4}")
        real_replace = os.replace

        def crash_replace(src, dst, *args, **kwargs):
            if str(dst).endswith("workload.log"):
                raise OSError("injected crash mid-compaction")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", crash_replace)
        with pytest.raises(OSError):
            log.compact()
        monkeypatch.undo()
        log.record("after-crash")
        reloaded = WorkloadLog(path)
        assert reloaded.counts()["after-crash"] == 1


# --------------------------------------------------------------------- #
# sanity: the wrapper itself
# --------------------------------------------------------------------- #
class TestFlakyBackend:
    def test_counts_and_heal(self):
        flaky = FlakyBackend(MemoryBackend(), fail_puts_after=1)
        flaky.put("a", 1)
        with pytest.raises(InjectedFault):
            flaky.put("b", 2)
        assert flaky.injected == 1
        flaky.heal()
        flaky.put("b", 2)
        assert flaky.get("b") == 2
        assert flaky.puts == 2

    def test_partial_write_leaves_torn_value_in_child(self):
        flaky = FlakyBackend(MemoryBackend(), fail_puts_after=0, partial_write=True)
        with pytest.raises(InjectedFault):
            flaky.put("k", "value")
        assert isinstance(flaky.child.get("k"), TornValue)

    def test_spec_and_len_delegate(self):
        flaky = FlakyBackend(MemoryBackend())
        flaky.put("a", 1)
        assert len(flaky) == 1
        assert "a" in flaky
        assert flaky.spec().startswith("flaky+memory://")

    def test_get_many_counts_as_one_get(self):
        flaky = FlakyBackend(MemoryBackend())
        flaky.put("a", 1)
        flaky.put("b", 2)
        before = flaky.gets
        assert flaky.get_many(["a", "b", "missing"]) == {"a": 1, "b": 2}
        assert flaky.gets == before + 1
