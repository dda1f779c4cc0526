"""Tests for the shard:// backend: routing, round-trips, spec parsing."""

from __future__ import annotations

import pytest

from repro.storage.backends import (
    BackendSpecError,
    MemoryBackend,
    ShardedBackend,
    open_backend,
)
from repro.storage.repository import Repository


def make_sharded(num_shards: int) -> ShardedBackend:
    return ShardedBackend([MemoryBackend() for _ in range(num_shards)])


class TestSharding:
    @pytest.mark.parametrize("num_shards", [1, 2, 8])
    def test_round_trip_across_shard_counts(self, num_shards):
        backend = make_sharded(num_shards)
        values = {f"key-{i:02d}": {"value": i, "tag": chr(65 + i)} for i in range(40)}
        for key, value in values.items():
            backend.put(key, value)
        for key, value in values.items():
            assert backend.get(key) == value
            assert key in backend
        assert sorted(backend.keys()) == sorted(values)
        assert len(backend) == len(values)
        for key in values:
            backend.delete(key)
        assert len(backend) == 0

    def test_routing_is_stable_and_spreads(self):
        backend = make_sharded(8)
        keys = [f"object-{i}" for i in range(200)]
        for key in keys:
            backend.put(key, key)
        # Same key always lands on the same shard...
        assert all(backend.shard_for(key) == backend.shard_for(key) for key in keys)
        # ...exactly one shard holds each key...
        for key in keys:
            holders = [shard for shard in backend.shards if key in shard]
            assert len(holders) == 1
        # ...and 200 hashed keys touch every one of 8 shards.
        assert all(len(shard) > 0 for shard in backend.shards)

    def test_routing_matches_fresh_instance(self):
        """The shard of a key is a pure function of the key, not the process."""
        first, second = make_sharded(8), make_sharded(8)
        for i in range(50):
            key = f"stable-{i}"
            assert first.shard_for(key) == second.shard_for(key)

    def test_missing_key_raises_keyerror(self):
        backend = make_sharded(3)
        with pytest.raises(KeyError):
            backend.get("absent")
        backend.delete("absent")  # no error, like every other backend

    def test_empty_shard_list_rejected(self):
        with pytest.raises(BackendSpecError):
            ShardedBackend([])


class TestShardSpec:
    def test_open_backend_memory_children(self):
        backend = open_backend("shard://4/memory://")
        assert isinstance(backend, ShardedBackend)
        assert len(backend.shards) == 4
        assert all(isinstance(shard, MemoryBackend) for shard in backend.shards)
        # memory:// children are independent stores, not four views of one.
        backend.shards[0].put("only-here", 1)
        assert all("only-here" not in shard for shard in backend.shards[1:])
        assert backend.spec() == "shard://4/memory://"

    def test_open_backend_file_children(self, tmp_path):
        spec = f"shard://2/file://{tmp_path}/objects"
        backend = open_backend(spec)
        backend.put("abc123", ["payload"])
        assert backend.get("abc123") == ["payload"]
        # Reopening the same spec sees the same objects (stable routing).
        assert open_backend(spec).get("abc123") == ["payload"]
        shard_dirs = sorted(p.name for p in (tmp_path / "objects").iterdir())
        assert shard_dirs == ["shard-00", "shard-01"]

    def test_open_backend_zip_children(self, tmp_path):
        backend = open_backend(f"shard://3/zip://{tmp_path}/cold")
        backend.put("deadbeef", list(range(100)))
        assert backend.get("deadbeef") == list(range(100))

    @pytest.mark.parametrize(
        "bad",
        [
            "shard://",
            "shard://4",
            "shard://0/memory://",
            "shard://-1/memory://",
            "shard://x/memory://",
            "shard://2/shard://2/memory://",
            "shard://2/http://127.0.0.1:8750",
            "shard://2/https://127.0.0.1:8750",
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(BackendSpecError):
            open_backend(bad)

    def test_cli_roundtrip_with_relative_shard_children(self, tmp_path, monkeypatch):
        """A hand-built repo on a cwd-relative shard spec saves reopenable."""
        from repro.cli import load_repository, save_repository

        monkeypatch.chdir(tmp_path)
        repo = Repository(backend="shard://2/file://objs")
        repo.commit(["x", "y"])
        statedir = tmp_path / "state"
        statedir.mkdir()
        save_repository(repo, str(statedir))
        reloaded = load_repository(str(statedir))
        assert reloaded.checkout("v0").payload == ["x", "y"]

    def test_hand_built_sharded_backend_refused_by_save(self, tmp_path):
        """An instance-built ShardedBackend has no reopenable spec; saving it
        must fail loudly instead of writing a state file nothing can open."""
        from repro.cli import save_repository
        from repro.exceptions import ReproError

        repo = Repository(backend=make_sharded(2))
        repo.commit(["x"])
        with pytest.raises(ReproError, match="cannot be reopened"):
            save_repository(repo, str(tmp_path))


class TestShardedRepository:
    def test_repository_on_sharded_backend(self):
        """A full commit/checkout/batch cycle against an 8-way sharded store."""
        repo = Repository(backend=make_sharded(8))
        payload = [f"row,{i}" for i in range(30)]
        vids = [repo.commit(payload)]
        for step in range(12):
            payload = payload + [f"step,{step}"]
            vids.append(repo.commit(payload))
        # Objects spread across more than one shard.
        backend = repo.store.backend
        populated = sum(1 for shard in backend.shards if len(shard) > 0)
        assert populated > 1
        for vid in vids:
            assert repo.checkout(vid).payload is not None
        batch = repo.checkout_many(vids)
        for vid in vids:
            assert batch.items[vid].payload == repo.checkout(vid).payload
