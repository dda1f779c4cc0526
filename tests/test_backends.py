"""Tests for the pluggable storage backends and their URI specs."""

from __future__ import annotations

import os

import pytest

from repro.delta.line_diff import LineDiffEncoder
from repro.exceptions import ObjectNotFoundError
from repro.storage.backends import (
    BackendSpecError,
    CompressedFilesystemBackend,
    FilesystemBackend,
    MemoryBackend,
    StorageBackend,
    open_backend,
)
from repro.storage.objects import ObjectStore


SCHEMES = ["memory", "file", "zip", "sqlite"]


@pytest.fixture(params=SCHEMES)
def backend(request, tmp_path) -> StorageBackend:
    if request.param == "memory":
        return MemoryBackend()
    if request.param == "file":
        return FilesystemBackend(str(tmp_path / "fs"))
    if request.param == "zip":
        return CompressedFilesystemBackend(str(tmp_path / "zipfs"))
    return open_backend(f"sqlite://{tmp_path}/store.db")


class TestBackendContract:
    def test_put_get_roundtrip(self, backend):
        backend.put("abc123", {"rows": ["a", "b"]})
        assert backend.get("abc123") == {"rows": ["a", "b"]}
        assert "abc123" in backend
        assert len(backend) == 1
        assert list(backend.keys()) == ["abc123"]

    def test_overwrite_is_silent(self, backend):
        backend.put("key", 1)
        backend.put("key", 2)
        assert backend.get("key") == 2
        assert len(backend) == 1

    def test_get_missing_raises_keyerror(self, backend):
        with pytest.raises(KeyError):
            backend.get("missing")
        assert "missing" not in backend

    def test_delete_and_delete_missing(self, backend):
        backend.put("key", "value")
        backend.delete("key")
        assert "key" not in backend
        backend.delete("key")  # absent: no error
        assert len(backend) == 0

    def test_spec_reopens_equivalent_backend(self, backend):
        backend.put("persisted", [1, 2, 3])
        reopened = open_backend(backend.spec())
        if isinstance(backend, MemoryBackend):
            # memory:// specs always open a fresh, empty store.
            assert len(reopened) == 0
        else:
            assert reopened.get("persisted") == [1, 2, 3]


class TestFilesystemBackends:
    def test_files_land_in_directory(self, tmp_path):
        backend = FilesystemBackend(str(tmp_path / "objs"))
        backend.put("deadbeef", ["payload"])
        assert os.path.exists(tmp_path / "objs" / "deadbeef.obj")

    def test_compressed_backend_is_smaller(self, tmp_path):
        plain = FilesystemBackend(str(tmp_path / "plain"))
        compressed = CompressedFilesystemBackend(str(tmp_path / "small"))
        payload = ["the same highly compressible line"] * 500
        plain.put("key", payload)
        compressed.put("key", payload)
        plain_size = os.path.getsize(tmp_path / "plain" / "key.obj")
        compressed_size = os.path.getsize(tmp_path / "small" / "key.objz")
        assert compressed.get("key") == payload
        assert compressed_size < plain_size / 2

    def test_durable_put_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        synced_fds: list[int] = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced_fds.append(fd), real_fsync(fd))[1]
        )
        durable = FilesystemBackend(str(tmp_path / "durable"), durable=True)
        durable.put("key", ["payload"])
        # One fsync for the temp file, one for the directory entry: the
        # rename is only crash-durable once both reached the platter.
        assert len(synced_fds) == 2
        assert durable.get("key") == ["payload"]

        synced_fds.clear()
        relaxed = FilesystemBackend(str(tmp_path / "relaxed"))
        relaxed.put("key", ["payload"])
        assert synced_fds == []  # default stays fast

    def test_traversal_keys_rejected(self, tmp_path):
        backend = FilesystemBackend(str(tmp_path / "objs"))
        for bad in ("", "../escape", ".hidden", f"a{os.sep}b"):
            with pytest.raises(KeyError):
                backend.get(bad)
            # `in` and delete follow the dict contract for malformed keys:
            # absent, not an exception.
            assert bad not in backend
            backend.delete(bad)


class TestOpenBackend:
    def test_none_and_memory_specs(self):
        assert isinstance(open_backend(None), MemoryBackend)
        assert isinstance(open_backend("memory://"), MemoryBackend)

    def test_file_and_zip_specs(self, tmp_path):
        file_backend = open_backend(f"file://{tmp_path}/a")
        zip_backend = open_backend(f"zip://{tmp_path}/b")
        assert isinstance(file_backend, FilesystemBackend)
        assert isinstance(zip_backend, CompressedFilesystemBackend)

    def test_bare_path_means_file(self, tmp_path):
        backend = open_backend(str(tmp_path / "bare"))
        assert isinstance(backend, FilesystemBackend)
        assert backend.directory == str(tmp_path / "bare")

    def test_existing_backend_passthrough(self):
        backend = MemoryBackend()
        assert open_backend(backend) is backend

    def test_unknown_scheme_rejected(self):
        with pytest.raises(BackendSpecError):
            open_backend("s3://bucket/prefix")

    @pytest.mark.parametrize("spec", ["http://h:1", "https://h:1"])
    def test_http_schemes_are_not_backends(self, spec):
        with pytest.raises(BackendSpecError) as error:
            open_backend(spec)
        known = str(error.value).partition("known: ")[2]
        assert known and "http" not in known

    @pytest.mark.parametrize(
        "spec",
        [
            # Specs that opened a store before shard:// was retired ...
            "shard://4/memory://",
            "shard://2/file://objs",
            "shard://3/zip://cold",
            # ... and ones that were malformed even then.
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
    def test_retired_shard_specs_are_unknown_schemes(self, spec):
        with pytest.raises(BackendSpecError, match="unknown storage backend scheme 'shard'"):
            open_backend(spec)

    def test_memory_with_path_rejected(self):
        with pytest.raises(BackendSpecError):
            open_backend("memory://with-a-path")

    def test_pathless_file_spec_rejected(self):
        with pytest.raises(BackendSpecError):
            open_backend("file://")


class TestObjectStoreOnBackends:
    def test_full_and_delta_roundtrip(self, backend):
        store = ObjectStore(backend=backend)
        encoder = LineDiffEncoder()
        base = ["a", "b", "c"]
        changed = ["a", "x", "c"]
        base_id = store.put_full(base)
        delta_id = store.put_delta(base_id, encoder.diff(base, changed))
        chain = store.delta_chain(delta_id)
        assert [obj.object_id for obj in chain] == [base_id, delta_id]
        assert encoder.apply(chain[0].payload, chain[1].payload) == changed
        assert store.total_storage_cost() > 0
        store.remove(delta_id)
        with pytest.raises(ObjectNotFoundError):
            store.get(delta_id)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_repository_cycle_on_every_scheme(self, scheme, tmp_path):
        """Commit, checkout and batch checkout on a store opened from a spec."""
        from repro.storage.repository import Repository

        paths = {"file": "objs", "zip": "objz", "sqlite": "store.db"}
        path = f"{tmp_path}/{paths[scheme]}" if scheme in paths else ""
        repo = Repository(backend=f"{scheme}://{path}")
        payload = [f"row,{i}" for i in range(30)]
        payloads = {repo.commit(payload): payload}
        for step in range(12):
            payload = payload + [f"step,{step}"]
            payloads[repo.commit(payload)] = payload
        for vid, expected in payloads.items():
            assert repo.checkout(vid).payload == expected
        batch = repo.checkout_many(list(payloads))
        for vid, expected in payloads.items():
            assert batch.items[vid].payload == expected

    def test_spec_string_accepted_directly(self, tmp_path):
        store = ObjectStore(backend=f"zip://{tmp_path}/objs")
        object_id = store.put_full(["hello"])
        assert store.get(object_id).payload == ["hello"]

    def test_total_storage_cost_tracks_writes_and_removals(self, backend):
        store = ObjectStore(backend=backend)
        first = store.put_full(["a"] * 10)
        baseline = store.total_storage_cost()  # warms the cost index
        second = store.put_full(["b"] * 20)
        grown = store.total_storage_cost()
        assert grown > baseline
        store.remove(second)
        assert store.total_storage_cost() == pytest.approx(baseline)
        store.remove(first)
        assert store.total_storage_cost() == 0.0

    def test_cost_index_reconciles_shared_backend_mutations(self, tmp_path):
        """Two stores may legally share one backend; totals must converge."""
        backend = FilesystemBackend(str(tmp_path / "shared"))
        writer = ObjectStore(backend=backend)
        reader = ObjectStore(backend=f"file://{tmp_path}/shared")
        first = writer.put_full(["a"] * 10)
        baseline = reader.total_storage_cost()  # warms reader's index
        writer.put_full(["b"] * 30)
        assert reader.total_storage_cost() > baseline
        writer.remove(first)
        assert reader.total_storage_cost() == writer.total_storage_cost()

    def test_legacy_directory_layout_still_loads(self, tmp_path):
        """A FilesystemBackend instance and file:// share the on-disk format."""
        directory = str(tmp_path / "objects")
        writer = ObjectStore(backend=FilesystemBackend(directory))
        object_id = writer.put_full(["persisted", "rows"])
        reader = ObjectStore(backend=f"file://{directory}")
        assert reader.get(object_id).payload == ["persisted", "rows"]
        assert len(reader) == 1
