"""Pluggable storage backends for the object store.

The object store used to be hard-wired to "a dict, optionally mirrored to a
directory of pickles".  Serving the paper's workloads at scale needs the
bytes to live in different places (RAM for tests and hot caches, plain files
for durability, compressed files for cold archives), so the *where* is now a
:class:`StorageBackend` — a minimal keyed blob interface the object store
delegates to.

Four implementations are selectable with a URI-style spec understood by
:func:`open_backend`:

* ``memory://``   — :class:`MemoryBackend`, objects held in a dict;
* ``file://PATH`` — :class:`FilesystemBackend`, one pickle file per object;
* ``zip://PATH``  — :class:`CompressedFilesystemBackend`, one
  zlib-compressed pickle per object;
* ``sqlite://PATH`` — objects *and* the transactional metadata catalog in
  one SQLite database (provided by :mod:`repro.storage.catalog`,
  imported on first use) — the backend that lets several processes share
  one store.

Backends deliberately know nothing about full objects, deltas or chains —
they store opaque values under string keys.  All versioning semantics stay
in :mod:`repro.storage.objects`.
"""

from __future__ import annotations

import abc
import os
import pickle
import threading
import zlib
from typing import Any, Iterator, Sequence

from ..exceptions import RepositoryError

__all__ = [
    "StorageBackend",
    "MemoryBackend",
    "FilesystemBackend",
    "CompressedFilesystemBackend",
    "BackendSpecError",
    "open_backend",
]


class BackendSpecError(RepositoryError, ValueError):
    """A backend spec string could not be understood."""


class StorageBackend(abc.ABC):
    """A keyed blob store: the minimal surface the object store needs.

    Keys are content digests (hex strings); values are arbitrary picklable
    objects.  ``get`` raises :class:`KeyError` for absent keys so the object
    store can translate it into its own
    :class:`~repro.exceptions.ObjectNotFoundError`.
    """

    #: URI scheme this backend answers to in :func:`open_backend`.
    scheme: str = ""

    @abc.abstractmethod
    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (overwriting silently)."""

    @abc.abstractmethod
    def get(self, key: str) -> Any:
        """Return the value stored under ``key``; raise ``KeyError`` if absent."""

    @abc.abstractmethod
    def delete(self, key: str) -> None:
        """Remove ``key`` (no error when absent)."""

    @abc.abstractmethod
    def keys(self) -> Iterator[str]:
        """Iterate over every stored key (order unspecified)."""

    def __contains__(self, key: str) -> bool:
        try:
            self.get(key)
        except KeyError:
            return False
        return True

    def get_many(self, keys: Sequence[str]) -> dict[str, Any]:
        """Fetch several keys at once; absent keys are omitted, not errors.

        The default loops over :meth:`get`; the ``sqlite://`` backend
        overrides it with one query.
        """
        found: dict[str, Any] = {}
        for key in keys:
            try:
                found[key] = self.get(key)
            except KeyError:
                continue
        return found

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def spec(self) -> str:
        """The URI spec that would reopen this backend."""
        return f"{self.scheme}://"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.spec()!r} objects={len(self)}>"


class MemoryBackend(StorageBackend):
    """Objects held in a plain dict — fastest, lost on process exit."""

    scheme = "memory"

    def __init__(self) -> None:
        self._values: dict[str, Any] = {}

    def put(self, key: str, value: Any) -> None:
        self._values[key] = value

    def get(self, key: str) -> Any:
        return self._values[key]

    def delete(self, key: str) -> None:
        self._values.pop(key, None)

    def keys(self) -> Iterator[str]:
        return iter(list(self._values))

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __len__(self) -> int:
        return len(self._values)


class FilesystemBackend(StorageBackend):
    """One pickle file per object under a directory.

    Uses the ``<key>.obj`` layout of the historical directory-backed
    ``ObjectStore``, so repositories written before the backend split keep
    loading unchanged.
    """

    scheme = "file"
    extension = ".obj"

    def __init__(self, directory: str, *, durable: bool = False) -> None:
        if not directory:
            raise BackendSpecError(f"{self.scheme}:// backend requires a path")
        self.directory = directory
        # durable=True fsyncs every put (file and directory).  Without it a
        # power loss after os.replace can still lose the object: the rename
        # is atomic in the namespace but neither the data nor the directory
        # entry is guaranteed on disk.  Off by default — tests and throwaway
        # stores should not pay two fsyncs per object.
        self.durable = bool(durable)
        os.makedirs(directory, exist_ok=True)

    # -- serialization hooks (overridden by the compressed variant) ------ #
    def _encode(self, value: Any) -> bytes:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    def _decode(self, data: bytes) -> Any:
        return pickle.loads(data)

    # -- StorageBackend ------------------------------------------------- #
    def put(self, key: str, value: Any) -> None:
        # Write-then-rename: a concurrent reader of the same key (e.g. a
        # checkout racing another process's commit on a shared directory)
        # sees either the old complete file or the new complete file,
        # never a truncated one.
        path = self._path(key)
        tmp_path = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
        with open(tmp_path, "wb") as handle:
            handle.write(self._encode(value))
            if self.durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        if self.durable:
            self._fsync_directory()

    def _fsync_directory(self) -> None:
        # The rename itself lives in the directory entry; without this
        # fsync the entry may never reach disk even though the data did.
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def get(self, key: str) -> Any:
        try:
            with open(self._path(key), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            raise KeyError(key) from None
        return self._decode(data)

    def delete(self, key: str) -> None:
        try:
            os.remove(self._path(key))
        except (FileNotFoundError, KeyError):
            pass

    def keys(self) -> Iterator[str]:
        for name in os.listdir(self.directory):
            if name.endswith(self.extension):
                yield name[: -len(self.extension)]

    def __contains__(self, key: str) -> bool:
        try:
            path = self._path(key)
        except KeyError:
            # A key this backend could never store simply isn't present —
            # matching MemoryBackend's `in` contract for malformed keys.
            return False
        return os.path.exists(path)

    def spec(self) -> str:
        return f"{self.scheme}://{self.directory}"

    def _path(self, key: str) -> str:
        # Keys are hex digests; refuse anything that could escape the
        # directory (a corrupted state file must not become a traversal).
        if not key or os.sep in key or key.startswith("."):
            raise KeyError(key)
        return os.path.join(self.directory, key + self.extension)


class CompressedFilesystemBackend(FilesystemBackend):
    """Like :class:`FilesystemBackend` but zlib-compresses every object.

    Trades CPU on reads/writes for disk — the right default for cold
    archives of text-like payloads, which compress by an order of magnitude.
    """

    scheme = "zip"
    extension = ".objz"
    level = 6  # zlib compression level

    def _encode(self, value: Any) -> bytes:
        return zlib.compress(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL), self.level)

    def _decode(self, data: bytes) -> Any:
        return pickle.loads(zlib.decompress(data))


_BACKENDS: dict[str, type[StorageBackend]] = {
    MemoryBackend.scheme: MemoryBackend,
    FilesystemBackend.scheme: FilesystemBackend,
    CompressedFilesystemBackend.scheme: CompressedFilesystemBackend,
}


def open_backend(spec: str | StorageBackend | None) -> StorageBackend:
    """Open a storage backend from a URI-style spec.

    * ``None`` — a fresh :class:`MemoryBackend`;
    * an existing :class:`StorageBackend` — returned unchanged;
    * ``"memory://"`` — a fresh :class:`MemoryBackend`;
    * ``"file://PATH"`` — a :class:`FilesystemBackend` rooted at ``PATH``;
    * ``"zip://PATH"`` — a :class:`CompressedFilesystemBackend` at ``PATH``;
    * ``"sqlite://PATH"`` — a ``SQLiteBackend`` whose database also carries
      the metadata catalog (see :mod:`repro.storage.catalog`);
    * a bare path — treated as ``file://PATH`` for convenience.
    """
    if spec is None:
        return MemoryBackend()
    if isinstance(spec, StorageBackend):
        return spec
    if not isinstance(spec, str):
        raise BackendSpecError(f"backend spec must be a string, got {type(spec).__name__}")
    if "://" not in spec:
        return FilesystemBackend(spec)
    scheme, _, path = spec.partition("://")
    if scheme == "sqlite":
        # The catalog module imports this one, so it is imported here, on
        # first use, rather than at the top of the module.
        from .catalog import SQLiteBackend

        return SQLiteBackend(path)
    try:
        backend_cls = _BACKENDS[scheme]
    except KeyError:
        known = ", ".join(sorted([*_BACKENDS, "sqlite"]))
        raise BackendSpecError(
            f"unknown storage backend scheme {scheme!r} (known: {known})"
        ) from None
    if backend_cls is MemoryBackend:
        if path:
            raise BackendSpecError("memory:// backend does not take a path")
        return MemoryBackend()
    return backend_cls(path)
