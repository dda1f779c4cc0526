"""A persistent log of per-version access frequencies.

The paper's workload-aware problems (Figure 16) optimize the storage plan
against *observed* access frequencies, but a serving process that forgets
its request counters on restart can never feed them real traffic.
:class:`WorkloadLog` closes that gap: every served checkout is recorded in
a store that outlives the process — an append-only file inside the
repository, or the ``sqlite://`` metadata catalog — so the observed
workload survives restarts and can be handed to the optimizers
(:meth:`~WorkloadLog.frequencies` produces exactly the
``access_frequencies`` mapping a
:class:`~repro.core.instance.ProblemInstance` consumes).

Next to the raw all-time counts the log maintains a **decaying view**: an
exponentially-weighted count per version with a configurable *half-life*
measured in accesses (after ``half_life`` further requests, an old access
counts half).  Raw counts answer "what was ever popular"; decayed weights
answer "what is popular *now*" — the view a repacker should optimize for
when the workload drifts (:meth:`~WorkloadLog.decayed_frequencies`).  The
clock is the total access count, not wall time, so the view is
deterministic and testable.

Design notes:

* One :class:`WorkloadLog` reads every store — process memory, a file, or
  :class:`~repro.storage.catalog.MetadataCatalog` — through the same three
  methods (see :class:`WorkloadLog`).
* The on-disk format is one JSON array ``[version_id, count]`` per line
  (compacted lines carry a third element, the decayed weight at compaction
  time, so the decaying view survives restarts too).  Appends are tiny and
  self-delimiting, so a crash mid-write loses at most the final line — a
  torn tail is dropped instead of refusing to start.
* The file is compacted automatically once it holds many more lines than
  distinct versions (every version's total collapses to one line), keeping
  replay-on-start O(distinct versions) for long-lived servers.  Compaction
  collapses the event *ordering*, so the reloaded decayed view treats the
  compacted history as one point mass — an approximation that only affects
  history already at least one compaction old.  The seeded weights carry
  the half-life they were maintained under: replaying a compacted file
  with a *different* half-life (``decayed_frequencies(half_life=N)``,
  ``repro repack --half-life N``) rescales only post-compaction events
  exactly; the pre-compaction mass keeps its original scale.
* Every store is thread- *and* process-safe: request threads record
  directly, and a CLI ``repro checkout`` may record into the same file
  (serialized by ``fcntl.flock`` on a sidecar ``workload.log.lock``) or
  catalog (SQLite's write lock) while ``repro serve`` runs.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import threading
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..core.version import VersionID

__all__ = ["WorkloadLog", "DEFAULT_HALF_LIFE", "frequency_drift"]

#: What ``workload_state`` returns: ``(counts, decayed, total)``.
_State = tuple[dict[VersionID, int], dict[VersionID, tuple[float, int]], int]

#: Compact once the file holds this many times more lines than distinct
#: versions (and at least ``_COMPACT_MIN_LINES`` lines overall).
_COMPACT_FACTOR = 8
_COMPACT_MIN_LINES = 256

#: Default half-life of the decaying view, in accesses.
DEFAULT_HALF_LIFE = 256.0


def _decay(weight: float, elapsed: float, half_life: float) -> float:
    """``weight`` after ``elapsed`` accesses under ``half_life`` decay.

    The single definition of the decay model — the live fold, snapshots
    and file replay must all age weights identically or the views drift.
    """
    return weight * 0.5 ** (elapsed / half_life)


def _decay_to_now(state: _State, half_life: float) -> dict[VersionID, float]:
    _, decayed, now = state
    return {vid: _decay(w, now - last, half_life) for vid, (w, last) in decayed.items()}


def frequency_drift(
    current: Mapping[VersionID, float], reference: Mapping[VersionID, float]
) -> float:
    """How far two access-frequency vectors have drifted apart, in [0, 1].

    Both vectors are normalized to probability distributions and compared
    by total variation distance (half the L1 distance): 0 means identical
    popularity *shape* regardless of volume, 1 means disjoint hot sets.
    This is the trend signal the adaptive repack controller re-arms on —
    a stood-down "not worth repacking" verdict was judged against one
    workload shape and expires when the live decayed view no longer
    resembles it.  An empty vector against a non-empty one is maximal
    drift; two empty vectors are identical.
    """
    current_total = sum(weight for weight in current.values() if weight > 0)
    reference_total = sum(weight for weight in reference.values() if weight > 0)
    if current_total <= 0 and reference_total <= 0:
        return 0.0
    if current_total <= 0 or reference_total <= 0:
        return 1.0
    distance = 0.0
    for vid in set(current) | set(reference):
        share_now = max(current.get(vid, 0.0), 0.0) / current_total
        share_ref = max(reference.get(vid, 0.0), 0.0) / reference_total
        distance += abs(share_now - share_ref)
    return distance / 2.0


class _MemoryStore:
    """The workload store of an in-memory log: one fold of every event."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self._counts: dict[VersionID, int] = {}
        # Decaying view: version -> (weight, tick of last update); weights
        # decay lazily by 0.5 ** (elapsed_accesses / half_life).
        self._decayed: dict[VersionID, tuple[float, int]] = {}
        self._total = 0

    def _fold(
        self, vid: VersionID, count: int, half_life: float, weight: float | None = None
    ) -> None:
        """Advance counts, the decayed view and the access clock by one event.

        Events are stamped with the *post*-increment clock, so an access
        never decays against itself: a version touched by the most recent
        request carries its full weight.  ``weight`` (default ``count``)
        is what the event adds to the decayed view.
        """
        self._counts[vid] = self._counts.get(vid, 0) + count
        self._total += count
        tick = self._total
        old, last = self._decayed.get(vid, (0.0, tick))
        weight = count if weight is None else weight
        self._decayed[vid] = (_decay(old, tick - last, half_life) + weight, tick)

    def _fold_text(self, raw: bytes, half_life: float, at_start: bool) -> int:
        """Fold lines of the on-disk format; returns how many parsed.

        Compacted (3-element) lines form the leading block of a file and
        all carry weights snapshotted at one instant — the end of that
        block — so ``at_start`` collects them and stamps them together
        once the block ends: replay does not re-decay history the seed
        already discounted.
        """
        seeds: dict[VersionID, float] = {}
        lines = 0
        for line in raw.decode("utf-8", "replace").splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                vid, count = entry[0], int(entry[1])
                seed = float(entry[2]) if len(entry) > 2 else None
            except (ValueError, TypeError, IndexError, KeyError):
                # A torn tail from a crash mid-append: drop it rather
                # than refusing to start; at most one batch is lost.
                continue
            if count <= 0:
                continue
            lines += 1
            if seed is not None and at_start:
                self._counts[vid] = self._counts.get(vid, 0) + count
                self._total += count
                seeds[vid] = seeds.get(vid, 0.0) + seed
                continue
            at_start = False
            self._decayed.update((v, (w, self._total)) for v, w in seeds.items())
            seeds = {}
            self._fold(vid, count, half_life, seed)
        self._decayed.update((v, (w, self._total)) for v, w in seeds.items())
        return lines

    def _state(self) -> _State:
        return dict(self._counts), dict(self._decayed), self._total

    def workload_record(
        self, entries: Sequence[tuple[VersionID, int]], half_life: float
    ) -> None:
        with self._lock:
            for vid, count in entries:
                self._fold(vid, count, half_life)

    def workload_state(self, half_life: float | None = None) -> _State:
        if half_life is not None:
            raise ValueError(
                "an in-memory workload log cannot recompute a different "
                "half-life; construct it with the one you need"
            )
        with self._lock:
            return self._state()

    def workload_clear(self) -> None:
        with self._lock:
            self._reset()


class _FileStore(_MemoryStore):
    """The workload store of a file-backed log: ``PATH`` and its fold.

    Every operation holds ``fcntl.flock`` on the sidecar ``PATH.lock``.
    That file is never replaced, so a waiter can never end up holding the
    lock of a log that compaction has already swapped out.  The store
    keeps the log file it has folded open and remembers how far it has
    read it, so each operation folds only the unread tail — the lines
    other processes appended.  When ``PATH`` names another file than the
    open one, another process compacted or cleared the log, and the store
    re-folds ``PATH`` from the start.  Holding the old file open keeps its
    inode number from being reused, so that comparison is sound.
    """

    def __init__(self, path: str, half_life: float) -> None:
        self.path = path
        self.half_life = half_life
        self._lock_fd: int | None = None
        self._fd: int | None = None
        self._inode = 0
        super().__init__()

    def _reset(self) -> None:
        super()._reset()
        self._offset = 0  # bytes of the open file folded so far
        self._lines = 0  # parsed lines in the file (the compaction trigger)
        # The file ends in a torn line from a crash mid-append: the next
        # append must start on a fresh line instead of gluing onto it.
        self._torn = False

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        with self._lock:
            if self._lock_fd is None:
                lock_path = self.path + ".lock"
                self._lock_fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o666)
            fcntl.flock(self._lock_fd, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(self._lock_fd, fcntl.LOCK_UN)

    def _sync(self, create: bool) -> None:
        """Fold what other processes wrote since this store last looked."""
        try:
            current: os.stat_result | None = os.stat(self.path)
        except FileNotFoundError:
            current = None
        if self._fd is not None and (
            current is None
            or current.st_ino != self._inode
            or current.st_size < self._offset
        ):
            os.close(self._fd)
            self._fd = None
            self._reset()
        if self._fd is None:
            if current is None and not create:
                return
            self._fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            current = os.fstat(self._fd)
            self._inode = current.st_ino
        if current.st_size > self._offset:
            raw = os.pread(self._fd, current.st_size - self._offset, self._offset)
            self._lines += self._fold_text(raw, self.half_life, self._offset == 0)
            self._offset += len(raw)
            self._torn = not raw.endswith(b"\n")

    def workload_record(
        self, entries: Sequence[tuple[VersionID, int]], half_life: float
    ) -> None:
        lines = "".join(json.dumps([vid, count]) + "\n" for vid, count in entries)
        with self._locked():
            self._sync(create=True)
            data = (("\n" if self._torn else "") + lines).encode("utf-8")
            # os.write may take only part of the buffer.  If it raises
            # part-way, the offset stays put and the next sync folds the
            # lines that landed.
            pending = memoryview(data)
            while pending:
                pending = pending[os.write(self._fd, pending) :]
            self._offset += len(data)
            self._torn = False
            self._lines += len(entries)
            for vid, count in entries:
                self._fold(vid, count, half_life)
            if self._lines >= _COMPACT_MIN_LINES and self._lines > (
                _COMPACT_FACTOR * max(1, len(self._counts))
            ):
                self._compact()

    def workload_state(self, half_life: float | None = None) -> _State:
        with self._locked():
            self._sync(create=False)
            if half_life is None:
                return self._state()
            raw = b"" if self._fd is None else os.pread(self._fd, self._offset, 0)
        # Replayed outside the locks: request threads and other processes
        # append under them, and the whole-file replay may be long.
        replay = _MemoryStore()
        replay._fold_text(raw, half_life, at_start=True)
        return replay._state()

    def workload_clear(self) -> None:
        with self._locked():
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.path)
            self._reset()

    def compact(self) -> None:
        with self._locked():
            self._sync(create=False)
            if self._fd is not None:
                self._compact()

    def _compact(self) -> None:
        # The fold is current under the flock: it covers every process's
        # appends.  Write-then-rename, so a crash leaves the old file or the
        # complete new one.  Each line carries its decayed weight now, at
        # full float precision: rounding would compound across compactions.
        seeds = _decay_to_now(self._state(), self.half_life)
        data = "".join(
            json.dumps([vid, count, seeds[vid]]) + "\n"
            for vid, count in self._counts.items()
        ).encode("utf-8")
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        # fsync the tmp file *before* os.replace: the rename must never
        # become visible pointing at data the disk has not seen — that is
        # the one ordering a crash can turn into an empty (truncated) log.
        os.replace(tmp_path, self.path)
        self._sync(create=False)  # adopt the new file as any process would

    def __del__(self) -> None:
        for fd in (self._fd, self._lock_fd):
            if fd is not None:
                os.close(fd)


class WorkloadLog:
    """Restart-surviving record of per-version access counts.

    ``store`` is ``None`` (process memory), a path (an append-only file) or
    a :class:`~repro.storage.catalog.MetadataCatalog`; the last two are
    shared by every process that opens them.  A store has three methods:
    ``workload_record(entries, half_life)`` persists one batch of
    ``(version_id, count)``; ``workload_state(half_life=None)`` returns
    ``(counts, decayed {vid: (weight, last_tick)}, total)`` merged over
    every process, replaying the event order under a ``half_life`` other
    than the log's own (only a file keeps that order; the other stores
    raise ``ValueError``); ``workload_clear()`` forgets every record.
    ``half_life`` configures the decaying view (in accesses).
    """

    def __init__(
        self, store: Any = None, *, half_life: float = DEFAULT_HALF_LIFE
    ) -> None:
        if half_life <= 0:
            raise ValueError("half_life must be positive (accesses)")
        self.half_life = float(half_life)
        # ``path`` names the store in ``stats``.
        if isinstance(store, str):
            self.path, self._store = store, _FileStore(store, self.half_life)
        elif store is None:
            self.path, self._store = None, _MemoryStore()
        else:
            self.path, self._store = f"sqlite://{store.path}", store

    def record(self, version_id: VersionID, count: int = 1) -> None:
        """Record ``count`` accesses of ``version_id``."""
        if count <= 0:
            raise ValueError("access count must be positive")
        self._store.workload_record([(version_id, count)], self.half_life)

    def record_many(self, version_ids: Iterable[VersionID]) -> None:
        """Record one access per id (one store write for the whole batch)."""
        entries: dict[VersionID, int] = {}
        for vid in version_ids:
            entries[vid] = entries.get(vid, 0) + 1
        if entries:
            self._store.workload_record(list(entries.items()), self.half_life)

    def counts(self) -> dict[VersionID, int]:
        """Snapshot of the per-version access counts."""
        return self._store.workload_state()[0]

    def decayed_counts(self) -> dict[VersionID, float]:
        """Snapshot of the decaying view, decayed to the current clock."""
        return _decay_to_now(self._store.workload_state(), self.half_life)

    @property
    def total_accesses(self) -> int:
        """Total number of recorded accesses."""
        return self._store.workload_state()[2]

    def __len__(self) -> int:
        """Number of distinct versions ever accessed."""
        return len(self.counts())

    def frequencies(
        self,
        version_ids: Sequence[VersionID] | None = None,
        *,
        smoothing: float = 0.0,
    ) -> dict[VersionID, float]:
        """The logged workload as an access-frequency vector (raw counts).

        With ``version_ids`` the vector covers exactly those versions:
        logged counts for other (e.g. deleted) versions are dropped and
        never-accessed versions receive ``smoothing`` (default 0, i.e. the
        optimizer treats them as free to park on long chains).  Returns an
        empty mapping when nothing relevant was ever logged — callers
        should fall back to a uniform workload in that case.
        """
        weights = {vid: float(c) for vid, c in self.counts().items()}
        return self._vector(weights, version_ids, smoothing)

    def decayed_frequencies(
        self,
        version_ids: Sequence[VersionID] | None = None,
        *,
        half_life: float | None = None,
        smoothing: float = 0.0,
    ) -> dict[VersionID, float]:
        """The logged workload as a *decaying* frequency vector.

        Recent accesses dominate: after ``half_life`` further requests an
        access contributes half its original weight, so a repacker planning
        against this vector tracks the drifting workload instead of
        all-time popularity.  ``half_life`` defaults to the log's
        configured one; a *different* half-life is recomputed by replaying
        the on-disk log (file-backed logs only — memory and the catalog
        keep no event order to replay).  Compacted history replays
        approximately: its seeded weights keep the scale of the half-life
        they were maintained under (see the module notes), while every
        post-compaction event is rescaled exactly.
        """
        if half_life is not None and half_life <= 0:
            raise ValueError("half_life must be positive (accesses)")
        if half_life is None or half_life == self.half_life:
            weights = self.decayed_counts()
        else:
            weights = _decay_to_now(self._store.workload_state(half_life), half_life)
        return self._vector(weights, version_ids, smoothing)

    @staticmethod
    def _vector(
        weights: dict[VersionID, float],
        version_ids: Sequence[VersionID] | None,
        smoothing: float,
    ) -> dict[VersionID, float]:
        if version_ids is None:
            return weights
        vector = {vid: weights.get(vid, 0.0) + smoothing for vid in version_ids}
        if not any(vector.values()):
            return {}
        return vector

    def stats_views(
        self, version_ids: Sequence[VersionID] | None
    ) -> tuple[dict[str, object], dict[VersionID, float], dict[VersionID, float]]:
        """What the service's ``stats`` endpoint reports, from one read.

        Returns the JSON-ready summary, then :meth:`frequencies` and
        :meth:`decayed_frequencies` over ``version_ids`` — all three from a
        single ``workload_state()`` of the store (one table read on the
        catalog, one lock/fold round on a file).
        """
        state = self._store.workload_state()
        decayed = _decay_to_now(state, self.half_life)
        summary: dict[str, object] = {
            "path": self.path,
            "total_accesses": state[2],
            "distinct_versions": len(state[0]),
            "half_life": self.half_life,
            "decayed_total": float(sum(decayed.values())),
        }
        raw = {vid: float(count) for vid, count in state[0].items()}
        return (
            summary,
            self._vector(raw, version_ids, 0.0),
            self._vector(decayed, version_ids, 0.0),
        )

    def clear(self) -> None:
        """Forget every recorded access (and remove a log file)."""
        self._store.workload_clear()

    def compact(self) -> None:
        """Rewrite a log file as one line per version (totals unchanged).

        Memory and the catalog hold one row per version already.
        """
        if isinstance(self._store, _FileStore):
            self._store.compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WorkloadLog path={self.path!r} half_life={self.half_life}>"
