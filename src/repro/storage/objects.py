"""Content-addressed object store with an incremental cost index.

The prototype version manager persists two kinds of objects:

* *full objects* — a complete version payload, and
* *delta objects* — a :class:`~repro.delta.base.Delta` plus the id of the
  base object it applies to.

Objects are addressed by a SHA-256 digest of their serialized form, so
identical payloads are automatically deduplicated (the same mechanism Git
and the archival systems surveyed in Section 6 rely on).  Where the bytes
actually live is delegated to a :class:`~repro.storage.backends.StorageBackend`
(in-memory by default; plain or compressed files on disk via ``file://`` /
``zip://`` specs), which keeps the repository and planner code independent
of the physical medium.

**The cost index.**  Because objects are content-addressed they are
immutable: an object's storage cost, Φ contribution and base link can never
change once stored.  The store therefore maintains an incremental metadata
index (:class:`ObjectMeta` per object, :class:`ChainStats` per chain tip)
filled at *write* time — every ``put_full``/``put_delta`` records its entry
— and backfilled from any read that fetches an object anyway.  Chain
pricing questions (``chain_ids``, ``chain_stats``, ``chain_root``) are
answered from this index with pure dictionary walks: no payload is
replayed, and for a store whose objects were all committed through it, no
backend read happens at all.  Walks stop early wherever they can: chain
totals and stripe keys are memoized per object and extended from the
nearest memoized ancestor, and ``cached_suffix`` walks a chain only down
to its deepest cached link, so a checkout's bookkeeping costs its replayed
suffix, not its depth.  This is what lets the repacker and the
serving stats price plans without scanning payloads under a lock, and what
gives the serving layer a stable per-chain key (the chain's root object)
for its striped locks.  All index state is guarded by one internal
re-entrant lock, so concurrent readers, a staging repack and a stats
snapshot can share a store safely.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..delta.base import Delta, payload_size
from ..exceptions import ObjectNotFoundError
from ..obs.metrics import NULL_INSTRUMENT, log_once
from .backends import FilesystemBackend, StorageBackend, open_backend

__all__ = ["StoredObject", "ObjectStore", "ObjectMeta", "ChainStats"]


@dataclass(frozen=True)
class StoredObject:
    """One object in the store.

    ``kind`` is ``"full"`` or ``"delta"``.  For delta objects ``base_id``
    names the object the delta applies to and ``payload`` holds the
    :class:`~repro.delta.base.Delta`; for full objects ``payload`` holds the
    version content itself.
    """

    object_id: str
    kind: str
    payload: Any
    base_id: str | None = None

    @property
    def is_delta(self) -> bool:
        """True for delta objects."""
        return self.kind == "delta"

    def storage_cost(self) -> float:
        """Bytes (abstract units) this object occupies."""
        if self.is_delta:
            delta: Delta = self.payload
            return delta.storage_cost
        return payload_size(self.payload)


@dataclass(frozen=True)
class ObjectMeta:
    """Immutable per-object index entry: costs and the base link.

    ``phi`` is the object's contribution to the Φ chain sum of any chain
    that traverses it (a delta's recreation cost; a full object's size).
    """

    base_id: str | None
    storage_cost: float
    phi: float

    @property
    def is_delta(self) -> bool:
        return self.base_id is not None


class _MeasuredCost:
    """Mutable EWMA cell of one object's measured rebuild seconds."""

    __slots__ = ("seconds", "count")

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.count = 1


#: EWMA smoothing factor for per-object measured rebuild seconds.
_MEASURED_ALPHA = 0.2


@dataclass(frozen=True)
class ChainStats:
    """Aggregate pricing of one delta chain, keyed by its tip object.

    ``phi_total`` is exactly the recreation cost a cold checkout of the
    tip pays (the paper's Φ chain sum); ``num_deltas`` the applications it
    performs; ``root_id`` the chain's full object — the serving layer's
    lock-striping key.
    """

    root_id: str
    length: int
    num_deltas: int
    phi_total: float


class ObjectStore:
    """A content-addressed store for full and delta objects.

    ``backend`` accepts a :class:`~repro.storage.backends.StorageBackend`
    instance or a spec string (``memory://``, ``file://PATH``,
    ``zip://PATH``); ``directory`` is legacy sugar for ``file://directory``.
    """

    def __init__(
        self,
        directory: str | None = None,
        *,
        backend: str | StorageBackend | None = None,
    ) -> None:
        if directory is not None and backend is not None:
            raise ValueError("pass either 'directory' or 'backend', not both")
        if directory is not None:
            backend = FilesystemBackend(directory)
        self.backend = open_backend(backend)
        # The incremental cost index: object id -> ObjectMeta, filled on
        # every write and on any read that touches the object anyway, plus
        # memoized per-tip ChainStats (chains are immutable under content
        # addressing, so a computed total never needs invalidation — only
        # removal).  The lock keeps the index coherent when an online
        # repack stages writes while request threads resolve chains and a
        # stats snapshot totals storage.
        self._meta: dict[str, ObjectMeta] = {}
        self._chain_stats: dict[str, ChainStats] = {}
        # Reverse base links: base object id -> ids of the indexed deltas
        # stored directly against it.  A node with two or more children is
        # a *fork point*; subtree_stripe_key() uses this to key striped
        # locks on the deepest fork's branches instead of the chain root,
        # so fork-fan graphs stop serializing on their common ancestor.
        self._children: dict[str, set[str]] = {}
        # Memoized subtree_stripe_key answers.  Dropped with the chain
        # totals, and whenever a node gains its second child (the keys of
        # its existing subtree move below the new fork point).
        self._stripes: dict[str, str] = {}
        # Index entries dropped so far: a caller memoizing anything derived
        # from the index (the cache's victim prices) compares it to know
        # its memo may describe links that are gone.
        self.index_drops = 0
        # The measured side of the cost index: per-object EWMA of actual
        # rebuild seconds (fetch + delta apply), recorded by replay paths,
        # plus running totals that fit a global seconds-per-Φ rate.  Like
        # the Φ index it is answered with pure dictionary walks.
        self._observed: dict[str, _MeasuredCost] = {}
        self._apply_seconds_total = 0.0
        self._apply_phi_total = 0.0
        self._apply_observations = 0
        self._index_lock = threading.RLock()
        # Metric instruments default to shared no-ops until bind_metrics()
        # swaps in live counters, so an unbound store pays one no-op call.
        self._op_get = NULL_INSTRUMENT
        self._op_put = NULL_INSTRUMENT
        self._op_get_many = NULL_INSTRUMENT
        self._op_delete = NULL_INSTRUMENT
        self._op_errors = NULL_INSTRUMENT

    def bind_metrics(self, registry) -> None:
        """Attach per-scheme backend op/error counters from *registry*."""
        scheme = getattr(self.backend, "scheme", "unknown")
        ops = registry.counter(
            "repro_backend_ops_total",
            "Backend operations by scheme and operation.",
            ("scheme", "op"),
        )
        self._op_get = ops.labels(scheme, "get")
        self._op_put = ops.labels(scheme, "put")
        self._op_get_many = ops.labels(scheme, "get_many")
        self._op_delete = ops.labels(scheme, "delete")
        self._op_errors = registry.counter(
            "repro_backend_errors_total",
            "Backend read/write errors (misses excluded) by scheme.",
            ("scheme",),
        ).labels(scheme)

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def put_full(self, payload: Any) -> str:
        """Store a full payload; return its object id."""
        object_id = self._digest(("full", payload))
        if object_id not in self.backend:
            self._store(StoredObject(object_id=object_id, kind="full", payload=payload))
        return object_id

    def put_delta(self, base_id: str, delta: Delta) -> str:
        """Store a delta applying to ``base_id``; return its object id."""
        if base_id not in self.backend:
            raise ObjectNotFoundError(base_id)
        object_id = self._digest(("delta", base_id, delta.operations))
        if object_id not in self.backend:
            self._store(
                StoredObject(
                    object_id=object_id, kind="delta", payload=delta, base_id=base_id
                )
            )
        return object_id

    def remove(self, object_id: str) -> None:
        """Remove an object (no error if absent).  Used by the re-packer."""
        self._op_delete.inc()
        self.backend.delete(object_id)
        with self._index_lock:
            self._observed.pop(object_id, None)
            self._children.pop(object_id, None)
            self._drop_meta(object_id)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def get(self, object_id: str) -> StoredObject:
        """Fetch an object by id (recording its index entry as a side effect)."""
        self._op_get.inc()
        try:
            obj = self.backend.get(object_id)
        except KeyError:
            raise ObjectNotFoundError(
                f"object {object_id!r} is not in the store (backend "
                f"{self.backend.spec()!r})"
            ) from None
        except Exception as exc:
            # A miss is a KeyError; anything else is a real backend failure
            # worth a counter and (once) a log line before it propagates.
            self._op_errors.inc()
            log_once(
                "objects:get:%s" % self.backend.spec(),
                "backend read failed on %s: %s: %s",
                self.backend.spec(),
                type(exc).__name__,
                exc,
            )
            raise
        self._note(obj)
        return obj

    def __contains__(self, object_id: str) -> bool:
        return object_id in self.backend

    def __len__(self) -> int:
        return len(self.backend)

    def __iter__(self) -> Iterator[StoredObject]:
        return (self.backend.get(key) for key in list(self.backend.keys()))

    def object_ids(self) -> list[str]:
        """Ids of every object currently stored."""
        return list(self.backend.keys())

    def total_storage_cost(self) -> float:
        """Sum of the storage costs of every object currently stored."""
        # Reconcile against the backend's key set so writes/removals made
        # through another store sharing the same backend are picked up:
        # listing keys is cheap, and under content addressing a present key
        # can never change cost, so only added/removed ids need reads.
        keys = set(self.backend.keys())
        with self._index_lock:
            candidates = [oid for oid in self._meta if oid not in keys]
        # Re-probe each prune candidate before evicting it: an object
        # written after the keys() snapshot (a repack staging concurrently
        # with this total) is absent from the snapshot but very much alive,
        # and dropping its index entry would force the swap to re-read it
        # inside the exclusive barrier.
        for object_id in candidates:
            if object_id in self.backend:
                keys.add(object_id)
                continue
            with self._index_lock:
                self._drop_meta(object_id)
        with self._index_lock:
            missing = keys - self._meta.keys()
        for object_id in missing:
            try:
                self.get(object_id)
            except ObjectNotFoundError:
                keys.discard(object_id)  # deleted by a peer mid-scan
        with self._index_lock:
            return float(
                sum(
                    self._meta[oid].storage_cost
                    for oid in keys
                    if oid in self._meta
                )
            )

    def get_many(self, object_ids: list[str]) -> dict[str, StoredObject]:
        """Fetch several objects at once; absent ids are simply omitted."""
        self._op_get_many.inc()
        found = self.backend.get_many(object_ids)
        for obj in found.values():
            self._note(obj)
        return found

    def delta_chain(self, object_id: str) -> list[StoredObject]:
        """The chain of objects needed to materialize ``object_id``.

        The returned list starts at a full object and ends at the requested
        object; a full object's chain is just itself.
        """
        chain: list[StoredObject] = []
        current = self.get(object_id)
        seen: set[str] = set()
        while True:
            chain.append(current)
            if not current.is_delta:
                break
            if current.object_id in seen:
                raise ObjectNotFoundError(
                    f"delta chain of {object_id!r} contains a cycle"
                )
            seen.add(current.object_id)
            current = self.get(current.base_id)  # type: ignore[arg-type]
        chain.reverse()
        return chain

    # ------------------------------------------------------------------ #
    # the incremental cost index
    # ------------------------------------------------------------------ #
    def cached_suffix(
        self,
        object_id: str,
        cached: Callable[[str], bool],
        *,
        backfill: bool = True,
    ) -> tuple[list[tuple[str, ObjectMeta]], str | None] | None:
        """Walk ``object_id``'s chain tip-first to its deepest cached link.

        ``cached`` is asked about ``object_id`` first and then about each
        ancestor in turn, once each, until it answers true: that id is the
        *anchor*.  Returns ``(suffix, anchor)`` — the tip-first ``(id,
        meta)`` links walked before the anchor, and the anchor (``None``
        when the walk went past the chain root).  The cost is the suffix,
        not the chain: the index lock is taken once per run of indexed
        links (runs start at four links and double, so at most twice the
        suffix plus three links are looked up), never across a ``cached``
        call.

        An unknown link is backfilled by reading the object (an absent one
        raises :class:`~repro.exceptions.ObjectNotFoundError`); with
        ``backfill=False`` the walk reads nothing and returns ``None``
        instead.  A chain longer than the index is a cycle, which raises
        (or returns ``None`` without backfill).
        """
        suffix: list[tuple[str, ObjectMeta]] = []
        run: list[tuple[str, ObjectMeta]] = []
        position = end = 0
        run_length = 4
        current = object_id
        while not cached(current):
            if position == end:
                if len(suffix) > len(self._meta):
                    if not backfill:
                        return None
                    raise ObjectNotFoundError(
                        f"delta chain of {object_id!r} contains a cycle"
                    )
                run = self._index_run(current, run_length)
                position = 0
                run_length *= 2
                if not run:
                    if not backfill:
                        return None
                    self.get(current)  # raises ObjectNotFoundError if absent
                    run = self._index_run(current, run_length)
                    if not run:  # pragma: no cover - removed by a peer
                        raise ObjectNotFoundError(current)
                end = len(run)
            link = run[position]
            position += 1
            suffix.append(link)
            current = link[1].base_id
            if current is None:
                return suffix, None
        return suffix, current

    def _index_run(self, object_id: str, limit: int) -> list[tuple[str, ObjectMeta]]:
        """Up to ``limit`` consecutive indexed links from ``object_id``
        toward the root, under one hold of the index lock."""
        run: list[tuple[str, ObjectMeta]] = []
        current: str | None = object_id
        with self._index_lock:
            for _ in range(limit):
                meta = self._meta.get(current)
                if meta is None:
                    break
                run.append((current, meta))
                current = meta.base_id
                if current is None:
                    break
        return run

    def chain_ids(self, object_id: str) -> tuple[str, ...]:
        """The root-first id chain of ``object_id``, from the index.

        Unknown links are backfilled by reading the object; links already
        indexed cost a dictionary lookup only.
        """
        suffix, _ = self.cached_suffix(object_id, _never)
        return tuple(oid for oid, _meta in reversed(suffix))

    def chain_stats(self, object_id: str) -> ChainStats:
        """Aggregate Φ/delta-count pricing of ``object_id``'s chain.

        Memoized for every link a computation walks, since each is the tip
        of a chain in its own right; content addressing keeps the memo
        valid until an object is removed.  A tip whose ancestors are
        memoized walks only down to the nearest of them, and extends its
        totals in the same root-first order a full walk sums them in.
        """
        while True:
            with self._index_lock:
                cached = self._chain_stats.get(object_id)
                drops = self.index_drops
            if cached is not None:
                return cached
            suffix, anchor = self.cached_suffix(
                object_id, self._chain_stats.__contains__
            )
            with self._index_lock:
                if self.index_drops != drops:
                    continue  # a walked link or the memo went mid-walk
                base = self._chain_stats[anchor] if anchor is not None else None
                if base is None:
                    root_id, length, num_deltas = suffix[-1][0], 0, 0
                    phi_total = 0.0
                else:
                    root_id, length = base.root_id, base.length
                    num_deltas, phi_total = base.num_deltas, base.phi_total
                stats = base
                for oid, meta in reversed(suffix):
                    length += 1
                    phi_total += meta.phi
                    if meta.is_delta:
                        num_deltas += 1
                    stats = ChainStats(
                        root_id=root_id,
                        length=length,
                        num_deltas=num_deltas,
                        phi_total=phi_total,
                    )
                    self._chain_stats.setdefault(oid, stats)
                assert stats is not None
                return stats

    def chain_root(self, object_id: str) -> str:
        """Root full object of ``object_id``'s chain (the lock-striping key)."""
        return self.chain_stats(object_id).root_id

    def meta(self, object_id: str) -> ObjectMeta | None:
        """The index entry of ``object_id``, or ``None`` when never seen.

        A pure dictionary lookup — never reads the backend.  ``None`` does
        *not* mean the object is absent from the store, only that no write
        or read has indexed it yet.
        """
        with self._index_lock:
            return self._meta.get(object_id)

    def marginal_chain_cost(
        self, object_id: str, cached: Callable[[str], bool]
    ) -> float | None:
        """Φ cost of rebuilding ``object_id`` given ``cached`` ancestors.

        Walks the base links of the index only (no backend read): the sum
        of Φ contributions from ``object_id`` down to — exclusive — its
        deepest proper ancestor for which ``cached`` returns true (or the
        chain root when none is), added link by link from the tip.  This
        is the *marginal* recreation cost of one cache entry: what a
        request would re-pay if exactly this payload were evicted while
        the rest of the cache stayed put — the metric the cost-aware cache
        ranks admissions and eviction victims by.  Returns ``None`` when
        some link is not indexed yet (callers fall back to plain LRU
        ordering).

        ``cached`` may take its own lock; the index lock is never held
        across the callback.
        """
        walk = self.cached_suffix(
            object_id,
            lambda oid: oid != object_id and cached(oid),
            backfill=False,
        )
        if walk is None:
            return None
        cost = 0.0
        for _oid, meta in walk[0]:
            cost += meta.phi
        return cost

    # -- the measured Δ/Φ model ---------------------------------------- #

    def observe_apply(self, object_id: str, seconds: float) -> None:
        """Record the measured wall seconds one replay hop actually took.

        Fed by the replay paths every time ``object_id`` is fetched and
        (for deltas) applied, so the index accumulates a *measured* cost
        model next to the modeled Φ one — maintained incrementally at
        materialize time, never by scanning payloads.
        """
        seconds = float(seconds)
        if seconds < 0.0:
            return
        with self._index_lock:
            cell = self._observed.get(object_id)
            if cell is None:
                self._observed[object_id] = _MeasuredCost(seconds)
            else:
                cell.seconds += _MEASURED_ALPHA * (seconds - cell.seconds)
                cell.count += 1
            self._apply_observations += 1
            self._apply_seconds_total += seconds
            meta = self._meta.get(object_id)
            if meta is not None:
                self._apply_phi_total += meta.phi

    def seconds_per_phi(self) -> float | None:
        """Fitted seconds-per-Φ-unit rate, or ``None`` before any sample.

        The conversion factor between the model's abstract Φ units and
        measured wall time: total observed rebuild seconds over the total
        Φ those hops were priced at.
        """
        with self._index_lock:
            if self._apply_phi_total <= 0.0:
                return None
            return self._apply_seconds_total / self._apply_phi_total

    def measured_cost_model(self) -> dict[str, float | int | None]:
        """Snapshot of the measured model for stats/decision records."""
        with self._index_lock:
            rate = (
                self._apply_seconds_total / self._apply_phi_total
                if self._apply_phi_total > 0.0
                else None
            )
            return {
                "observed_objects": len(self._observed),
                "observations": self._apply_observations,
                "seconds_total": self._apply_seconds_total,
                "seconds_per_phi": rate,
            }

    def subtree_stripe_key(self, object_id: str) -> str | None:
        """Deepest-shared-ancestor stripe key for ``object_id``, or ``None``.

        The serving layer's striped locks need a key that groups requests
        which actually contend (they replay overlapping chain suffixes)
        while separating requests that do not.  Keying on the chain *root*
        serializes every tip of a fork-heavy graph on its common ancestor;
        this key is instead the chain node just **below the deepest fork
        point** (the deepest ancestor with two or more indexed children) —
        i.e. the root of the tip's own subtree.  Linear chains degenerate
        to their root.  Defined link by link — a node is its own key when
        its base is a fork point and shares its base's key otherwise; a
        root is its own key — and memoized per node, so a tip walks only
        down to the nearest memoized ancestor.  Pure dictionary walks, no
        backend read; returns ``None`` when some link is not indexed yet
        (callers fall back to the object id itself).
        """
        with self._index_lock:
            key = self._stripes.get(object_id)
            if key is not None:
                return key
            unkeyed: list[tuple[str, ObjectMeta]] = []
            current = object_id
            while key is None:
                meta = self._meta.get(current)
                if meta is None or len(unkeyed) > len(self._meta):
                    return None
                unkeyed.append((current, meta))
                if meta.base_id is None:
                    key = current
                else:
                    current = meta.base_id
                    key = self._stripes.get(current)
            for oid, meta in reversed(unkeyed):
                if meta.base_id is not None and len(
                    self._children.get(meta.base_id, ())
                ) >= 2:
                    key = oid
                self._stripes[oid] = key
            return key

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _digest(value: Any) -> str:
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        return hashlib.sha256(data).hexdigest()

    def _store(self, obj: StoredObject) -> None:
        self._op_put.inc()
        try:
            self.backend.put(obj.object_id, obj)
        except BaseException:
            # A put that died mid-write may have left a torn value under
            # the key (backends without write-then-rename semantics).  A
            # content-addressed key must either hold the complete object or
            # nothing: scrub it so a failed write can never be served later
            # as a corrupt payload, and never index what was not stored.
            self._op_errors.inc()
            try:
                self.backend.delete(obj.object_id)
            except Exception as scrub_exc:
                # The original failure is the one worth raising, but a
                # failed scrub means a possibly-torn key survived — that
                # must not stay invisible.
                self._op_errors.inc()
                log_once(
                    "objects:scrub:%s" % self.backend.spec(),
                    "scrubbing a failed put of %s on %s also failed (%s: %s); "
                    "the key may hold a torn value",
                    obj.object_id,
                    self.backend.spec(),
                    type(scrub_exc).__name__,
                    scrub_exc,
                )
            raise
        self._note(obj)

    def _note(self, obj: StoredObject) -> None:
        """Record ``obj``'s immutable index entry (idempotent)."""
        with self._index_lock:
            if obj.object_id in self._meta:
                return
        if obj.is_delta:
            delta: Delta = obj.payload
            meta = ObjectMeta(
                base_id=obj.base_id,
                storage_cost=delta.storage_cost,
                phi=delta.recreation_cost,
            )
        else:
            cost = payload_size(obj.payload)
            meta = ObjectMeta(base_id=None, storage_cost=cost, phi=cost)
        with self._index_lock:
            stored = self._meta.setdefault(obj.object_id, meta)
            if stored is meta and meta.base_id is not None:
                siblings = self._children.setdefault(meta.base_id, set())
                siblings.add(obj.object_id)
                if len(siblings) == 2:
                    self._stripes.clear()  # a new fork point

    def _drop_meta(self, object_id: str) -> ObjectMeta | None:
        """Forget ``object_id``'s index entry (index lock held).

        The object also leaves its base's children, so a fork point whose
        branch is gone stops counting it.  Chain totals and stripe keys
        memoized for *descendant* tips route through the dropped object;
        there is no reverse index to find them, so both memos go whole —
        per-object metadata stays, and live tips rebuild them with
        dictionary walks.
        """
        meta = self._meta.pop(object_id, None)
        if meta is not None:
            self._chain_stats.clear()
            self._stripes.clear()
            self.index_drops += 1
            if meta.base_id is not None:
                siblings = self._children.get(meta.base_id)
                if siblings is not None:
                    siblings.discard(object_id)
                    if not siblings:
                        del self._children[meta.base_id]
        return meta


def _never(_object_id: str) -> bool:
    return False
