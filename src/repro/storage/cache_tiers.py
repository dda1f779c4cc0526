"""The warm payload cache: a bounded memory LRU, optionally over a disk tier.

:class:`LRUPayloadCache` is the bounded cache the replay engine
(:mod:`repro.storage.batch`) keys intermediate payloads on.
:class:`TieredPayloadCache` extends it with a byte-bounded *spill tier* on
disk: every payload written to the cache is also spilled as a
zlib-compressed pickle under the repository directory, a memory miss falls
through to the disk tier, and a disk hit is promoted back into the memory
tier.  Both tiers rank eviction victims by marginal rebuild cost (the warm
cost model's metric), so the cheap-to-rebuild long tail is what falls out
of each tier first.

The spill format is deliberately disposable: one ``<object_id>.spill``
file per payload, written to a temp name and atomically renamed, read
back with every decode error treated as a plain miss (the entry is
dropped and the chain is recomputed from the store).  The directory is
scrubbed on open — a cache never survives a restart, so stale or torn
spill files from a previous process can never be served.
"""

from __future__ import annotations

import os
import pickle
import threading
import zlib
from collections import OrderedDict
from typing import Any, Callable

from ..obs.metrics import log_once

__all__ = ["LRUPayloadCache", "SpillTier", "TieredPayloadCache"]

_MISS = object()

_SPILL_SUFFIX = ".spill"

# Fast compression: the spill tier trades ratio for put-path latency
# (every materialized payload passes through here when the tier is on).
_COMPRESSION_LEVEL = 1


class LRUPayloadCache:
    """A bounded least-recently-used cache of object-id → payload.

    ``capacity <= 0`` disables the cache entirely (every lookup misses,
    every insert is dropped), which lets callers share one code path.

    **Victim ranking.**  With ``victim_cost`` unset, eviction is plain
    LRU (oldest entry out).  With it set, the cache ranks the
    ``eviction_sample`` least-recently-used entries by their *marginal
    recreation cost* — what a request would re-pay if exactly that entry
    were evicted — and drops the cheapest one: payloads sitting deep on
    otherwise-uncached chains are worth more than payloads one delta away
    from a cached base, even when touched less recently.  ``victim_cost``
    returning ``None`` marks an entry unpriceable (e.g. its chain left the
    store's index after a repack) — those evict first.  The callback is
    invoked while the cache lock is held; it may take other locks but must
    never call back into this cache except through ``__contains__``.

    **Admission.**  With ``victim_cost`` set, the same ranking is applied
    at the door: once the cache is full, a payload whose marginal rebuild
    cost is lower than the cheapest sampled victim's is not inserted at
    all (counted in ``admission_rejections``) — the entries it would
    displace are worth more than it is.

    Every operation is atomic behind an internal lock: the batch engine's
    union-tree workers and concurrently served checkouts all read and warm
    one shared cache, so ``move_to_end``/eviction must never interleave
    mid-flight.  Payload *values* are shared by reference and treated as
    immutable by every caller, exactly as before.
    """

    def __init__(
        self,
        capacity: int,
        *,
        victim_cost: Callable[[str], float | None] | None = None,
        eviction_sample: int = 8,
    ) -> None:
        self.capacity = int(capacity)
        self.victim_cost = victim_cost
        self.eviction_sample = max(1, int(eviction_sample))
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.cost_evictions = 0
        self.lru_evictions = 0
        self.admission_rejections = 0

    def get(self, key: str) -> Any:
        """The cached payload for ``key``, or the module-level miss sentinel."""
        with self._lock:
            if self.capacity <= 0 or key not in self._entries:
                self.misses += 1
                return _MISS
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]

    def put(self, key: str, payload: Any) -> None:
        if self._admission_reject(key):
            return
        with self._lock:
            if self.capacity <= 0:
                return
            self._entries[key] = payload
            self._entries.move_to_end(key)
            if len(self._entries) <= self.capacity:
                return
            if self.victim_cost is None:
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.lru_evictions += 1
                return
        # Cost-ranked eviction prices candidates *outside* the lock: each
        # victim_cost call walks chain metadata, and serializing every
        # over-capacity put of all replay workers behind those walks would
        # undo the per-chain parallelism the cache serves.
        self._evict_by_cost()

    def _admission_reject(self, key: str) -> bool:
        """True when the marginal-cost ranking refuses to insert ``key``.

        Mirrors the eviction ranking at the door: with the cache full, a
        candidate whose marginal rebuild cost is *below* the cheapest
        sampled victim's would immediately become the next eviction choice
        — inserting it only churns the cold end.  Unpriceable candidates
        or victims admit (plain LRU behavior), and a cache below capacity
        admits everything, so admission never starves a warming cache.
        Pricing happens outside the lock for the same reason eviction
        pricing does.
        """
        if self.victim_cost is None:
            return False
        with self._lock:
            if (
                self.capacity <= 0
                or key in self._entries
                or len(self._entries) < self.capacity
            ):
                return False
            sample = min(self.eviction_sample, len(self._entries) - 1)
            candidates = []
            for existing in self._entries:  # insertion order = LRU order
                candidates.append(existing)
                if len(candidates) >= sample:
                    break
        if not candidates:
            return False
        try:
            candidate_cost = self.victim_cost(key)
        except Exception as exc:
            log_once(
                "cache:admission_cost",
                "admission scoring failed (%s: %s); admitting the entry",
                type(exc).__name__,
                exc,
            )
            return False
        if candidate_cost is None:
            return False
        cheapest: float | None = None
        for existing in candidates:
            try:
                cost = self.victim_cost(existing)
            except Exception:
                cost = None
            if cost is None:
                # An unpriceable victim (dead-epoch leftover) evicts for
                # free — displacing it is always worthwhile.
                return False
            if cheapest is None or cost < cheapest:
                cheapest = cost
        if cheapest is not None and float(candidate_cost) < cheapest:
            with self._lock:
                self.admission_rejections += 1
            return True
        return False

    def _evict_by_cost(self) -> None:
        # Rank the oldest entries only, and never the most recent one: a
        # just-replayed payload always looks cheap (its base is cached) but
        # evicting it would defeat the warm repeat the cache exists for —
        # recency stays the first filter, marginal cost breaks ties within
        # the cold end.  The lock is held only to snapshot candidates and
        # to delete the chosen victim (re-validated: it may have been
        # touched or evicted by a peer while we priced); after a few
        # contended rounds fall back to plain LRU rather than spin.
        for _attempt in range(4):
            with self._lock:
                if len(self._entries) <= self.capacity:
                    return
                sample = min(self.eviction_sample, len(self._entries) - 1)
                candidates: list[str] = []
                for key in self._entries:  # insertion order = LRU order
                    candidates.append(key)
                    if len(candidates) >= sample:
                        break
            victim = candidates[0]
            best: tuple[int, float, int] | None = None
            for index, key in enumerate(candidates):
                try:
                    cost = self.victim_cost(key)  # type: ignore[misc]
                except Exception as exc:
                    # Scoring must never break a put, but a broken scorer
                    # silently degrades the cache to LRU — say so once.
                    cost = None
                    log_once(
                        "cache:victim_cost",
                        "victim_cost scoring failed (%s: %s); treating the "
                        "entry as unpriceable",
                        type(exc).__name__,
                        exc,
                    )
                # Unpriceable entries (dead-epoch leftovers) rank below
                # every priced one; ties go to the least recently used.
                rank = (0, 0.0, index) if cost is None else (1, float(cost), index)
                if best is None or rank < best:
                    best = rank
                    victim = key
            with self._lock:
                if len(self._entries) <= self.capacity:
                    return
                mru = next(reversed(self._entries))
                if victim in self._entries and victim != mru:
                    if victim != next(iter(self._entries)):
                        self.cost_evictions += 1
                    else:
                        self.lru_evictions += 1
                    del self._entries[victim]
                    if len(self._entries) <= self.capacity:
                        return
        with self._lock:
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.lru_evictions += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return self.capacity > 0 and key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @staticmethod
    def is_miss(value: Any) -> bool:
        """True when ``value`` is the sentinel returned on a cache miss."""
        return value is _MISS


class SpillTier:
    """A byte-bounded, compressed, disk-backed payload cache tier.

    ``max_bytes`` bounds the *compressed* bytes on disk; ``<= 0`` disables
    the tier (every lookup misses, every insert is dropped).  Eviction
    mirrors :class:`LRUPayloadCache`: the ``eviction_sample`` oldest
    entries are ranked by ``victim_cost`` and the cheapest one is deleted
    (unpriceable entries first; plain LRU without a scorer).  All index
    state is guarded by one lock; file reads and writes happen outside it.
    """

    def __init__(
        self,
        directory: str,
        max_bytes: int,
        *,
        victim_cost: Callable[[str], float | None] | None = None,
        eviction_sample: int = 8,
    ) -> None:
        self.directory = str(directory)
        self.max_bytes = int(max_bytes)
        self.victim_cost = victim_cost
        self.eviction_sample = max(1, int(eviction_sample))
        self._index: "OrderedDict[str, int]" = OrderedDict()  # key -> compressed size
        self._lock = threading.Lock()
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.spills = 0
        self.cost_evictions = 0
        self.lru_evictions = 0
        self.corruption_drops = 0
        if self.max_bytes > 0:
            os.makedirs(self.directory, exist_ok=True)
            self._scrub()

    def _scrub(self) -> None:
        """Delete leftover spill files from a previous process on open."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if name.endswith(_SPILL_SUFFIX) or (_SPILL_SUFFIX + ".tmp") in name:
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + _SPILL_SUFFIX)

    def get(self, key: str) -> Any:
        """The spilled payload for ``key``, or the shared miss sentinel.

        Any failure to read or decode the spill file — torn write, manual
        truncation, concurrent eviction — drops the entry and reports a
        miss, so corruption degrades to a recompute, never an error.
        """
        with self._lock:
            if self.max_bytes <= 0 or key not in self._index:
                self.misses += 1
                return _MISS
            self._index.move_to_end(key)
        try:
            with open(self._path(key), "rb") as handle:
                data = handle.read()
            payload = pickle.loads(zlib.decompress(data))
        except FileNotFoundError:
            # Evicted by a peer between the index probe and the read.
            with self._lock:
                self._drop(key)
                self.misses += 1
            return _MISS
        except Exception as exc:
            with self._lock:
                self._drop(key)
                self.corruption_drops += 1
                self.misses += 1
            log_once(
                "cache_tiers:corrupt:%s" % self.directory,
                "dropping corrupt spill file for %s in %s (%s: %s); "
                "the payload will be recomputed",
                key,
                self.directory,
                type(exc).__name__,
                exc,
            )
            try:
                os.unlink(self._path(key))
            except OSError:
                pass
            return _MISS
        with self._lock:
            self.hits += 1
        return payload

    def _drop(self, key: str) -> None:
        """Remove ``key`` from the index (lock held by caller)."""
        size = self._index.pop(key, None)
        if size is not None:
            self.bytes_used -= size

    def put(self, key: str, payload: Any) -> None:
        if self.max_bytes <= 0:
            return
        with self._lock:
            if key in self._index:
                # Content-addressed keys never change value: refresh
                # recency, skip the rewrite.
                self._index.move_to_end(key)
                return
        try:
            data = zlib.compress(
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
                _COMPRESSION_LEVEL,
            )
        except Exception as exc:
            log_once(
                "cache_tiers:pickle:%s" % self.directory,
                "payload for %s is not spillable (%s: %s); keeping it "
                "memory-only",
                key,
                type(exc).__name__,
                exc,
            )
            return
        if len(data) > self.max_bytes:
            return  # larger than the whole tier: not worth thrashing for
        path = self._path(key)
        tmp_path = "%s.tmp%d" % (path, threading.get_ident())
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(data)
            os.replace(tmp_path, path)
        except OSError as exc:
            log_once(
                "cache_tiers:write:%s" % self.directory,
                "spill write failed in %s (%s: %s); the tier degrades to "
                "memory-only for this entry",
                self.directory,
                type(exc).__name__,
                exc,
            )
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return
        with self._lock:
            if key in self._index:  # a peer spilled the same payload
                self._index.move_to_end(key)
                return
            self._index[key] = len(data)
            self.bytes_used += len(data)
            self.spills += 1
            over = self.bytes_used > self.max_bytes
        if over:
            self._evict()

    def _evict(self) -> None:
        """Shrink back under ``max_bytes``, cheapest sampled victim first.

        Pricing happens outside the lock (victim_cost walks chain
        metadata); like the memory tier, the most recent entry is never a
        candidate and a few contended rounds fall back to plain LRU.
        """
        for _attempt in range(8):
            with self._lock:
                if self.bytes_used <= self.max_bytes or len(self._index) <= 1:
                    break
                sample = min(self.eviction_sample, len(self._index) - 1)
                candidates: list[str] = []
                for key in self._index:  # insertion order = LRU order
                    candidates.append(key)
                    if len(candidates) >= sample:
                        break
            victim = candidates[0]
            if self.victim_cost is not None:
                best: tuple[int, float, int] | None = None
                for index, key in enumerate(candidates):
                    try:
                        cost = self.victim_cost(key)
                    except Exception:
                        cost = None
                    rank = (
                        (0, 0.0, index) if cost is None else (1, float(cost), index)
                    )
                    if best is None or rank < best:
                        best = rank
                        victim = key
            with self._lock:
                if self.bytes_used <= self.max_bytes:
                    return
                if victim in self._index and victim != next(reversed(self._index)):
                    self._drop(victim)
                    if self.victim_cost is not None and victim != candidates[0]:
                        self.cost_evictions += 1
                    else:
                        self.lru_evictions += 1
                else:
                    continue
            try:
                os.unlink(self._path(victim))
            except OSError:
                pass
        else:
            return
        # Loop exited via break with the budget satisfied (or a single
        # oversized entry left, which put() prevents).

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return self.max_bytes > 0 and key in self._index

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def clear(self) -> None:
        with self._lock:
            keys = list(self._index)
            self._index.clear()
            self.bytes_used = 0
        for key in keys:
            try:
                os.unlink(self._path(key))
            except OSError:
                pass


class TieredPayloadCache(LRUPayloadCache):
    """Memory LRU tier over a compressed disk spill tier.

    Drop-in for :class:`LRUPayloadCache` wherever the batch engine expects
    one: ``get`` falls through to the disk tier on a memory miss and
    promotes the hit back into memory (through the same admission ranking
    as any other insert), ``put`` writes through to both tiers, and
    membership covers both — so the warm cost model prices a disk-resident
    ancestor as cached, which is exactly what a replay starting from it
    pays.  ``hits``/``misses`` count the memory tier only; the disk tier
    keeps its own counters on the ``disk`` attribute.
    """

    def __init__(
        self,
        capacity: int,
        *,
        spill_dir: str,
        spill_bytes: int,
        victim_cost: Callable[[str], float | None] | None = None,
        eviction_sample: int = 8,
    ) -> None:
        super().__init__(
            capacity, victim_cost=victim_cost, eviction_sample=eviction_sample
        )
        self.disk = SpillTier(
            spill_dir,
            spill_bytes,
            victim_cost=victim_cost,
            eviction_sample=eviction_sample,
        )

    def get(self, key: str) -> Any:
        value = super().get(key)
        if not LRUPayloadCache.is_miss(value):
            return value
        spilled = self.disk.get(key)
        if LRUPayloadCache.is_miss(spilled):
            return _MISS
        super().put(key, spilled)  # promotion on hit
        return spilled

    def put(self, key: str, payload: Any) -> None:
        super().put(key, payload)
        self.disk.put(key, payload)

    def __contains__(self, key: str) -> bool:
        return super().__contains__(key) or key in self.disk

    def clear(self) -> None:
        super().clear()
        self.disk.clear()
