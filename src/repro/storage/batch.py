"""Batch checkout: materializing many versions while paying shared work once.

The paper's recreation cost model (the Φ matrix) charges every checkout the
full cost of its delta chain.  A serving system that receives *batches* of
checkouts — a dashboard rebuilding every branch head, a CI farm checking out
fifty snapshots of the same lineage — can do much better: chains that share
a prefix only need that prefix replayed once.

:class:`BatchMaterializer` implements that amortization, and is the only
code that turns a delta chain into a payload: it overlays every requested
chain into a *union tree* (chains are root-first and each object has a
unique base, so the overlay is a forest) and walks it depth-first, carrying
the payload of the current path on the traversal stack.  Every shared
prefix is therefore replayed exactly once per batch — a guarantee that
holds even with a tiny or disabled payload cache.  A single checkout is a
batch of one: the union tree of one chain, trimmed at its deepest cached
ancestor.  The walk reads and warms a persistent
:class:`~repro.storage.cache_tiers.LRUPayloadCache` ranked by marginal
recreation cost, which is what lets a long-lived serving process answer
repeat requests without replaying anything.

**Concurrency.**  The materializer is safe for concurrent callers: the
payload cache is atomic, and chain metadata lives in the object store's
incremental cost index (immutable under content addressing, guarded by the
store's index lock) instead of a private memo.  Replay runs on the thread
that asked for it, through the one union-tree DFS, one root tree after
another.  An optional ``lock_manager`` (a
:class:`~repro.storage.concurrency.StripedLockManager`) serializes a
batch's work per chain root, so concurrent batches touching the same tree
cooperate through the warm cache instead of duplicating the replay.  More
cores are used by running more ``repro serve`` processes over one
``sqlite://`` catalog, never by shipping replay elsewhere.  Every object
the walk replays is read through
:meth:`~repro.storage.objects.ObjectStore.get`.

The result reports, per version and in aggregate, the recreation cost
*actually paid* next to the chain cost the storage plan *predicts* (the Φ
chain sum), so experiments can measure how far real serving sits below the
model the optimizers plan against.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Hashable, Sequence

from ..delta.base import DeltaEncoder
from ..exceptions import ObjectNotFoundError
from ..obs.metrics import NULL_INSTRUMENT
from .cache_tiers import LRUPayloadCache, TieredPayloadCache
from .concurrency import StripedLockManager
from .objects import ObjectStore

__all__ = [
    "BatchMaterializer",
    "BatchItem",
    "BatchResult",
    "WarmChainCost",
]


@dataclass(frozen=True)
class WarmChainCost:
    """What a checkout of one chain tip would pay *right now*.

    The cold model prices every request at its full Φ chain sum; a warm
    serving process only replays the suffix below the deepest cached
    ancestor.  ``phi`` / ``deltas`` are exactly the recreation cost and
    delta applications :meth:`BatchMaterializer.materialize` would charge
    against the current cache contents; ``cached_depth`` is
    the number of chain entries the cache covers (0 = fully cold, in which
    case ``phi`` equals the cold Φ chain sum by construction).
    """

    phi: float
    deltas: int
    cached_depth: int
    chain_length: int


@dataclass
class BatchItem:
    """One materialized request of a batch.

    ``predicted_cost`` is the full Φ chain sum the storage plan models for
    this version; ``recreation_cost`` is what this request actually paid
    after cache reuse (the two coincide on a cold cache).
    """

    key: Hashable
    object_id: str
    payload: Any
    chain_length: int
    predicted_cost: float
    recreation_cost: float
    deltas_applied: int
    cache_hits: int


@dataclass
class BatchResult:
    """Per-request items plus the aggregate accounting of a batch."""

    items: dict[Hashable, BatchItem] = field(default_factory=dict)

    @property
    def total_predicted_cost(self) -> float:
        """Σ Φ chain costs — what serving each request alone would pay."""
        return float(sum(item.predicted_cost for item in self.items.values()))

    @property
    def total_recreation_cost(self) -> float:
        """Recreation cost the batch actually paid."""
        return float(sum(item.recreation_cost for item in self.items.values()))

    @property
    def deltas_applied(self) -> int:
        """Delta applications actually performed across the batch."""
        return sum(item.deltas_applied for item in self.items.values())

    @property
    def naive_delta_applications(self) -> int:
        """Delta applications sequential, cache-less checkouts would perform."""
        return sum(item.chain_length for item in self.items.values())

    @property
    def cost_savings(self) -> float:
        """Recreation cost avoided relative to the Φ prediction."""
        return self.total_predicted_cost - self.total_recreation_cost

    def payloads(self) -> dict[Hashable, Any]:
        """Mapping of request key to materialized payload."""
        return {key: item.payload for key, item in self.items.items()}

    def summary(self) -> dict[str, float]:
        """Flat aggregate numbers, ready for benchmark tables."""
        return {
            "num_requests": float(len(self.items)),
            "deltas_applied": float(self.deltas_applied),
            "naive_delta_applications": float(self.naive_delta_applications),
            "recreation_cost_paid": self.total_recreation_cost,
            "recreation_cost_predicted": self.total_predicted_cost,
            "recreation_cost_saved": self.cost_savings,
        }


class BatchMaterializer:
    """Materializes many objects at once, replaying shared prefixes once.

    The warm cache ranks payloads by marginal recreation cost (what a
    request would re-pay without the entry) both when choosing an eviction
    victim and at the door; recency is the fallback for entries the cost
    index cannot price.

    ``lock_manager`` optionally serializes a batch's work per chain root
    across concurrent callers.  The cache persists across
    :meth:`materialize_many` calls, so a serving loop keeps benefiting from
    earlier batches; call :meth:`clear_cache` between measurements that
    must start cold.
    """

    def __init__(
        self,
        store: ObjectStore,
        encoder: DeltaEncoder,
        *,
        cache_size: int = 64,
        lock_manager: StripedLockManager | None = None,
        spill_dir: str | None = None,
        spill_bytes: int = 0,
    ) -> None:
        self.store = store
        self.encoder = encoder
        if spill_dir is not None and int(spill_bytes) > 0:
            # Two-tier warm cache: the bounded memory LRU spills through to
            # a compressed disk tier, so warm capacity scales past RAM.
            self.cache: LRUPayloadCache = TieredPayloadCache(
                cache_size,
                spill_dir=spill_dir,
                spill_bytes=int(spill_bytes),
                victim_cost=self._marginal_payload_cost,
            )
        else:
            self.cache = LRUPayloadCache(
                cache_size, victim_cost=self._marginal_payload_cost
            )
        self.lock_manager = lock_manager
        # Live instruments replace these no-ops when bind_metrics() runs.
        self._metrics_on = False
        self._m_deltas = NULL_INSTRUMENT
        self._m_bytes = NULL_INSTRUMENT
        self._m_warm_error = NULL_INSTRUMENT

    def bind_metrics(self, registry) -> None:
        """Attach materializer counters and scrape-time cache gauges.

        Hot-path increments stay cheap (one pre-bound counter each);
        cache hit/miss/eviction numbers are copied from the cache's own
        counters by a collector at scrape time, so cache operations pay
        nothing at all.
        """
        self._metrics_on = bool(getattr(registry, "enabled", True))
        self._m_deltas = registry.counter(
            "repro_materialize_deltas_total",
            "Delta applications performed by the materializer.",
        )
        self._m_bytes = registry.counter(
            "repro_materialize_bytes_total",
            "Recreation cost (payload units) actually paid materializing.",
        )
        self._m_warm_error = registry.histogram(
            "repro_warm_cost_error",
            "Relative error of the warm cost model: |predicted - actual| "
            "/ max(predicted, actual, 1) per single checkout.",
            buckets=(0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0),
        )
        hits = registry.gauge("repro_cache_hits", "Payload cache hits (lifetime).")
        misses = registry.gauge(
            "repro_cache_misses", "Payload cache misses (lifetime)."
        )
        evictions = registry.gauge(
            "repro_cache_evictions",
            "Payload cache evictions by reason (lifetime).",
            ("reason",),
        )
        cost_ev = evictions.labels("cost")
        lru_ev = evictions.labels("lru")
        entries = registry.gauge("repro_cache_entries", "Payload cache entries.")
        capacity = registry.gauge("repro_cache_capacity", "Payload cache capacity.")
        rejections = registry.gauge(
            "repro_cache_admission_rejections",
            "Payloads refused at cache admission (lifetime).",
        )
        tier = registry.gauge(
            "repro_cache_tier",
            "Disk spill tier state by field (hits/misses/entries/bytes/"
            "spills/corruption_drops).",
            ("field",),
        )
        tier_fields = {
            name: tier.labels(name)
            for name in (
                "hits",
                "misses",
                "entries",
                "bytes",
                "spills",
                "corruption_drops",
            )
        }
        cache = self.cache

        def collect(_registry) -> None:
            hits.set(cache.hits)
            misses.set(cache.misses)
            cost_ev.set(cache.cost_evictions)
            lru_ev.set(cache.lru_evictions)
            entries.set(len(cache))
            capacity.set(cache.capacity)
            rejections.set(cache.admission_rejections)
            disk = getattr(cache, "disk", None)
            if disk is not None:
                tier_fields["hits"].set(disk.hits)
                tier_fields["misses"].set(disk.misses)
                tier_fields["entries"].set(len(disk))
                tier_fields["bytes"].set(disk.bytes_used)
                tier_fields["spills"].set(disk.spills)
                tier_fields["corruption_drops"].set(disk.corruption_drops)

        registry.register_collector(collect)

    def _marginal_payload_cost(self, object_id: str) -> float | None:
        """Marginal recreation cost of one cached payload (eviction rank).

        What a request would re-pay if exactly ``object_id`` left the
        cache: the Φ suffix from it down to its deepest *other* cached
        ancestor, answered by the store's cost index without any backend
        read.  Invoked by the cache while its lock is held — the store
        never takes the cache lock, so the ordering stays acyclic.
        """
        return self.store.marginal_chain_cost(
            object_id, lambda oid: oid != object_id and oid in self.cache
        )

    def materialize_many(
        self, requests: Sequence[tuple[Hashable, str]] | Sequence[str]
    ) -> BatchResult:
        """Materialize every requested object.

        ``requests`` is either a sequence of object ids or of ``(key,
        object_id)`` pairs; keys name the items in the result (version ids,
        in the repository's case) and default to the object id itself.
        Duplicate object ids are materialized once and shared.
        """
        normalized: list[tuple[Hashable, str]] = [
            request if isinstance(request, tuple) else (request, request)
            for request in requests
        ]

        # Resolve every distinct chain up front from the store's cost index.
        distinct = list(dict.fromkeys(object_id for _, object_id in normalized))
        chains: dict[str, tuple[str, ...]] = {
            object_id: self.store.chain_ids(object_id) for object_id in distinct
        }

        materialized = self._materialize_forest(chains)

        # Distinct keys can resolve to the same object (content addressing
        # deduplicates identical payloads): the single materialization's cost
        # is charged to the first item only, so the aggregate "actually paid"
        # numbers stay honest; later copies are pure cache hits.  A repeated
        # key keeps its first (charged) item rather than being overwritten
        # by a zeroed copy.
        result = BatchResult()
        charged: set[str] = set()
        for key, object_id in normalized:
            if key in result.items:
                continue
            base = materialized[object_id]
            first = object_id not in charged
            charged.add(object_id)
            result.items[key] = BatchItem(
                key=key,
                object_id=object_id,
                payload=base.payload,
                chain_length=base.chain_length,
                predicted_cost=base.predicted_cost,
                recreation_cost=base.recreation_cost if first else 0.0,
                deltas_applied=base.deltas_applied if first else 0,
                cache_hits=base.cache_hits if first else 1,
            )
        return result

    def materialize(self, object_id: str) -> BatchItem:
        """Materialize a single object: the batch of one.

        The same union-tree walk :meth:`materialize_many` runs, over the
        one chain, through the same warm cache.

        Unlike a batch, this takes no stripe lock: callers that serialize
        per subtree (the serving layer) already hold their stripe, and a
        second, differently keyed one taken inside it would invert the
        lock order across hashed stripes.
        """
        predicted = None
        if self._metrics_on:
            # Price the chain against the current cache *before* the replay
            # warms it — dictionary walks only, no payload touched.
            try:
                predicted = self.warm_chain_cost(object_id).phi
            except ObjectNotFoundError:
                predicted = None
        chains = {object_id: self.store.chain_ids(object_id)}
        item = self._materialize_union_tree(chains)[object_id]
        if predicted is not None:
            actual = item.recreation_cost
            self._m_warm_error.observe(
                abs(predicted - actual) / max(predicted, actual, 1.0)
            )
        return item

    def warm_chain_cost(self, object_id: str) -> WarmChainCost:
        """Price one chain against the *current* cache contents.

        Performs exactly the probe the union-tree walk opens with — scan
        the chain tip-down for the deepest cached payload — and prices the
        remaining suffix from the store's cost index (both the tip's and
        the anchor's :class:`~repro.storage.objects.ChainStats` are
        memoized by one walk, so repeat pricing is a pair of dictionary
        lookups).  No payload is fetched or replayed, and the probe leaves
        the cache's recency order and hit/miss counters untouched.  With
        an empty cache this degrades to the cold Φ chain sum the storage
        plan models.
        """
        chain_ids = self.store.chain_ids(object_id)
        tip = self.store.chain_stats(object_id)
        for index in range(len(chain_ids) - 1, -1, -1):
            if chain_ids[index] in self.cache:
                anchor = self.store.chain_stats(chain_ids[index])
                return WarmChainCost(
                    phi=tip.phi_total - anchor.phi_total,
                    deltas=tip.num_deltas - anchor.num_deltas,
                    cached_depth=index + 1,
                    chain_length=tip.length,
                )
        return WarmChainCost(
            phi=tip.phi_total,
            deltas=tip.num_deltas,
            cached_depth=0,
            chain_length=tip.length,
        )

    def cache_info(self) -> dict[str, object]:
        """Counters of the warm cache, one flat dict per tier for stats."""
        cache = self.cache
        info: dict[str, object] = {
            "entries": len(cache),
            "capacity": cache.capacity,
            "hits": cache.hits,
            "misses": cache.misses,
            "cost_evictions": cache.cost_evictions,
            "lru_evictions": cache.lru_evictions,
            "admission_rejections": cache.admission_rejections,
        }
        disk = getattr(cache, "disk", None)
        if disk is not None:
            info["tier"] = {
                "directory": disk.directory,
                "max_bytes": disk.max_bytes,
                "bytes_used": disk.bytes_used,
                "entries": len(disk),
                "hits": disk.hits,
                "misses": disk.misses,
                "spills": disk.spills,
                "cost_evictions": disk.cost_evictions,
                "lru_evictions": disk.lru_evictions,
                "corruption_drops": disk.corruption_drops,
            }
        return info

    def clear_cache(self) -> None:
        """Drop every cached payload (start the next batch cold).

        Chain metadata is *not* dropped: it lives in the store's cost
        index, is immutable under content addressing, and entries for
        objects a repack removes are evicted by the store itself.
        """
        self.cache.clear()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _chain_guard(self, root_id: str):
        """The stripe lock guarding ``root_id``'s chain (no-op unmanaged)."""
        if self.lock_manager is None:
            return nullcontext()
        return self.lock_manager.holding(root_id)

    def _materialize_forest(
        self, chains: dict[str, tuple[str, ...]]
    ) -> dict[str, BatchItem]:
        """Replay the union forest, one group per chain *root*, in turn.

        Each group is an exactly-once union-tree DFS (the batch guarantee:
        no delta object replays twice, whatever the cache size) and holds
        its root's stripe lock while it replays, so concurrent batches
        cooperate on a tree instead of racing it.
        """
        groups: dict[str, dict[str, tuple[str, ...]]] = {}
        for object_id, chain_ids in chains.items():
            groups.setdefault(chain_ids[0], {})[object_id] = chain_ids
        materialized: dict[str, BatchItem] = {}
        for root_id, group in groups.items():
            with self._chain_guard(root_id):
                materialized.update(self._materialize_union_tree(group))
        return materialized

    def _materialize_union_tree(
        self, chains: dict[str, tuple[str, ...]]
    ) -> dict[str, BatchItem]:
        """Materialize every requested chain via one DFS over their union.

        Chains are root-first and every delta object names a unique base, so
        overlaying them yields a forest.  The traversal carries the payload
        of the current root-to-node path on its stack, which is what lets a
        shared prefix be replayed exactly once per batch even when the LRU
        cache is tiny or disabled; the cache is still consulted (warm
        serving across batches) and re-warmed on the way down.

        Every hop actually replayed reports its fetch + apply wall time to
        the store's measured Δ/Φ model.

        Per-item accounting charges each node's actually-paid cost to the
        first request (in ``chains`` order) whose chain contains it, so the
        per-item numbers sum to exactly what the batch paid and every item
        stays at or below its Φ prediction.
        """
        # Trim every chain at its deepest cached ancestor, so a warm repeat
        # request replays nothing even when intermediate prefix nodes have
        # been evicted.  The cached payload is captured *now*: puts during
        # the traversal can evict it from the LRU before its subtree is
        # reached, and a trimmed suffix must never find itself without a base.
        captured: dict[str, Any] = {}
        trimmed: dict[str, tuple[str, ...]] = {}
        for object_id, chain_ids in chains.items():
            start = 0
            for index in range(len(chain_ids) - 1, -1, -1):
                cached = self.cache.get(chain_ids[index])
                if not LRUPayloadCache.is_miss(cached):
                    captured.setdefault(chain_ids[index], cached)
                    start = index
                    break
            trimmed[object_id] = chain_ids[start:]

        # A node can enter the tree both as a trim-point root (one chain
        # found it cached) and as an interior node of a longer untrimmed
        # chain; first insertion wins, and since every trim point carries a
        # captured payload the traversal is correct either way.
        children: dict[str | None, list[str]] = {}
        in_tree: set[str] = set()
        for chain_ids in trimmed.values():
            parent: str | None = None
            for oid in chain_ids:
                if oid not in in_tree:
                    in_tree.add(oid)
                    children.setdefault(parent, []).append(oid)
                parent = oid
        for kids in children.values():
            kids.sort()

        requested = set(chains)
        payloads: dict[str, Any] = {}
        node_cost: dict[str, float] = {}
        node_is_delta_replay: dict[str, bool] = {}
        node_cache_hit: dict[str, bool] = {}

        def visit(oid: str, base_payload: Any) -> Any:
            cached = captured[oid] if oid in captured else self.cache.get(oid)
            if oid in captured or not LRUPayloadCache.is_miss(cached):
                payload = cached
                node_cost[oid] = 0.0
                node_is_delta_replay[oid] = False
                node_cache_hit[oid] = True
            else:
                started = time.perf_counter()
                obj = self.store.get(oid)
                if not obj.is_delta:
                    payload = obj.payload
                    node_cost[oid] = obj.storage_cost()
                    node_is_delta_replay[oid] = False
                else:
                    if base_payload is None:
                        raise ObjectNotFoundError(
                            f"delta object {oid!r} has no materialized base"
                        )
                    payload = self.encoder.apply(base_payload, obj.payload)
                    node_cost[oid] = obj.payload.recreation_cost
                    node_is_delta_replay[oid] = True
                self.store.observe_apply(oid, time.perf_counter() - started)
                node_cache_hit[oid] = False
                self.cache.put(oid, payload)
            if oid in requested:
                payloads[oid] = payload
            return payload

        stack: list[tuple[str, Any]] = [
            (root, None) for root in reversed(children.get(None, []))
        ]
        while stack:
            oid, base_payload = stack.pop()
            payload = visit(oid, base_payload)
            for child in reversed(children.get(oid, [])):
                stack.append((child, payload))

        if self._metrics_on:
            self._m_deltas.inc(sum(1 for v in node_is_delta_replay.values() if v))
            self._m_bytes.inc(sum(node_cost.values()))

        charged: set[str] = set()
        materialized: dict[str, BatchItem] = {}
        for object_id, chain_ids in chains.items():
            paid = 0.0
            deltas_applied = 0
            suffix = trimmed[object_id]
            # Nodes above the trim point were served by the cached ancestor,
            # never this request; only the traversed suffix can be charged.
            cache_hits = len(chain_ids) - len(suffix)
            for oid in suffix:
                if oid in charged:
                    cache_hits += 1
                    continue
                charged.add(oid)
                if node_cache_hit[oid]:
                    cache_hits += 1
                else:
                    paid += node_cost[oid]
                    if node_is_delta_replay[oid]:
                        deltas_applied += 1
            materialized[object_id] = BatchItem(
                key=object_id,
                object_id=object_id,
                payload=payloads[object_id],
                chain_length=len(chain_ids) - 1,
                predicted_cost=self.store.chain_stats(object_id).phi_total,
                recreation_cost=paid,
                deltas_applied=deltas_applied,
                cache_hits=cache_hits,
            )
        return materialized
