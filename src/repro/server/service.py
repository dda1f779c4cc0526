"""A long-lived version-store service around a :class:`Repository`.

The paper's storage/recreation tradeoff only pays off when recreation work
is amortized across many checkout requests — which requires a process that
*stays alive* between requests instead of the one-shot CLI.  This module is
that process's core, independent of any transport:

* one persistent warm :class:`~repro.storage.batch.BatchMaterializer`
  cache shared across *all* requests, so a hot version's chain is replayed
  once and then served from memory, evicting by the marginal recreation
  cost it saves rather than by recency;
* per-chain parallelism without a global serving lock, and request
  coalescing: concurrent checkouts of one version share one replay (see
  :class:`VersionStoreService` for the concurrency model);
* serving statistics (``deltas_applied`` vs the ``naive_delta_applications``
  a cold sequential server would have paid) and a persistent
  :class:`~repro.storage.workload_log.WorkloadLog` of per-version access
  frequencies that feeds the workload-aware optimizers (Figure 16) with
  *real* traffic;
* the **online repack** (:meth:`VersionStoreService.repack`) that
  re-optimizes the storage plan against that workload while checkouts keep
  flowing: only the swap takes the exclusive barrier.  Every repack —
  ``POST /repack``, the local ``repro repack DIR`` and the adaptive
  policy's — runs through that one method.  *When* to repack is decided
  by the service's :class:`~repro.server.policy.RepackPolicy`, which also
  holds a replica group's planner lease and the decision log.

The HTTP transport lives in :mod:`repro.server.httpd`; this class is also
usable directly in-process (the serving benchmark does exactly that).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from ..core.problems import default_threshold, solve
from ..core.version import VersionID
from ..exceptions import LeaseFencedError, ReproError, SnapshotConflictError
from ..obs import JsonLogSink, MetricsRegistry, Trace
from ..obs.metrics import default_registry_from_env
from ..obs.trace import NULL_TRACE
from ..storage.batch import BatchMaterializer, BatchResult
from ..storage.concurrency import EpochCoordinator, StripedLockManager
from ..storage.repack import (
    OnlineRepacker,
    expected_workload_cost,
    expected_workload_costs,
)
from ..storage.repository import Repository
from ..storage.workload_log import WorkloadLog
from .policy import RepackPolicy, check_plan_options

__all__ = ["VersionStoreService", "CheckoutResponse", "ServiceStats", "batch_response"]


@dataclass(frozen=True)
class CheckoutResponse:
    """One served checkout: the payload plus what producing it cost.

    ``coalesced`` is true when this request did not replay anything itself
    but shared the leader's materialization of the same version.
    ``object_id`` names the stored object the payload was materialized
    from; it is not part of the wire format.
    """

    version_id: VersionID
    object_id: str
    payload: Any
    chain_length: int
    recreation_cost: float
    deltas_applied: int
    cache_hits: int
    coalesced: bool = False

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (used by the HTTP transport)."""
        return {
            "version": self.version_id,
            "payload": self.payload,
            "chain_length": self.chain_length,
            "recreation_cost": self.recreation_cost,
            "deltas_applied": self.deltas_applied,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
        }


def batch_response(result: BatchResult) -> dict[str, Any]:
    """JSON-ready form of a served batch: the ``POST /checkout_many`` body,
    and what the CLI prints a directory's batch from."""
    return {
        "items": {
            str(vid): {
                "payload": item.payload,
                "chain_length": item.chain_length,
                "recreation_cost": item.recreation_cost,
                "deltas_applied": item.deltas_applied,
            }
            for vid, item in result.items.items()
        },
        "summary": result.summary(),
    }


@dataclass
class ServiceStats:
    """Aggregate counters over the lifetime of a service."""

    checkout_requests: int = 0
    commits: int = 0
    coalesced_requests: int = 0
    deltas_applied: int = 0
    naive_delta_applications: int = 0
    recreation_cost_paid: float = 0.0
    recreation_cost_predicted: float = 0.0
    per_version: dict[VersionID, int] = field(default_factory=dict)

    def record_checkout(
        self,
        version_id: VersionID,
        *,
        chain_length: int,
        deltas_applied: int,
        recreation_cost: float,
        predicted_cost: float,
        coalesced: bool = False,
    ) -> None:
        """Fold one served request into the totals.

        ``naive_delta_applications`` grows by the full chain length on every
        request — coalesced and cache-served ones included — because that is
        what a cold sequential server would have paid for the same stream.
        """
        self.checkout_requests += 1
        self.naive_delta_applications += chain_length
        self.deltas_applied += deltas_applied
        self.recreation_cost_paid += recreation_cost
        self.recreation_cost_predicted += predicted_cost
        if coalesced:
            self.coalesced_requests += 1
        self.per_version[version_id] = self.per_version.get(version_id, 0) + 1

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready copy of the counters."""
        return {
            "checkout_requests": self.checkout_requests,
            "commits": self.commits,
            "coalesced_requests": self.coalesced_requests,
            "deltas_applied": self.deltas_applied,
            "naive_delta_applications": self.naive_delta_applications,
            "recreation_cost_paid": self.recreation_cost_paid,
            "recreation_cost_predicted": self.recreation_cost_predicted,
            "per_version": dict(self.per_version),
        }


class _Inflight:
    """Rendezvous for requests coalescing onto one in-progress checkout."""

    __slots__ = ("event", "response", "error", "predicted_cost")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: CheckoutResponse | None = None
        self.error: BaseException | None = None
        self.predicted_cost = 0.0


class VersionStoreService:
    """Serve commits and checkouts from one repository, warm and thread-safe.

    The service builds the process's one :class:`BatchMaterializer` —
    warm cache sized by ``cache_size``, stripe locks, optional spill
    tier — and installs it as ``repository.materializer``: served
    checkouts, a commit's parent read, the repack swap's cache drop and
    ``sync()``'s epoch drop all act on that one cache.

    **Concurrency model.**  Reads (checkouts, batches, stats, planning,
    the repack's measurement and staging phases) hold the
    :class:`~repro.storage.concurrency.EpochCoordinator` in shared mode and
    run in parallel; structural mutations — commits and the repack swap —
    take its brief exclusive barrier.  Within shared mode, each
    materialization holds the striped lock of its chain's **subtree stripe
    key** (``lock_stripes`` stripes) — the node below the deepest fork
    point, which degenerates to the chain root on linear histories — so
    independent chains *and disjoint subtrees of one fork-heavy root*
    replay concurrently while same-subtree requests serialize into the warm
    cache.  A ``checkout_many`` batch replays its root trees one after
    another, each under its **chain-root** stripe.  Replay always runs on
    the thread that asked for it.  Setting ``lock_stripes=1`` reproduces
    the old single-lock server — the benchmark's baseline.

    ``on_commit`` is called after every successful commit — and after the
    swap phase of an online :meth:`repack` — while the exclusive barrier is
    still held, so the persisted state can never race a concurrent commit,
    but slow callbacks stall requests for their duration; the CLI uses it
    to persist the repository state file.

    The repack policy — when to repack, the planner lease, the decision
    log — is ``policy``, a :class:`~repro.server.policy.RepackPolicy`:
    ``adaptive_repack`` arms its background trigger, checked every
    ``auto_repack_interval`` checkouts and gated on ``repack_horizon``
    requests of amortization; ``replica_id`` joins a replica group whose
    planner it elects (``lease_ttl``/``lease_renew``); ``log_sink`` receives
    its decision records as well as the transport's request events.
    """

    def __init__(
        self,
        repository: Repository,
        *,
        cache_size: int = 256,
        on_commit: Callable[[Repository], None] | None = None,
        workload_log: WorkloadLog | None = None,
        lock_stripes: int = 64,
        auto_repack_interval: int = 32,
        adaptive_repack: bool = False,
        repack_horizon: float = 1000.0,
        cache_tier_dir: str | None = None,
        cache_tier_bytes: int = 0,
        metrics: MetricsRegistry | None = None,
        log_sink: JsonLogSink | None = None,
        replica_id: str | None = None,
        lease_ttl: float = 10.0,
        lease_renew: float | None = None,
    ) -> None:
        self.repository = repository
        self.chain_locks = StripedLockManager(lock_stripes)
        self.materializer = BatchMaterializer(
            repository.store,
            repository.encoder,
            cache_size=cache_size,
            lock_manager=self.chain_locks,
            spill_dir=cache_tier_dir,
            spill_bytes=cache_tier_bytes,
        )
        repository.materializer = self.materializer
        self.stats_counters = ServiceStats()
        self._on_commit = on_commit
        # Every served checkout is recorded in the workload log; with a
        # file-backed log (the CLI passes one inside the repository) the
        # observed frequencies survive restarts and drive `repack`.  A
        # catalog-backed repository defaults to the catalog's shared
        # counters, so several serving processes fold into one record.
        self.workload_log = (
            workload_log
            if workload_log is not None
            else WorkloadLog(repository.catalog)
        )
        self.repacker = OnlineRepacker(repository)
        # coordinator: shared for every read path, exclusive for commits /
        # the repack swap / raw backend writes.  _state_lock guards the
        # inflight table and the stats counters (never held while
        # replaying, so waiters can register while the leader works).
        # _write_gate pauses commits while a repack is in flight: a version
        # committed after the plan was computed would not be covered by it.
        self.coordinator = EpochCoordinator()
        self._state_lock = threading.Lock()
        self._write_gate = threading.Lock()
        self._inflight: dict[VersionID, _Inflight] = {}
        # The workload total a stats() call already read, handed to the
        # scrape-time collector its metrics snapshot runs on this thread.
        self._stats_reading = threading.local()
        # Observability: a metrics registry (REPRO_METRICS=off selects the
        # no-op null registry) and an optional JSON-lines event sink.
        self.metrics = metrics if metrics is not None else default_registry_from_env()
        self.log_sink = log_sink
        self._bind_metrics()
        self.policy = RepackPolicy(
            self,
            armed=adaptive_repack,
            interval=auto_repack_interval,
            horizon=repack_horizon,
            log_sink=log_sink,
            replica_id=replica_id,
            lease_ttl=lease_ttl,
            lease_renew=lease_renew,
        )
        self.lease = self.policy.lease

    def _bind_metrics(self) -> None:
        """Create this service's instruments and bind every collaborator."""
        registry = self.metrics
        self._metrics_on = bool(getattr(registry, "enabled", False))
        self.chain_locks.bind_metrics(registry)
        self.coordinator.bind_metrics(registry)
        self.materializer.bind_metrics(registry)
        self.repository.store.bind_metrics(registry)
        latency = registry.histogram(
            "repro_request_seconds",
            "Service-level request latency by endpoint.",
            ("endpoint",),
        )
        self._m_checkout = latency.labels("checkout")
        self._m_checkout_many = latency.labels("checkout_many")
        self._m_commit = latency.labels("commit")
        self._m_requests = registry.counter(
            "repro_requests_total",
            "Requests served, by endpoint and outcome.",
            ("endpoint", "outcome"),
        )
        self._m_coalesced = registry.counter(
            "repro_coalesced_requests_total",
            "Checkouts served by sharing a concurrent leader's replay.",
        )
        if not self._metrics_on:
            return
        phi_rate = registry.gauge(
            "repro_apply_seconds_per_phi",
            "Measured wall-clock seconds per unit of recreation cost.",
        )
        epoch_gauge = registry.gauge("repro_epoch", "Active storage epoch.")
        versions_gauge = registry.gauge(
            "repro_versions", "Versions in the served graph."
        )
        objects_gauge = registry.gauge(
            "repro_objects", "Objects in the backing store."
        )
        workload_gauge = registry.gauge(
            "repro_workload_accesses_total",
            "Accesses folded into the workload log.",
        )

        def collect(_registry: MetricsRegistry) -> None:
            epoch_gauge.set(self.repacker.epoch)
            versions_gauge.set(len(self.repository))
            objects_gauge.set(len(self.repository.store))
            total = getattr(self._stats_reading, "workload_total", None)
            workload_gauge.set(
                total if total is not None else self.workload_log.total_accesses
            )
            rate = self.repository.store.seconds_per_phi()
            phi_rate.set(rate if rate is not None else 0.0)

        registry.register_collector(collect)

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def commit(
        self,
        payload: Any,
        *,
        parents: Iterable[VersionID] | None = None,
        message: str = "",
        branch: str | None = None,
    ) -> VersionID:
        """Commit a new version (optionally on ``branch``) and return its id.

        Commits wait at the write gate while an online repack is in flight
        (reads keep flowing) and then take the exclusive barrier for the
        mutation itself; the counter is bumped while the barrier is still
        held so a stats snapshot never sees a committed version without its
        commit counted.
        """
        started = time.perf_counter() if self._metrics_on else 0.0
        try:
            version_id = self._commit_locked(
                payload, parents=parents, message=message, branch=branch
            )
        except BaseException:
            self._m_requests.labels("commit", "error").inc()
            raise
        if self._metrics_on:
            self._m_commit.observe(time.perf_counter() - started)
            self._m_requests.labels("commit", "ok").inc()
        return version_id

    def _commit_locked(
        self,
        payload: Any,
        *,
        parents: Iterable[VersionID] | None,
        message: str,
        branch: str | None,
    ) -> VersionID:
        with self._write_gate:
            with self.coordinator.exclusive():
                # Adopt peer-process state (new versions, branch heads, a
                # swapped epoch) before judging branches and parents.
                self.repository.sync()
                version_id = self.repository.commit(
                    payload,
                    parents=tuple(parents) if parents is not None else None,
                    message=message,
                    branch=branch,
                )
                if self._on_commit is not None:
                    self._on_commit(self.repository)
                with self._state_lock:
                    self.stats_counters.commits += 1
                self.policy.note_commit()
        return version_id

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def checkout(
        self, version_id: VersionID, *, trace: Trace | None = None
    ) -> CheckoutResponse:
        """Serve one version through the warm cache, coalescing duplicates.

        Concurrent requests for the same version share a single chain
        replay: whichever request arrives first leads and materializes, the
        rest block until the leader finishes and return the identical
        payload (marked ``coalesced=True``).  Leaders of *independent*
        chains replay in parallel — only same-chain leaders serialize on
        their chain's stripe lock, where the second finds the first's work
        already cached.

        Pass a live :class:`~repro.obs.Trace` (the HTTP layer does, for
        ``?trace=1`` requests) to receive a span tree covering the
        coalesce wait, the shared section and the materialization with its
        stripe-lock wait attributed.
        """
        trace = trace if trace is not None else NULL_TRACE
        started = time.perf_counter() if self._metrics_on else 0.0
        try:
            response = self._checkout_traced(version_id, trace)
        except BaseException:
            self._m_requests.labels("checkout", "error").inc()
            raise
        if self._metrics_on:
            self._m_checkout.observe(time.perf_counter() - started)
            self._m_requests.labels("checkout", "ok").inc()
            if response.coalesced:
                self._m_coalesced.inc()
        return response

    def _checkout_traced(
        self, version_id: VersionID, trace: Trace
    ) -> CheckoutResponse:
        with self._state_lock:
            entry = self._inflight.get(version_id)
            leader = entry is None
            if leader:
                entry = _Inflight()
                self._inflight[version_id] = entry
        if not leader:
            with trace.span("coalesce_wait", version=str(version_id)):
                entry.event.wait()
            if entry.error is not None:
                raise entry.error
            assert entry.response is not None
            response = CheckoutResponse(
                version_id=version_id,
                object_id=entry.response.object_id,
                payload=entry.response.payload,
                chain_length=entry.response.chain_length,
                recreation_cost=0.0,
                deltas_applied=0,
                cache_hits=entry.response.chain_length + 1,
                coalesced=True,
            )
            with self._state_lock:
                self.stats_counters.record_checkout(
                    version_id,
                    chain_length=response.chain_length,
                    deltas_applied=0,
                    recreation_cost=0.0,
                    predicted_cost=entry.predicted_cost,
                    coalesced=True,
                )
            self.workload_log.record(version_id)
            self.policy.maybe_auto_repack()
            return response

        try:
            shared_span = trace.span("shared", version=str(version_id))
            with shared_span, self.coordinator.shared():
                object_id = self.repository.object_id_of(version_id)
                # The stripe key is the chain's subtree stripe (the node
                # below its deepest fork point; the root on linear chains)
                # when the cost index can answer it with dictionary walks;
                # on a tip the index has not seen yet, key by the tip
                # instead of forcing a resolving fetch — the leader's
                # materialization indexes the chain, so every later
                # request stripes by its subtree.
                stripe = self.repository.store.subtree_stripe_key(object_id)
                span = shared_span.span("materialize", object=str(object_id))
                with span:
                    observer = span.add_lock_wait if trace.enabled else None
                    with self.chain_locks.holding(
                        stripe or object_id, observer=observer
                    ):
                        item = self.materializer.materialize(object_id)
                if trace.enabled:
                    span.tag("chain_length", item.chain_length)
                    span.tag("deltas_applied", item.deltas_applied)
                    span.tag("cache_hits", item.cache_hits)
                response = CheckoutResponse(
                    version_id=version_id,
                    object_id=object_id,
                    payload=item.payload,
                    chain_length=item.chain_length,
                    recreation_cost=item.recreation_cost,
                    deltas_applied=item.deltas_applied,
                    cache_hits=item.cache_hits,
                )
                entry.predicted_cost = item.predicted_cost
                entry.response = response
                # A materialization's cache-counter effects land before its
                # serving counters (misses increment during replay, the
                # record below follows), so a stats snapshot can observe an
                # in-flight replay's misses but never a recorded request
                # whose replay work is missing — the invariants the
                # snapshot tests assert stay monotone.
                with self._state_lock:
                    self.stats_counters.record_checkout(
                        version_id,
                        chain_length=item.chain_length,
                        deltas_applied=item.deltas_applied,
                        recreation_cost=item.recreation_cost,
                        predicted_cost=item.predicted_cost,
                    )
        except BaseException as error:
            entry.error = error
            raise
        finally:
            with self._state_lock:
                self._inflight.pop(version_id, None)
            entry.event.set()
        # Everything past the event is leader-only bookkeeping: waiters are
        # already released, and neither a log-append failure nor a blocking
        # auto-repack check can stall or poison them.
        self.workload_log.record(version_id)
        self.policy.maybe_auto_repack()
        return response

    def checkout_many(
        self, version_ids: Sequence[VersionID], *, trace: Trace | None = None
    ) -> BatchResult:
        """Serve a whole batch through the warm cache (union-tree replay).

        The batch's union trees replay one after another on this thread,
        each under its chain *root*'s stripe lock, so concurrent batches on
        the same root tree cooperate through the warm cache instead of
        racing.  A single checkout stripes by its *subtree* key instead, which
        is the root only on a linear history.
        """
        trace = trace if trace is not None else NULL_TRACE
        started = time.perf_counter() if self._metrics_on else 0.0
        try:
            result = self._checkout_many_traced(version_ids, trace)
        except BaseException:
            self._m_requests.labels("checkout_many", "error").inc()
            raise
        if self._metrics_on:
            self._m_checkout_many.observe(time.perf_counter() - started)
            self._m_requests.labels("checkout_many", "ok").inc()
        return result

    def _checkout_many_traced(
        self, version_ids: Sequence[VersionID], trace: Trace
    ) -> BatchResult:
        shared_span = trace.span("shared", batch=len(version_ids))
        with shared_span, self.coordinator.shared():
            requests = [
                (vid, self.repository.object_id_of(vid)) for vid in version_ids
            ]
            with shared_span.span("materialize_many", requests=len(requests)) as span:
                result = self.materializer.materialize_many(requests)
                if trace.enabled:
                    span.tag("deltas_applied", result.deltas_applied)
                    span.tag("naive_deltas", result.naive_delta_applications)
            with self._state_lock:
                for vid, _ in requests:
                    item = result.items[vid]
                    self.stats_counters.record_checkout(
                        vid,
                        chain_length=item.chain_length,
                        deltas_applied=item.deltas_applied,
                        recreation_cost=item.recreation_cost,
                        predicted_cost=item.predicted_cost,
                    )
        self.workload_log.record_many(vid for vid, _ in requests)
        self.policy.maybe_auto_repack()
        return result

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(
        self, encoded_payloads: dict[str, int] | None = None
    ) -> dict[str, Any]:
        """Serving counters plus a snapshot of the repository behind them.

        An HTTP server passes its memo of encoded payloads' counters as
        ``encoded_payloads``, reported as ``serving.encoded_payloads``; an
        in-process caller has no such memo, and the block is absent.

        The snapshot is taken under shared access (counters additionally
        under the state lock), so it can never interleave with a commit or
        a repack swap: either all of a mutation's effects are visible or
        none are.  Workload-log totals are recorded outside the coordinator
        (appends do file I/O) and may trail the request counters by the few
        in-flight requests — eventually consistent, never torn internally.

        ``workload.expected_recreation_cost`` prices the logged workload
        against the *current* encoding straight from the store's cost index
        (no replay, no scan): the number an online repack is supposed to
        shrink.  Its ``warm`` sub-dict prices the same workload against the
        live cache — what requests will *actually* pay right now.
        ``workload.decayed`` reports both under the log's
        half-life-decayed frequencies — the drifting-workload view the
        adaptive controller triggers on; ``repack.controller`` exposes
        that controller's state machine when armed.
        """
        # A cheap catalog poll first, so the reported epoch and version
        # count reflect peer-process commits and swaps.
        self.repository.sync()
        with self.coordinator.shared():
            with self._state_lock:
                serving = self.stats_counters.snapshot()
                serving["cache"] = self.materializer.cache_info()
            repository = {
                "versions": len(self.repository),
                "branches": dict(self.repository.branches),
                "current_branch": self.repository.current_branch,
                "objects": len(self.repository.store),
                "storage_cost": self.repository.total_storage_cost(),
                # What storing every version in full would cost.
                "store_everything_cost": sum(
                    version.size for version in self.repository.graph.versions
                ),
                "backend": self.repository.store.backend.spec(),
            }
            version_ids = self.repository.graph.version_ids
            workload, frequencies, decayed = self.workload_log.stats_views(
                version_ids
            )
            # One pass prices both views: the per-version chain walk (and
            # its warm probe) is frequency-independent, only the
            # weighting differs.
            priced = expected_workload_costs(
                self.repository,
                {"raw": frequencies or None, "decayed": decayed or None},
                materializer=self.materializer,
            )
            workload["expected_recreation_cost"] = priced["raw"]
            workload["decayed"] = {
                "half_life": self.workload_log.half_life,
                "expected_recreation_cost": priced["decayed"],
            }
            repack = {
                "epoch": self.repacker.epoch,
                **self.policy.snapshot(),
                "measured_cost_model": self.repository.store.measured_cost_model(),
            }
            serving["auto_repacks"] = repack["auto_repacks"]
            if encoded_payloads is not None:
                serving["encoded_payloads"] = encoded_payloads
            concurrency = {
                "lock_stripes": self.chain_locks.num_stripes,
                "exclusive_epochs": self.coordinator.exclusive_epochs,
            }
        # The same registry `GET /metrics` scrapes, as JSON: quantile
        # estimates for the histograms, raw values for the rest.
        self._stats_reading.workload_total = workload["total_accesses"]
        try:
            metrics = self.metrics.snapshot()
        finally:
            self._stats_reading.workload_total = None
        return {
            "serving": serving,
            "repository": repository,
            "workload": workload,
            "repack": repack,
            "concurrency": concurrency,
            "metrics": metrics,
        }

    def plan(
        self,
        *,
        problem: int = 3,
        threshold: float | None = None,
        threshold_factor: float | None = None,
        hop_limit: int = 2,
        algorithm: str = "auto",
    ) -> dict[str, Any]:
        """Compute an optimized storage plan for the served repository.

        An operator's call, not the request hot path: :meth:`_solve`
        measures the cost model with a full payload scan.  The plan is
        *not* applied; use :meth:`repack` to apply one online.
        """
        options = check_plan_options(
            problem=problem,
            threshold=threshold,
            threshold_factor=threshold_factor,
            hop_limit=hop_limit,
            algorithm=algorithm,
        )
        _, resolved, result = self._solve(**options)
        return {
            "problem": options["problem"],
            "algorithm": result.algorithm,
            "threshold": resolved,
            "metrics": {
                "storage_cost": result.metrics.storage_cost,
                "sum_recreation": result.metrics.sum_recreation,
                "max_recreation": result.metrics.max_recreation,
                "materialized_versions": result.metrics.num_materialized,
            },
            "plan": result.plan.to_dict(),
        }

    def _solve(
        self,
        *,
        problem: int,
        threshold: float | None,
        threshold_factor: float | None,
        hop_limit: int,
        algorithm: str,
        use_workload: bool = False,
        half_life: float | None = None,
    ) -> tuple[dict[VersionID, float], float | None, Any]:
        """The one planner behind :meth:`plan` and :meth:`repack`.

        Measures the cost model from live payloads (a full scan) under
        *shared* access, so checkouts keep being served while commits wait,
        then solves outside the coordinator.  With ``use_workload`` the
        versions are weighted by the workload log's access frequencies
        (decayed at ``half_life`` when set); an empty log, like
        ``use_workload=False``, means a uniform workload.  Returns the
        frequencies, the resolved threshold and the solver's result.
        """
        with self.coordinator.shared():
            if len(self.repository) == 0:
                raise ReproError("cannot plan over an empty repository")
            version_ids = self.repository.graph.version_ids
            if not use_workload:
                frequencies: dict[VersionID, float] = {}
            elif half_life is not None:
                frequencies = self.workload_log.decayed_frequencies(
                    version_ids, half_life=half_life
                )
            else:
                frequencies = self.workload_log.frequencies(version_ids)
            instance = self.repository.problem_instance(
                access_frequencies=frequencies or None, hop_limit=hop_limit
            )
        resolved = default_threshold(
            instance, problem, threshold=threshold, factor=threshold_factor
        )
        result = solve(instance, problem, threshold=resolved, algorithm=algorithm)
        return frequencies, resolved, result

    # ------------------------------------------------------------------ #
    # online repacking
    # ------------------------------------------------------------------ #
    def repack(
        self,
        *,
        problem: int = 3,
        threshold: float | None = None,
        threshold_factor: float | None = None,
        hop_limit: int = 2,
        algorithm: str = "auto",
        use_workload: bool = True,
        half_life: float | None = None,
        dry_run: bool = False,
        gate: Callable[[dict[str, Any]], bool] | None = None,
        mode: str = "manual",
    ) -> dict[str, Any]:
        """Re-optimize the storage plan against observed traffic, online.

        With ``use_workload`` (default) the plan is computed against the
        persisted workload log's access frequencies — the paper's Figure 16
        problems fed with real traffic; ``half_life`` switches to the log's
        decaying view so drifting workloads outweigh all-time popularity;
        an empty log falls back to a uniform workload.  The write-pause /
        epoch scheme:

        1. commits are paused at the write gate for the whole operation
           (checkouts keep being served throughout);
        2. the cost model is measured and the plan solved — under *shared*
           access, never an exclusive lock;
        3. the new encoding is staged next to the old one while readers
           continue against the old epoch (content-addressed keys are
           never overwritten, so this is invisible to them; staging holds
           no coordinator mode);
        4. the exclusive barrier — the only moment reads pause — repoints
           versions, collects dead objects, drops the warm cache and bumps the
           epoch, all priced from the store's cost index: no payload is
           read inside the barrier.  Every checkout is therefore served
           entirely from one epoch and stays byte-identical across the
           swap.

        ``dry_run`` stops after step 2 and reports what the repack *would*
        do.  ``gate`` is judged at the same point with the planning report:
        returning ``False`` abandons the repack before any staging write
        (the adaptive policy's amortization gate plugs in here, so the plan
        is solved once per decision and staging priced once, from the
        ``staging_cost_estimate`` the gate leaves).  Returns a
        JSON-ready report either way; ``"applied"`` records whether the
        store was actually re-encoded.  ``mode`` only labels the decision
        record (``manual`` / ``adaptive``).  The plan knobs and
        ``half_life`` (a positive finite number) are checked before
        anything else, so a malformed one costs no scan.

        In a replica group, only the planner-lease holder may repack (dry
        runs are read-only and stay allowed everywhere); everyone else
        gets :class:`~repro.exceptions.NotLeaseHolderError` (HTTP 409)
        and should retry against the holder named in ``/stats``.
        """
        options = check_plan_options(
            problem=problem,
            threshold=threshold,
            threshold_factor=threshold_factor,
            hop_limit=hop_limit,
            algorithm=algorithm,
            half_life=half_life,
        )
        if not dry_run:
            self.policy.require_lease_holder("repack")
        report = self._repack_locked(
            **options,
            use_workload=use_workload,
            dry_run=dry_run,
            gate=gate,
        )
        self.policy.record_repack(report, mode)
        return report

    def _repack_locked(
        self,
        *,
        problem: int,
        threshold: float | None,
        threshold_factor: float | None,
        hop_limit: int,
        algorithm: str,
        use_workload: bool,
        half_life: float | None,
        dry_run: bool,
        gate: Callable[[dict[str, Any]], bool] | None,
    ) -> dict[str, Any]:
        with self._write_gate:
            # Plan over the freshest state: peer commits adopted here are
            # covered by the plan; ones landing later are carried forward
            # by the catalog's activation transaction.
            self.repository.sync()
            frequencies, resolved, result = self._solve(
                problem=problem,
                threshold=threshold,
                threshold_factor=threshold_factor,
                hop_limit=hop_limit,
                algorithm=algorithm,
                use_workload=use_workload,
                half_life=half_life,
            )
            with self.coordinator.shared():
                expected_before = expected_workload_cost(
                    self.repository, frequencies or None
                )
            report: dict[str, Any] = {
                "problem": int(problem),
                "algorithm": result.algorithm,
                "threshold": resolved,
                "workload_aware": bool(frequencies),
                "half_life": half_life,
                "dry_run": bool(dry_run),
                "plan_metrics": {
                    "storage_cost": result.metrics.storage_cost,
                    "sum_recreation": result.metrics.sum_recreation,
                    "max_recreation": result.metrics.max_recreation,
                    "weighted_recreation": result.metrics.weighted_recreation,
                    "materialized_versions": result.metrics.num_materialized,
                },
                "expected_cost_before": expected_before,
            }
            if dry_run:
                report["epoch"] = self.repacker.epoch
                report["applied"] = False
                return report
            if gate is not None and not gate(report):
                report["epoch"] = self.repacker.epoch
                report["applied"] = False
                return report

            self.policy.price_staging(report)
            with self.repacker.lock:
                # Phase 1 — stage the new encoding under the lease fence;
                # readers keep serving.
                staged = self.repacker.rebuild(result.plan, fence=self.policy.fence())
                # Phase 2 — the exclusive barrier: the only window in which
                # reads pause, and it contains no payload access at all.
                try:
                    with self.coordinator.exclusive():
                        # The swap also drops the warm cache (payloads
                        # keyed by dead-epoch object ids) — the repository's
                        # engine is this service's — inside the same
                        # exclusive window.
                        swap_report = self.repacker.swap(staged)
                        if self._on_commit is not None:
                            # The swap repointed every version and collected
                            # the old objects; persist the new mapping
                            # immediately — a crash must not leave a state
                            # file naming them.
                            self._on_commit(self.repository)
                except SnapshotConflictError as error:
                    # A peer process activated its own epoch first.  The
                    # staging was marked failed (prunable); this store is
                    # already repacked — by the peer — so report the race
                    # instead of raising through the request.
                    report["epoch"] = self.repacker.epoch
                    report["applied"] = False
                    report["conflict"] = str(error)
                    return report
                except LeaseFencedError as error:
                    # This planner's lease was stolen between staging and
                    # swap (it was paused past its TTL): the activation
                    # was fenced by the token check and the staging marked
                    # failed.  The new holder owns planning now — report,
                    # do not raise through the request.
                    report["epoch"] = self.repacker.epoch
                    report["applied"] = False
                    report["fenced"] = str(error)
                    self.policy.note_fenced(error)
                    return report
                # Priced outside the barrier: totalling storage enumerates
                # backend keys and may read index-unseen orphans — reads
                # are flowing again by now, commits still wait at the gate.
                swap_report["storage_after"] = self.repository.total_storage_cost()
                expected_after = expected_workload_cost(
                    self.repository, frequencies or None
                )
            report.update(swap_report)
            report["epoch"] = self.repacker.epoch
            report["expected_cost_after"] = expected_after
            report["applied"] = True
            self.policy.note_staged(report, staged)
        return report

    def prune_epochs(self) -> dict[str, float]:
        """Garbage-collect dead/failed epochs (catalog-backed stores only).

        Dead epochs keep their version→object mapping after a swap so
        readers and peers still on them keep their objects; this drops
        every non-active snapshot row and sweeps store objects no retained
        mapping reaches (crashed stagings included).  Runs under the write
        gate and the exclusive barrier — commits wait, reads pause briefly.
        In a multi-process deployment, prune from one process while peers
        are not writing (see the sharing rules in docs/serving.md).
        Returns ``{"pruned_snapshots": 0.0, "removed_objects": 0.0}`` when
        the repository has no catalog.

        In a replica group only the planner-lease holder may prune: a
        non-holder's sweep races the holder's in-flight staging (objects
        written but not yet mapped look unreferenced) — that footgun is a
        409 now, not a silent data-loss window.
        """
        self.policy.require_lease_holder("prune")
        with self._write_gate:
            with self.coordinator.exclusive():
                return self.repacker.prune_dead_epochs()

    def close(self, timeout: float = 60.0) -> bool:
        """Quiesce the service: stand the auto-repack policy down, wait for
        in-flight repacks to finish, close the log sink.

        Idempotent.  Returns ``True`` when the service quiesced within
        ``timeout`` — only then may a shutdown path persist the repository
        state: serializing it while a background swap is repointing
        versions could persist a mapping whose objects the swap's GC then
        deletes.  A ``False`` return means some repack was still running;
        its own ``on_commit`` persists consistent state when it completes.
        """
        deadline = time.monotonic() + timeout
        self.policy.stop(deadline)
        # Every repack — operator-triggered included — holds the write
        # gate for its whole duration, so passing through it establishes
        # that no swap is mid-flight when the caller persists state.
        quiesced = self._write_gate.acquire(
            timeout=max(0.0, deadline - time.monotonic())
        )
        if quiesced:
            self._write_gate.release()
        if self.log_sink is not None:
            self.log_sink.close()
        return quiesced
