"""A long-lived version-store service around a :class:`Repository`.

The paper's storage/recreation tradeoff only pays off when recreation work
is amortized across many checkout requests — which requires a process that
*stays alive* between requests instead of the one-shot CLI.  This module is
that process's core, independent of any transport:

* a persistent warm :class:`~repro.storage.batch.BatchMaterializer` cache
  shared across *all* requests, so a hot version's chain is replayed once
  and then served from memory;
* **per-chain parallelism** — checkouts of independent delta chains
  materialize concurrently.  A striped lock manager keyed by each chain's
  root object serializes work *within* one chain (so concurrent requests
  cooperate through the warm cache instead of duplicating a replay) while
  an epoch read/write coordinator lets any number of reads run together
  and reserves a brief exclusive barrier for structural mutations: commits
  and the repack swap.  There is no global serving lock;
* request coalescing — concurrent checkouts of the same version share one
  chain replay: the first request becomes the leader and replays the chain,
  every concurrent duplicate waits and receives the very same payload;
* aggregate serving statistics (`deltas_applied` vs the
  ``naive_delta_applications`` a cold sequential server would have paid)
  so the amortization the batch engine promises is observable in
  production, not only in benchmarks;
* a persistent :class:`~repro.storage.workload_log.WorkloadLog` of
  per-version access frequencies (raw and half-life-decayed views) that
  survives restarts and feeds the workload-aware optimizers (Figure 16)
  with *real* traffic;
* an operator-triggered **online repack** (:meth:`VersionStoreService.repack`)
  that re-optimizes the storage plan against the logged workload.  The
  expensive parts run while checkouts keep flowing: the cost model is
  measured under *shared* access, and staging writes only brand-new
  content-addressed keys, so it runs concurrently with readers outside
  the coordinator entirely (raw ``/objects`` writers are the operator's
  responsibility during a repack).  Only the swap takes the exclusive
  barrier, and the swap prices everything from the store's incremental
  cost index, so the write pause is the swap window alone;
* an optional **auto-repack policy** (``repack_budget``): when the
  index-priced ``expected_recreation_cost`` per request drifts above the
  budget, a background repack is triggered automatically — the first step
  toward a self-optimizing store;
* a **warm cost model**: the same per-chain ``ChainStats`` that price
  repacks are combined with the live cache contents, so
  ``stats()['workload']['expected_recreation_cost']['warm']`` reports the
  Σf·Φ each request will *actually* pay right now, and the serving
  cache evicts by that marginal-cost metric instead of raw LRU;
* an **adaptive repack controller** (``adaptive_repack=True``) replacing
  the fixed budget: hysteresis band around a learned baseline, decayed
  workload trend, and an amortization horizon — the store repacks itself
  exactly when a repack pays for itself, and stands down otherwise.

The HTTP transport lives in :mod:`repro.server.httpd`; this class is also
usable directly in-process (the serving benchmark does exactly that).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from ..core.problems import default_threshold, solve
from ..core.version import VersionID
from ..exceptions import (
    LeaseFencedError,
    NotLeaseHolderError,
    ReproError,
    SnapshotConflictError,
)
from ..storage.lease import PlannerLease
from ..obs import DecisionLog, JsonLogSink, MetricsRegistry, Trace
from ..obs.metrics import default_registry_from_env, log_once
from ..obs.trace import NULL_TRACE
from ..storage.batch import BatchMaterializer, BatchResult
from ..storage.concurrency import EpochCoordinator, StripedLockManager
from ..storage.repack import (
    AdaptiveRepackController,
    OnlineRepacker,
    StagingCostCalibration,
    estimate_repack_cost,
    expected_workload_cost,
    expected_workload_costs,
)
from ..storage.repository import Repository
from ..storage.workload_log import WorkloadLog

__all__ = ["VersionStoreService", "CheckoutResponse", "ServiceStats"]


def default_worker_count() -> int:
    """Worker-pool size when the operator does not pass one: the cores
    this process may run on (a pinned server cannot use the others)."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class CheckoutResponse:
    """One served checkout: the payload plus what producing it cost.

    ``coalesced`` is true when this request did not replay anything itself
    but shared the leader's materialization of the same version.
    """

    version_id: VersionID
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
    auto_repacks: int = 0
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
            "auto_repacks": self.auto_repacks,
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
    warm cache sized by ``cache_size``, worker pool, stripe locks, optional
    spill tier — and installs it as ``repository.materializer``: served
    checkouts, a commit's parent read, the repack swap's cache drop and
    ``sync()``'s epoch drop all act on that one cache.

    **Concurrency model.**  Reads (checkouts, batches, stats, planning,
    the repack's measurement and staging phases) hold the
    :class:`~repro.storage.concurrency.EpochCoordinator` in shared mode and
    run in parallel; structural mutations — commits, the repack swap, raw
    backend writes from the ``/objects`` transport — take its brief
    exclusive barrier.  Within shared mode, each materialization holds the
    striped lock of its chain's **subtree stripe key** (``lock_stripes``
    stripes) — the node below the deepest fork point, which degenerates to
    the chain root on linear histories — so independent chains *and
    disjoint subtrees of one fork-heavy root* replay concurrently while
    same-subtree requests serialize into the warm cache.  Replay runs on
    the thread that asked for it; ``max_workers`` (default: the cores this
    process may run on) additionally fans the independent root trees of one
    ``checkout_many`` batch out across worker threads.  Setting
    ``lock_stripes=1`` with ``max_workers=1`` reproduces the old
    single-lock server — the benchmark's baseline.

    ``on_commit`` is called after every successful commit — and after the
    swap phase of an online :meth:`repack` — while the exclusive barrier is
    still held, so the persisted state can never race a concurrent commit,
    but slow callbacks stall requests for their duration; the CLI uses it
    to persist the repository state file.

    ``repack_budget`` arms the auto-repack policy: every
    ``auto_repack_interval`` checkouts the service prices the logged
    workload against the current encoding via the store's cost index, and
    when the expected recreation cost per request exceeds the budget it
    triggers a workload-aware repack on a background thread.  If even the
    fresh epoch cannot meet the budget, the policy stands down until the
    next commit changes the store.

    ``adaptive_repack`` replaces that fixed budget with an
    :class:`~repro.storage.repack.AdaptiveRepackController`: evaluations
    (same ``auto_repack_interval`` cadence, on a background thread) price
    the *warm decayed* expected cost — what requests actually pay given
    the live cache, weighted toward recent traffic — against a baseline
    the controller learns from its own repacks, with a hysteresis band
    against thrash and an amortization gate (``repack_horizon`` requests)
    against repacks that cost more than they save.  The two policies are
    mutually exclusive.  :meth:`adaptive_repack_cycle` runs one evaluation
    synchronously (the ``POST /repack {"adaptive": true}`` surface).
    """

    def __init__(
        self,
        repository: Repository,
        *,
        cache_size: int = 256,
        on_commit: Callable[[Repository], None] | None = None,
        workload_log: WorkloadLog | None = None,
        max_workers: int | None = None,
        lock_stripes: int = 64,
        repack_budget: float | None = None,
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
        if adaptive_repack and repack_budget is not None:
            raise ValueError(
                "adaptive_repack replaces repack_budget; arm one policy, not both"
            )
        if replica_id is not None and getattr(repository, "catalog", None) is None:
            raise ValueError(
                "replica groups need a shared metadata catalog: serve the "
                "store over a sqlite:// backend to use --join"
            )
        self.repository = repository
        self.max_workers = (
            max(1, int(max_workers)) if max_workers else default_worker_count()
        )
        self.chain_locks = StripedLockManager(lock_stripes)
        self.materializer = BatchMaterializer(
            repository.store,
            repository.encoder,
            cache_size=cache_size,
            max_workers=self.max_workers,
            lock_manager=self.chain_locks,
            spill_dir=cache_tier_dir,
            spill_bytes=cache_tier_bytes,
        )
        repository.materializer.close()
        repository.materializer = self.materializer
        self.stats_counters = ServiceStats()
        self._on_commit = on_commit
        # Every served checkout is folded into the workload log; with a
        # file-backed log (the CLI passes one inside the repository) the
        # observed frequencies survive restarts and drive `repack`.  A
        # catalog-backed repository defaults to the catalog's shared
        # counters, so several serving processes fold into one record.
        if workload_log is not None:
            self.workload_log = workload_log
        elif getattr(repository, "catalog", None) is not None:
            from ..storage.catalog import CatalogWorkloadLog

            self.workload_log = CatalogWorkloadLog(repository.catalog)
        else:
            self.workload_log = WorkloadLog()
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
        # Auto-repack policy state (all guarded by _state_lock).
        self.repack_budget = repack_budget
        self.auto_repack_interval = max(1, int(auto_repack_interval))
        self.repack_horizon = float(repack_horizon)
        # _adaptive_armed gates the *background* policy: a controller
        # created lazily by an operator's synchronous cycle must not start
        # firing repacks from the request path (nor displace a configured
        # fixed-budget policy) — only the constructor flag arms that.
        self._adaptive_armed = bool(adaptive_repack)
        self.controller = (
            AdaptiveRepackController(horizon=self.repack_horizon)
            if adaptive_repack
            else None
        )
        self._auto_last_check = 0
        self._auto_repack_running = False
        self._auto_repack_suppressed = False
        self._auto_repack_error: str | None = None
        # A catalog remembers the controller's learned baseline across
        # restarts: what the store's cost structure looks like is a
        # property of the store, not of one process lifetime.
        if self.controller is not None:
            self._restore_controller_state()
        # The staging-cost calibration learns the ratio between what
        # `estimate_repack_cost` predicts and what staging actually paid.
        # Like the controller baseline it is a property of the store, so a
        # catalog-backed repository restores the learned scale on open.
        self.staging_calibration = StagingCostCalibration()
        self._restore_staging_calibration()
        # Observability: a metrics registry (REPRO_METRICS=off selects the
        # no-op null registry), an optional JSON-lines event sink, and a
        # decision log that writes through to the catalog when one exists
        # so the repack audit trail survives restarts.
        self.metrics = metrics if metrics is not None else default_registry_from_env()
        self.log_sink = log_sink
        self.decision_log = DecisionLog(
            capacity=256, catalog=getattr(repository, "catalog", None)
        )
        # Replica-group mode: this replica competes for the repack-planner
        # lease.  Only the holder's policy evaluates/stages; every replica
        # still adopts finished swaps through sync().  The lease's renewal
        # thread starts here and is stopped (with a voluntary release, so
        # peers take over immediately) by close().
        self.replica_id = replica_id
        self.lease: PlannerLease | None = None
        if replica_id is not None:
            self.lease = PlannerLease(
                repository.catalog,
                replica_id,
                ttl=lease_ttl,
                renew_interval=lease_renew,
                on_event=self._record_lease_event,
            )
        self._bind_metrics()
        if self.lease is not None:
            self.lease.try_acquire()
            self.lease.start()

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
        self._m_decisions = registry.counter(
            "repro_repack_decisions_total",
            "Adaptive-controller evaluate outcomes, by verdict.",
            ("verdict",),
        )
        self._m_repacks = registry.counter(
            "repro_repacks_total",
            "Applied online repacks, by what initiated them.",
            ("mode",),
        )
        self._m_service_errors = registry.counter(
            "repro_backend_errors_total",
            "Backend read/write errors (misses excluded) by scheme.",
            ("scheme",),
        ).labels("service")
        staging = registry.counter(
            "repro_repack_staging_phi_total",
            "Repack staging cost in recreation-cost units, estimated vs measured.",
            ("kind",),
        )
        self._m_staging_estimated = staging.labels("estimated")
        self._m_staging_measured = staging.labels("measured")
        self._m_staging_seconds = registry.counter(
            "repro_repack_staging_seconds_total",
            "Wall-clock seconds spent staging repacks.",
        )
        self._m_lease_events = registry.counter(
            "repro_lease_events_total",
            "Planner-lease transitions observed by this replica, by event.",
            ("event",),
        )
        if not self._metrics_on:
            return
        staging_scale = registry.gauge(
            "repro_repack_staging_scale",
            "Calibrated scale applied to repack staging-cost estimates.",
        )
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
        lease_holder_gauge = registry.gauge(
            "repro_lease_holder",
            "1 when this replica holds the repack-planner lease, else 0.",
        )

        def collect(_registry: MetricsRegistry) -> None:
            epoch_gauge.set(self.repacker.epoch)
            versions_gauge.set(len(self.repository))
            objects_gauge.set(len(self.repository.store))
            workload_gauge.set(self.workload_log.total_accesses)
            staging_scale.set(self.staging_calibration.scale)
            rate = self.repository.store.seconds_per_phi()
            phi_rate.set(rate if rate is not None else 0.0)
            lease_holder_gauge.set(
                1.0 if self.lease is not None and self.lease.is_holder else 0.0
            )

        registry.register_collector(collect)

    def _restore_controller_state(self) -> None:
        catalog = getattr(self.repository, "catalog", None)
        if catalog is None or self.controller is None:
            return
        saved = catalog.load_controller_state()
        if saved:
            self.controller.load_state(saved)

    def _persist_controller_state(self) -> None:
        catalog = getattr(self.repository, "catalog", None)
        if catalog is None or self.controller is None:
            return
        try:
            catalog.save_controller_state(self.controller.state_dict())
        except Exception as error:  # pragma: no cover - persistence best-effort
            self._note_policy_error("controller_persist", error)

    def _restore_staging_calibration(self) -> None:
        catalog = getattr(self.repository, "catalog", None)
        if catalog is None:
            return
        saved = catalog.load_staging_calibration()
        if saved:
            self.staging_calibration.load_state(saved)

    def _persist_staging_calibration(self) -> None:
        catalog = getattr(self.repository, "catalog", None)
        if catalog is None:
            return
        try:
            catalog.save_staging_calibration(self.staging_calibration.state_dict())
        except Exception as error:  # pragma: no cover - persistence best-effort
            self._note_policy_error("calibration_persist", error)

    def _note_policy_error(self, site: str, error: BaseException) -> None:
        """Record a background-policy failure without losing it.

        Previously these handlers only stashed the message in
        ``_auto_repack_error`` (visible only to a stats caller who thought
        to look); now every one also logs once per site and counts on the
        shared backend-error counter so dashboards see the failure.
        """
        log_once(
            f"service:{site}",
            "service background task %s failed (%s: %s)",
            site,
            type(error).__name__,
            error,
        )
        self._m_service_errors.inc()
        with self._state_lock:
            self._auto_repack_error = f"{type(error).__name__}: {error}"

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
                if branch is not None:
                    if branch not in self.repository.branches:
                        self.repository.branch(branch)
                    self.repository.switch(branch)
                version_id = self.repository.commit(
                    payload,
                    parents=tuple(parents) if parents is not None else None,
                    message=message,
                )
                if self._on_commit is not None:
                    self._on_commit(self.repository)
                with self._state_lock:
                    self.stats_counters.commits += 1
                    # The store changed shape: give the auto-repack policy
                    # another shot even if the last epoch missed the budget.
                    self._auto_repack_suppressed = False
                if self.controller is not None:
                    self.controller.note_commit()
                    self._persist_controller_state()
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
            self._maybe_auto_repack()
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
        self._maybe_auto_repack()
        return response

    def checkout_many(
        self, version_ids: Sequence[VersionID], *, trace: Trace | None = None
    ) -> BatchResult:
        """Serve a whole batch through the warm cache (union-tree replay).

        Independent union trees of the batch replay in parallel on the
        materializer's worker pool (``max_workers``); each tree holds its
        chain's stripe lock, so concurrent batches and single checkouts on
        the same chain cooperate instead of racing.
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
        self._maybe_auto_repack()
        return result

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Serving counters plus a snapshot of the repository behind them.

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
                auto_error = self._auto_repack_error
            repository = {
                "versions": len(self.repository),
                "branches": dict(self.repository.branches),
                "current_branch": self.repository.current_branch,
                "objects": len(self.repository.store),
                "storage_cost": self.repository.total_storage_cost(),
                "backend": self.repository.store.backend.spec(),
            }
            version_ids = self.repository.graph.version_ids
            workload = self.workload_log.snapshot()
            frequencies = self.workload_log.frequencies(version_ids)
            decayed = self.workload_log.decayed_frequencies(version_ids)
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
                "budget": self.repack_budget,
                "horizon": self.repack_horizon,
                "auto_repacks": serving["auto_repacks"],
                "auto_repack_error": auto_error,
                "controller": (
                    dict(
                        self.controller.snapshot(),
                        staging_calibration=self.staging_calibration.snapshot(),
                    )
                    if self.controller is not None
                    else None
                ),
                "staging_calibration": self.staging_calibration.snapshot(),
                "measured_cost_model": self.repository.store.measured_cost_model(),
                "decisions": self.decision_log.tail(20),
                "decision_seq": self.decision_log.last_seq,
                "lease": self.lease.state() if self.lease is not None else None,
            }
            concurrency = {
                "max_workers": self.max_workers,
                "lock_stripes": self.chain_locks.num_stripes,
                "exclusive_epochs": self.coordinator.exclusive_epochs,
            }
        return {
            "serving": serving,
            "repository": repository,
            "workload": workload,
            "repack": repack,
            "concurrency": concurrency,
            # The same registry `GET /metrics` scrapes, as JSON: quantile
            # estimates for the histograms, raw values for the rest.
            "metrics": self.metrics.snapshot(),
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

        Measures the cost model from live payloads (an expensive full scan —
        intended for operators, not the request hot path) under *shared*
        access, so checkouts keep being served throughout; commits wait for
        the duration.  The plan is *not* applied; use :meth:`repack` to
        apply one online.
        """
        if len(self.repository) == 0:
            raise ReproError("cannot plan over an empty repository")
        with self.coordinator.shared():
            instance = self.repository.problem_instance(hop_limit=hop_limit)
        resolved = default_threshold(
            instance, problem, threshold=threshold, factor=threshold_factor
        )
        result = solve(instance, problem, threshold=resolved, algorithm=algorithm)
        return {
            "problem": int(problem),
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
           no coordinator mode — do not mix raw ``/objects`` deletes with
           a running repack);
        4. the exclusive barrier — the only moment reads pause — repoints
           versions, collects dead objects, drops the warm cache and bumps the
           epoch, all priced from the store's cost index: no payload is
           read inside the barrier.  Every checkout is therefore served
           entirely from one epoch and stays byte-identical across the
           swap.

        ``dry_run`` stops after step 2 and reports what the repack *would*
        do.  ``gate`` is judged at the same point with the planning report:
        returning ``False`` abandons the repack before any staging write
        (the adaptive controller's amortization gate plugs in here, so the
        expensive plan is solved exactly once per decision).  Returns a
        JSON-ready report either way; ``"applied"`` records whether the
        store was actually re-encoded.  ``mode`` only labels the decision
        record (``manual`` / ``budget`` / ``adaptive``).

        In a replica group, only the planner-lease holder may repack (dry
        runs are read-only and stay allowed everywhere); everyone else
        gets :class:`~repro.exceptions.NotLeaseHolderError` (HTTP 409)
        and should retry against the holder named in ``/stats``.
        """
        if not dry_run:
            self._require_lease_holder("repack")
        report = self._repack_locked(
            problem=problem,
            threshold=threshold,
            threshold_factor=threshold_factor,
            hop_limit=hop_limit,
            algorithm=algorithm,
            use_workload=use_workload,
            half_life=half_life,
            dry_run=dry_run,
            gate=gate,
        )
        self._record_repack_decision(report, mode)
        return report

    def _record_repack_decision(self, report: dict[str, Any], mode: str) -> None:
        """Fold one repack outcome into the decision log, metrics and sink."""
        applied = bool(report.get("applied"))
        record: dict[str, Any] = {
            "event": "repack",
            "ts": round(time.time(), 3),
            "mode": mode,
            "applied": applied,
            "dry_run": bool(report.get("dry_run")),
            "workload_aware": bool(report.get("workload_aware")),
            "epoch": report.get("epoch"),
            "expected_cost_before": (report.get("expected_cost_before") or {}).get(
                "per_request"
            ),
            "expected_cost_after": (report.get("expected_cost_after") or {}).get(
                "per_request"
            ),
        }
        for key in (
            "staging_cost_estimate",
            "staging_cost_calibrated",
            "staging_cost_paid",
            "staging_seconds",
            "staging_scale",
        ):
            if key in report:
                record[key] = report[key]
        if "conflict" in report:
            record["conflict"] = report["conflict"]
        if "fenced" in report:
            record["fenced"] = report["fenced"]
        self.decision_log.append(record)
        if applied:
            self._m_repacks.labels(mode).inc()
        self._emit_decision(record)

    def _emit_decision(self, record: dict[str, Any]) -> None:
        if self.log_sink is None:
            return
        fields = {k: v for k, v in record.items() if k != "event"}
        self.log_sink.emit(str(record.get("event", "decision")), **fields)

    def _record_lease_event(self, event: dict[str, Any]) -> None:
        """Fold one lease transition into the decision log, metrics, sink.

        Renewals and rejections fire every renew interval from every
        replica; they stay in the in-memory decision ring (visible in
        ``/stats``) but skip the catalog write-through — persisting one
        row per second per replica would flush the bounded repack audit
        trail out of its retention window.  Holder *changes* (acquired /
        stolen / lost / released) and fencings are the audit trail, so
        those persist.
        """
        kind = str(event.get("event", "lease"))
        record = {
            "event": f"lease_{kind}",
            "ts": round(time.time(), 3),
            "role": event.get("role"),
            "holder": event.get("holder"),
            "token": event.get("token"),
            "replica_id": self.replica_id,
        }
        if "stolen_from" in event:
            record["stolen_from"] = event["stolen_from"]
        if "detail" in event:
            record["detail"] = event["detail"]
        persist = kind not in ("renewed", "rejected")
        self.decision_log.append(record, persist=persist)
        self._m_lease_events.labels(kind).inc()
        if persist:
            self._emit_decision(record)

    def _require_lease_holder(self, operation: str) -> None:
        """Planner-only operations 409 on replicas without the lease.

        Repack planning and pruning mutate shared store state that every
        replica serves from; in a replica group exactly one process — the
        lease holder — may run them.  Prune especially: a non-holder's
        sweep could collect objects the holder's in-flight staging already
        wrote but has not mapped yet.
        """
        if self.lease is None or self.lease.is_holder:
            return
        state = self.lease.state()
        raise NotLeaseHolderError(
            f"replica {self.replica_id!r} does not hold the "
            f"{self.lease.role!r} lease (held by {state['holder']!r}); "
            f"{operation} must run on the lease holder"
        )

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
            with self.coordinator.shared():
                if len(self.repository) == 0:
                    raise ReproError("cannot repack an empty repository")
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
                expected_before = expected_workload_cost(
                    self.repository, frequencies or None
                )
            resolved = default_threshold(
                instance, problem, threshold=threshold, factor=threshold_factor
            )
            result = solve(instance, problem, threshold=resolved, algorithm=algorithm)
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

            # Price staging before paying for it, so the calibration below
            # can compare prediction to reality.  Index-only walk.
            with self.coordinator.shared():
                staging_estimate = estimate_repack_cost(self.repository)
            report["staging_cost_estimate"] = staging_estimate
            report["staging_cost_calibrated"] = self.staging_calibration.calibrated(
                staging_estimate
            )

            with self.repacker.lock:
                # Phase 1 — stage the new encoding; readers keep serving.
                # The lease fence is captured *now*, at staging start: if
                # the lease changes hands before the swap (this planner
                # paused past its TTL), the activation transaction rejects
                # the stale token and the zombie epoch never goes live.
                fence = self.lease.fence() if self.lease is not None else None
                staged = self.repacker.rebuild(result.plan, fence=fence)
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
                    if self.lease is not None:
                        self._record_lease_event(
                            {
                                "event": "fenced",
                                "role": self.lease.role,
                                "holder": self.replica_id,
                                "token": self.lease.token,
                                "detail": str(error),
                            }
                        )
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
            # Close the loop: fold what staging actually paid back into the
            # calibration so the next estimate lands closer to reality.
            self.staging_calibration.observe(
                staging_estimate,
                staged.staging_cost_paid,
                seconds=staged.staging_seconds,
            )
            report["staging_scale"] = self.staging_calibration.scale
            self._m_staging_estimated.inc(staging_estimate)
            self._m_staging_measured.inc(staged.staging_cost_paid)
            self._m_staging_seconds.inc(staged.staging_seconds)
            self._persist_staging_calibration()
        return report

    def prune_epochs(self) -> dict[str, float]:
        """Garbage-collect dead/failed epochs (catalog-backed stores only).

        Dead epochs keep their version→object mapping after a swap so
        point-in-time reads stay possible; this drops every non-active
        snapshot row and sweeps store objects no retained mapping reaches
        (crashed stagings included).  Runs under the write gate and the
        exclusive barrier — commits wait, reads pause briefly.  In a
        multi-process deployment, prune from one process while peers are
        not writing (see the sharing rules in docs/serving.md).  Returns
        ``{"pruned_snapshots": 0.0, "removed_objects": 0.0}`` when the
        repository has no catalog.

        In a replica group only the planner-lease holder may prune: a
        non-holder's sweep races the holder's in-flight staging (objects
        written but not yet mapped look unreferenced) — that footgun is a
        409 now, not a silent data-loss window.
        """
        self._require_lease_holder("prune")
        with self._write_gate:
            with self.coordinator.exclusive():
                return self.repacker.prune_dead_epochs()

    def close(self, timeout: float = 60.0) -> bool:
        """Quiesce the service: stand the auto-repack policy down, wait for
        in-flight repacks to finish, release the worker pool.

        Idempotent.  Returns ``True`` when the service quiesced within
        ``timeout`` — only then may a shutdown path persist the repository
        state: serializing it while a background swap is repointing
        versions could persist a mapping whose objects the swap's GC then
        deletes.  A ``False`` return means some repack was still running;
        its own ``on_commit`` persists consistent state when it completes.
        """
        with self._state_lock:
            self._auto_repack_suppressed = True
        # Release the planner lease first: a clean shutdown should hand
        # planning to a peer immediately instead of making the group wait
        # a TTL for the dead holder to expire.
        if self.lease is not None:
            self.lease.stop(release=True)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._state_lock:
                if not self._auto_repack_running:
                    break
            time.sleep(0.05)
        # Every repack — operator-triggered included — holds the write
        # gate for its whole duration, so passing through it establishes
        # that no swap is mid-flight when the caller persists state.
        quiesced = self._write_gate.acquire(
            timeout=max(0.0, deadline - time.monotonic())
        )
        if quiesced:
            self._write_gate.release()
        self.materializer.close()
        if self.log_sink is not None:
            self.log_sink.close()
        return quiesced

    # ------------------------------------------------------------------ #
    # adaptive repack controller
    # ------------------------------------------------------------------ #
    def adaptive_repack_cycle(self, **plan_options: Any) -> dict[str, Any]:
        """Run one adaptive-controller evaluation cycle, synchronously.

        Prices the warm decayed expected cost, feeds it to the controller,
        and — when the controller triggers — solves a workload-aware plan
        whose application is gated on the amortization check, all on the
        calling thread.  ``plan_options`` (``problem``, ``threshold``,
        ``threshold_factor``, ``hop_limit``, ``algorithm``) are forwarded
        to :meth:`repack` when a plan is solved.  This is the
        deterministic surface behind ``POST /repack {"adaptive": true}``
        and the convergence tests; the background policy runs exactly the
        same cycle with default options.  A controller is created on first
        use when the service was not started with ``adaptive_repack=True``,
        so an operator can drive the policy manually against any running
        server.  In a replica group only the planner-lease holder may run
        a cycle; other replicas raise
        :class:`~repro.exceptions.NotLeaseHolderError`.
        """
        self._require_lease_holder("adaptive repack cycle")
        with self._state_lock:
            if self.controller is None:
                self.controller = AdaptiveRepackController(
                    horizon=self.repack_horizon
                )
                self._restore_controller_state()
            if self._auto_repack_running:
                return {
                    "adaptive": True,
                    "fired": False,
                    "reason": "an auto repack is already running",
                    "controller": self.controller.snapshot(),
                }
            self._auto_repack_running = True
        try:
            return self._adaptive_cycle(**plan_options)
        finally:
            with self._state_lock:
                self._auto_repack_running = False

    def _adaptive_cycle(self, **plan_options: Any) -> dict[str, Any]:
        """One evaluate → (maybe plan) → (maybe repack) controller pass.

        Every cycle — fired, gate-vetoed or stood down — leaves one
        structured record in the decision log (persisted via the catalog
        when the store has one) and bumps the per-verdict decision counter.
        """
        report = self._adaptive_cycle_inner(**plan_options)
        self._record_adaptive_decision(report)
        return report

    def _record_adaptive_decision(self, report: dict[str, Any]) -> None:
        controller_snapshot = report.get("controller") or {}
        fired = bool(report.get("fired"))
        if fired:
            verdict = "fired"
        elif "projected_cost_per_request" in report:
            # The controller triggered and a plan was solved, but the
            # amortization gate (or a swap conflict) kept it from applying.
            verdict = "vetoed"
        else:
            verdict = "held"
        record: dict[str, Any] = {
            "event": "adaptive_evaluate",
            "ts": round(time.time(), 3),
            "verdict": verdict,
            "fired": fired,
            "reason": report.get("reason"),
            "state": controller_snapshot.get("state"),
            "baseline_per_request": controller_snapshot.get("baseline_per_request"),
            "epoch": self.repacker.epoch,
            "observations": report.get("observations"),
            "cost_per_request": report.get("evaluated_cost_per_request"),
            "projected_cost_per_request": report.get("projected_cost_per_request"),
            "staging_cost_estimate": report.get("staging_cost_estimate"),
            "staging_cost_calibrated": report.get("staging_cost_calibrated"),
            "staging_scale": self.staging_calibration.scale,
        }
        self.decision_log.append(record)
        self._m_decisions.labels(verdict).inc()
        self._emit_decision(record)

    def _adaptive_cycle_inner(self, **plan_options: Any) -> dict[str, Any]:
        controller = self.controller
        assert controller is not None
        with self.coordinator.shared():
            if len(self.repository) == 0:
                return {
                    "adaptive": True,
                    "fired": False,
                    "reason": "empty repository",
                    "controller": controller.snapshot(),
                }
            version_ids = self.repository.graph.version_ids
            frequencies = self.workload_log.decayed_frequencies(version_ids)
            priced = expected_workload_cost(
                self.repository, frequencies or None, materializer=self.materializer
            )
            observations = self.workload_log.total_accesses
        current = priced["warm"]["per_request"]
        report: dict[str, Any] = {
            "adaptive": True,
            "fired": False,
            "evaluated_cost_per_request": current,
            "observations": observations,
        }
        if not controller.observe(
            current, observations=observations, frequencies=frequencies
        ):
            report["reason"] = controller.last_reason
            report["controller"] = controller.snapshot()
            self._persist_controller_state()
            return report

        weight = priced["weight"] or float(len(version_ids))

        def gate(plan_report: dict[str, Any]) -> bool:
            metrics = plan_report["plan_metrics"]
            if plan_report["workload_aware"]:
                projected = metrics["weighted_recreation"] / weight
            else:
                projected = metrics["sum_recreation"] / max(1, len(version_ids))
            with self.coordinator.shared():
                staging_cost = estimate_repack_cost(self.repository)
            calibrated = self.staging_calibration.calibrated(staging_cost)
            report["projected_cost_per_request"] = projected
            report["staging_cost_estimate"] = staging_cost
            report["staging_cost_calibrated"] = calibrated
            return controller.approve(
                current, projected, calibrated, frequencies=frequencies
            )

        plan_report = self.repack(
            use_workload=True,
            half_life=self.workload_log.half_life,
            gate=gate,
            mode="adaptive",
            **plan_options,
        )
        fired = bool(plan_report.get("applied"))
        if fired:
            after = plan_report.get("expected_cost_after", {}).get(
                "per_request", current
            )
            controller.note_repack(after, frequencies=frequencies)
            with self._state_lock:
                self.stats_counters.auto_repacks += 1
        report["fired"] = fired
        report["reason"] = controller.last_reason
        report["repack"] = plan_report
        report["controller"] = controller.snapshot()
        self._persist_controller_state()
        return report

    def _adaptive_repack_worker(self) -> None:
        try:
            self._adaptive_cycle()
            with self._state_lock:
                self._auto_repack_error = None
        except Exception as error:  # pragma: no cover - defensive
            self._note_policy_error("adaptive_worker", error)
        finally:
            with self._state_lock:
                self._auto_repack_running = False

    # ------------------------------------------------------------------ #
    # auto-repack policy
    # ------------------------------------------------------------------ #
    def _maybe_auto_repack(self) -> None:
        """Trigger a background repack when the armed policy says so.

        Called at the end of every served request, outside all locks, and
        rate-limited to once every ``auto_repack_interval`` requests.  With
        a fixed ``repack_budget`` the check prices the logged workload from
        the cost index inline; with the adaptive controller the whole
        evaluation (it may solve a plan) runs on a background thread.  A
        failing policy check must never fail the request that triggered it
        (the checkout already succeeded), so every error is swallowed into
        the stats instead of raised.
        """
        if self.repack_budget is None and not self._adaptive_armed:
            return
        # Replica groups: the background policy runs only on the lease
        # holder.  Non-holders keep serving (and keep folding traffic into
        # the shared workload log, which the holder plans against).
        if self.lease is not None and not self.lease.is_holder:
            return
        try:
            with self._state_lock:
                total = self.stats_counters.checkout_requests
                if total - self._auto_last_check < self.auto_repack_interval:
                    return
                self._auto_last_check = total
                if self._auto_repack_running or self._auto_repack_suppressed:
                    return
                if self._adaptive_armed:
                    self._auto_repack_running = True
        except Exception as error:  # pragma: no cover - defensive
            self._note_policy_error("auto_repack_check", error)
            return
        if self._adaptive_armed:
            self._start_policy_worker(
                self._adaptive_repack_worker, "repro-adaptive-repack"
            )
            return
        try:
            with self.coordinator.shared():
                if len(self.repository) == 0:
                    return
                frequencies = self.workload_log.frequencies(
                    self.repository.graph.version_ids
                )
                expected = expected_workload_cost(
                    self.repository, frequencies or None
                )
            if expected["per_request"] <= self.repack_budget:
                return
            with self._state_lock:
                if self._auto_repack_running or self._auto_repack_suppressed:
                    return
                self._auto_repack_running = True
        except Exception as error:
            self._note_policy_error("budget_check", error)
            return
        self._start_policy_worker(self._auto_repack_worker, "repro-auto-repack")

    def _start_policy_worker(self, target: Callable[[], None], name: str) -> None:
        """Spawn a policy worker; a failed start must release the running
        flag (set by the caller under the state lock) or the policy would
        be wedged off for the rest of the process."""
        try:
            threading.Thread(target=target, name=name, daemon=True).start()
        except Exception as error:  # pragma: no cover - resource exhaustion
            with self._state_lock:
                self._auto_repack_running = False
            self._note_policy_error("policy_worker_start", error)

    def _auto_repack_worker(self) -> None:
        try:
            report = self.repack(use_workload=True, mode="budget")
            after = report.get("expected_cost_after", {}).get("per_request", 0.0)
            with self._state_lock:
                self.stats_counters.auto_repacks += 1
                self._auto_repack_error = None
                if after > self.repack_budget:
                    # Even the fresh epoch misses the budget: stand down
                    # until a commit changes the store, else every interval
                    # would trigger another futile repack.
                    self._auto_repack_suppressed = True
        except Exception as error:  # pragma: no cover - defensive
            with self._state_lock:
                self._auto_repack_suppressed = True
            self._note_policy_error("budget_worker", error)
        finally:
            with self._state_lock:
                self._auto_repack_running = False
