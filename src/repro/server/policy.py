"""The repack policy of a served store: whether and when to repack, and why.

:class:`~repro.server.service.VersionStoreService` serves, and repacks when
asked.  A :class:`RepackPolicy` decides when to ask and keeps the record:
the adaptive controller and the staging-cost calibration (their learned
state kept by a catalog across restarts), the request-count trigger and
its background cycle, the replica group's planner lease, and the
:class:`~repro.obs.DecisionLog` of every repack, controller and lease
decision.  The plan knobs every planning entry point takes are checked
here too.
"""

from __future__ import annotations

import math
import threading
import time
from typing import TYPE_CHECKING, Any, Callable

from ..core.problems import Algorithm, ProblemKind
from ..exceptions import NotLeaseHolderError, ReproError
from ..obs import DecisionLog, JsonLogSink, MetricsRegistry
from ..obs.metrics import log_once
from ..storage.lease import PlannerLease
from ..storage.repack import (
    AdaptiveRepackController,
    StagedRepack,
    StagingCostCalibration,
    estimate_repack_cost,
    expected_workload_cost,
)

if TYPE_CHECKING:
    from .service import VersionStoreService

__all__ = ["RepackPolicy", "PLAN_OPTIONS", "check_plan_options"]


def _non_negative(number: Any) -> Any:
    if not number >= 0:  # NaN fails the comparison too
        raise ValueError(number)
    return number


def _positive_finite(number: float) -> float:
    if not 0 < number < math.inf:
        raise ValueError(number)
    return number


_PLAN_OPTION_CHECKS: dict[str, Callable[[Any], Any]] = {
    "problem": lambda value: int(ProblemKind(int(value))),
    "threshold": lambda value: _non_negative(float(value)),
    "threshold_factor": lambda value: _non_negative(float(value)),
    "hop_limit": lambda value: _non_negative(int(value)),
    "algorithm": lambda value: Algorithm(value).value,
}

#: The plan knobs of ``VersionStoreService.plan``, ``repack`` and
#: :meth:`RepackPolicy.cycle` — the keys the HTTP layer forwards from a body.
PLAN_OPTIONS = tuple(_PLAN_OPTION_CHECKS)

#: ``repack`` also takes the half-life of its decayed workload view.
_OPTION_CHECKS = {
    **_PLAN_OPTION_CHECKS,
    "half_life": lambda value: _positive_finite(float(value)),
}

#: Options whose ``None`` means "not set" rather than a malformed value.
_UNSET_ALLOWED = ("threshold", "threshold_factor", "half_life")


def check_plan_options(**options: Any) -> dict[str, Any]:
    """The plan knobs, converted, or a :class:`ReproError` (HTTP 400, CLI
    exit 1) for a malformed one.

    Measuring the cost model is a full payload scan, and a repack holds the
    write gate through it, so the knobs are checked before any scan instead
    of by the solver afterwards.  An unset threshold stays ``None``: it is
    resolved from the instance at solve time, and an unset half-life
    means the raw (undecayed) workload view.
    """
    checked: dict[str, Any] = {}
    for name, value in options.items():
        if value is None and name in _UNSET_ALLOWED:
            checked[name] = None
            continue
        try:
            checked[name] = _OPTION_CHECKS[name](value)
        except (TypeError, ValueError):
            raise ReproError(f"invalid plan option {name}={value!r}") from None
    return checked


class RepackPolicy:
    """Decides whether and when ``service`` repacks, and records why.

    ``armed`` (the service's ``adaptive_repack``) starts the background
    trigger: every ``interval`` checkouts one cycle prices the *warm
    decayed* expected cost — what requests actually pay given the live
    cache, weighted toward recent traffic — against a baseline the
    controller learns from its own repacks, with a hysteresis band against
    thrash and an amortization gate (``horizon`` requests) against repacks
    that cost more than they save.  Unarmed, the controller is created by
    the first :meth:`cycle` and only an operator drives it.

    ``replica_id`` joins a replica group: the policy competes for the
    planner lease (renewed on a thread until :meth:`stop`), and only the
    holder repacks, prunes or runs a cycle.
    """

    def __init__(
        self,
        service: "VersionStoreService",
        *,
        armed: bool,
        interval: int,
        horizon: float,
        log_sink: JsonLogSink | None,
        replica_id: str | None,
        lease_ttl: float,
        lease_renew: float | None,
    ) -> None:
        catalog = service.repository.catalog
        if replica_id is not None and catalog is None:
            raise ReproError(
                "replica groups need a shared metadata catalog: serve the "
                "store over a sqlite:// backend to use --join"
            )
        self._service = service
        self._catalog = catalog
        self.armed = bool(armed)
        self.interval = max(1, int(interval))
        self.horizon = float(horizon)
        # _lock guards the trigger's bookkeeping.  _running is held by the
        # one cycle in flight; _closed is set once by stop(), never cleared.
        self._lock = threading.Lock()
        self._last_check = 0
        self._running = False
        self._closed = False
        self.auto_repacks = 0
        self.error: str | None = None
        self.controller = self._new_controller() if armed else None
        self.staging_calibration = self._restored(
            "staging_calibration", StagingCostCalibration()
        )
        self.decision_log = DecisionLog(capacity=256, catalog=catalog, sink=log_sink)
        self.lease: PlannerLease | None = None
        if replica_id is not None:
            self.lease = PlannerLease(
                catalog,
                replica_id,
                ttl=lease_ttl,
                renew_interval=lease_renew,
                on_event=self._record_lease_event,
            )
        self._bind_metrics(service.metrics)
        if self.lease is not None:
            self.lease.try_acquire()
            self.lease.start()

    def _bind_metrics(self, registry: MetricsRegistry) -> None:
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
        if not getattr(registry, "enabled", False):
            return
        staging_scale = registry.gauge(
            "repro_repack_staging_scale",
            "Calibrated scale applied to repack staging-cost estimates.",
        )
        lease_holder = registry.gauge(
            "repro_lease_holder",
            "1 when this replica holds the repack-planner lease, else 0.",
        )

        def collect(_registry: MetricsRegistry) -> None:
            staging_scale.set(self.staging_calibration.scale)
            lease_holder.set(
                1.0 if self.lease is not None and self.lease.is_holder else 0.0
            )

        registry.register_collector(collect)

    def _new_controller(self) -> AdaptiveRepackController:
        return self._restored(
            "controller_state", AdaptiveRepackController(horizon=self.horizon)
        )

    def _restored(self, name: str, policy: Any) -> Any:
        """``policy`` with its learned state loaded from the catalog, if saved."""
        catalog = self._catalog
        saved = catalog.load_policy_state(name) if catalog is not None else None
        if saved:
            policy.load_state(saved)
        return policy

    def _persist(self, name: str, policy: Any) -> None:
        """Save ``policy``'s learned state to the catalog, best-effort."""
        if self._catalog is None:
            return
        try:
            self._catalog.save_policy_state(name, policy.state_dict())
        except Exception as error:  # pragma: no cover - persistence best-effort
            self._note_error(f"{name}_persist", error)

    def _note_error(self, site: str, error: BaseException) -> None:
        """Record a background failure: logged once per site, counted on the
        shared backend-error counter, and shown in ``/stats``."""
        message = f"{type(error).__name__}: {error}"
        log_once(
            f"service:{site}", "service background task %s failed (%s)", site, message
        )
        self._m_service_errors.inc()
        with self._lock:
            self.error = message

    def note_commit(self) -> None:
        """A commit changed the store: a stood-down controller re-arms."""
        controller = self.controller
        if controller is not None:
            controller.note_commit()
            self._persist("controller_state", controller)

    def snapshot(self) -> dict[str, Any]:
        """The policy's part of ``stats()['repack']``."""
        with self._lock:
            auto_repacks, error = self.auto_repacks, self.error
        calibration = self.staging_calibration.state_dict()
        controller = self.controller
        return {
            "horizon": self.horizon,
            "auto_repacks": auto_repacks,
            "auto_repack_error": error,
            "controller": (
                dict(controller.snapshot(), staging_calibration=calibration)
                if controller is not None
                else None
            ),
            "staging_calibration": calibration,
            "decisions": self.decision_log.tail(20),
            "decision_seq": self.decision_log.last_seq,
            "lease": self.lease.state() if self.lease is not None else None,
        }

    # ------------------------------------------------------------------ #
    # the planner lease
    # ------------------------------------------------------------------ #
    def require_lease_holder(self, operation: str) -> None:
        """Planner-only operations 409 on replicas without the lease.

        Repacks and prunes mutate the store every replica serves from: a
        non-holder's prune could collect objects the holder's in-flight
        staging wrote but has not mapped yet.
        """
        if self.lease is None or self.lease.is_holder:
            return
        state = self.lease.state()
        raise NotLeaseHolderError(
            f"replica {self.lease.holder!r} does not hold the "
            f"{self.lease.role!r} lease (held by {state['holder']!r}); "
            f"{operation} must run on the lease holder"
        )

    def fence(self) -> tuple[str, int] | None:
        """The lease fence a staging starts under (``None`` outside a group):
        if the lease changes hands before the swap, activation rejects it."""
        return self.lease.fence() if self.lease is not None else None

    def note_fenced(self, error: BaseException) -> None:
        """A swap was fenced: this planner lost the lease mid-repack."""
        if self.lease is not None:
            self._record_lease_event(
                {
                    "event": "fenced",
                    "role": self.lease.role,
                    "holder": self.lease.holder,
                    "token": self.lease.token,
                    "detail": str(error),
                }
            )

    def _record_lease_event(self, event: dict[str, Any]) -> None:
        """Fold one lease transition into the decision log and metrics.

        Renewals and rejections fire every renew interval from every
        replica, so they stay in the in-memory ring only: one catalog row
        per second per replica would flush the bounded audit trail.  Holder
        *changes* and fencings are the audit trail, so those persist.
        """
        kind = str(event.get("event", "lease"))
        record = {
            "event": f"lease_{kind}",
            "ts": round(time.time(), 3),
            "role": event.get("role"),
            "holder": event.get("holder"),
            "token": event.get("token"),
            "replica_id": self.lease.holder,  # only the lease calls this
        }
        if "stolen_from" in event:
            record["stolen_from"] = event["stolen_from"]
        if "detail" in event:
            record["detail"] = event["detail"]
        self.decision_log.append(record, persist=kind not in ("renewed", "rejected"))
        self._m_lease_events.labels(kind).inc()

    def stop(self, deadline: float) -> None:
        """Stand the policy down: no new background cycle, the lease
        released so a peer plans at once, and a running cycle waited for
        until ``deadline`` (a :func:`time.monotonic` instant)."""
        with self._lock:
            self._closed = True
        if self.lease is not None:
            self.lease.stop(release=True)
        while time.monotonic() < deadline:
            with self._lock:
                if not self._running:
                    return
            time.sleep(0.05)

    # ------------------------------------------------------------------ #
    # staging cost and the repack record
    # ------------------------------------------------------------------ #
    def price_staging(self, report: dict[str, Any]) -> None:
        """Put the staging-cost estimate on ``report`` before staging, so
        :meth:`note_staged` can compare prediction to reality.  It walks
        every chain; an adaptive gate that priced it left it on the report.
        """
        if "staging_cost_estimate" not in report:
            with self._service.coordinator.shared():
                report["staging_cost_estimate"] = estimate_repack_cost(
                    self._service.repository
                )
        report["staging_cost_calibrated"] = self.staging_calibration.calibrated(
            report["staging_cost_estimate"]
        )

    def note_staged(self, report: dict[str, Any], staged: StagedRepack) -> None:
        """Fold what an applied repack's staging paid into the calibration,
        so the next estimate lands closer to reality."""
        estimate = report["staging_cost_estimate"]
        self.staging_calibration.observe(
            estimate, staged.staging_cost_paid, seconds=staged.staging_seconds
        )
        report["staging_scale"] = self.staging_calibration.scale
        self._m_staging_estimated.inc(estimate)
        self._m_staging_measured.inc(staged.staging_cost_paid)
        self._m_staging_seconds.inc(staged.staging_seconds)
        self._persist("staging_calibration", self.staging_calibration)

    def record_repack(self, report: dict[str, Any], mode: str) -> None:
        """Fold one repack outcome into the decision log and metrics."""
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
            "conflict",
            "fenced",
        ):
            if key in report:
                record[key] = report[key]
        self.decision_log.append(record)
        if applied:
            self._m_repacks.labels(mode).inc()

    # ------------------------------------------------------------------ #
    # the adaptive cycle
    # ------------------------------------------------------------------ #
    def cycle(self, **plan_options: Any) -> dict[str, Any]:
        """Run one adaptive-controller cycle on the calling thread.

        Prices the warm decayed expected cost, feeds it to the controller,
        and — when the controller triggers — has the service solve a
        workload-aware plan (with ``plan_options``) whose application the
        amortization check gates.  This is ``POST /repack {"adaptive":
        true}``; the background trigger runs the same cycle with default
        options.  Only the planner-lease holder of a replica group may run
        it; other replicas raise :class:`~repro.exceptions.NotLeaseHolderError`.
        """
        plan_options = check_plan_options(**plan_options)
        self.require_lease_holder("adaptive repack cycle")
        with self._lock:
            if self.controller is None:
                self.controller = self._new_controller()
            if self._running:
                return {
                    "adaptive": True,
                    "fired": False,
                    "reason": "an auto repack is already running",
                    "controller": self.controller.snapshot(),
                }
            self._running = True
        return self._cycle(plan_options)

    def _cycle(self, plan_options: dict[str, Any]) -> dict[str, Any]:
        """One evaluate → (maybe plan) → (maybe repack) pass, by the holder
        of ``_running``, which it releases.

        Every completed cycle — fired, gate-vetoed or stood down — leaves
        one ``adaptive_evaluate`` record in the decision log and bumps the
        per-verdict decision counter.
        """
        service = self._service
        repository = service.repository
        controller = self.controller
        assert controller is not None
        report: dict[str, Any] = {"adaptive": True, "fired": False}
        try:
            with service.coordinator.shared():
                version_ids = repository.graph.version_ids
                if version_ids:
                    frequencies = service.workload_log.decayed_frequencies(
                        version_ids
                    )
                    priced = expected_workload_cost(
                        repository,
                        frequencies or None,
                        materializer=service.materializer,
                    )
                    observations = service.workload_log.total_accesses
            if not version_ids:
                report["reason"] = "empty repository"
            else:
                current = priced["warm"]["per_request"]
                report["evaluated_cost_per_request"] = current
                report["observations"] = observations
                if controller.observe(
                    current, observations=observations, frequencies=frequencies
                ):
                    weight = priced["weight"] or float(len(version_ids))

                    def gate(plan_report: dict[str, Any]) -> bool:
                        metrics = plan_report["plan_metrics"]
                        if plan_report["workload_aware"]:
                            projected = metrics["weighted_recreation"] / weight
                        else:
                            projected = metrics["sum_recreation"] / len(version_ids)
                        with service.coordinator.shared():
                            estimate = estimate_repack_cost(repository)
                        calibrated = self.staging_calibration.calibrated(estimate)
                        report["projected_cost_per_request"] = projected
                        report["staging_cost_estimate"] = estimate
                        report["staging_cost_calibrated"] = calibrated
                        if not controller.approve(
                            current, projected, calibrated, frequencies=frequencies
                        ):
                            return False
                        # The repack stages on this estimate (price_staging).
                        plan_report["staging_cost_estimate"] = estimate
                        return True

                    repacked = service.repack(
                        use_workload=True,
                        half_life=service.workload_log.half_life,
                        gate=gate,
                        mode="adaptive",
                        **plan_options,
                    )
                    if repacked["applied"]:
                        controller.note_repack(
                            repacked["expected_cost_after"]["per_request"],
                            frequencies=frequencies,
                        )
                        with self._lock:
                            self.auto_repacks += 1
                    report["fired"] = repacked["applied"]
                    report["repack"] = repacked
                report["reason"] = controller.last_reason
                self._persist("controller_state", controller)
            report["controller"] = controller.snapshot()
            self._record_adaptive_decision(report)
            return report
        finally:
            with self._lock:
                self._running = False

    def _record_adaptive_decision(self, report: dict[str, Any]) -> None:
        controller_snapshot = report["controller"]
        fired = bool(report["fired"])
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
            "epoch": self._service.repacker.epoch,
            "observations": report.get("observations"),
            "cost_per_request": report.get("evaluated_cost_per_request"),
            "projected_cost_per_request": report.get("projected_cost_per_request"),
            "staging_cost_estimate": report.get("staging_cost_estimate"),
            "staging_cost_calibrated": report.get("staging_cost_calibrated"),
            "staging_scale": self.staging_calibration.scale,
        }
        self.decision_log.append(record)
        self._m_decisions.labels(verdict).inc()

    # ------------------------------------------------------------------ #
    # the background trigger
    # ------------------------------------------------------------------ #
    def maybe_auto_repack(self) -> None:
        """Start a background cycle when one is due.

        Called at the end of every served request, outside all locks, and
        rate-limited to once every ``interval`` checkouts.  A worker that
        fails to start must not fail the request that triggered it (the
        checkout already succeeded), so that error is recorded instead.
        """
        if not self.armed:
            return
        # Replica groups: the background policy runs only on the lease
        # holder.  Non-holders keep serving (and keep folding traffic into
        # the shared workload log, which the holder plans against).
        if self.lease is not None and not self.lease.is_holder:
            return
        total = self._service.stats_counters.checkout_requests
        with self._lock:
            if total - self._last_check < self.interval:
                return
            self._last_check = total
            if self._running or self._closed:
                return
            self._running = True
        try:
            threading.Thread(
                target=self._background_cycle,
                name="repro-adaptive-repack",
                daemon=True,
            ).start()
        except Exception as error:  # pragma: no cover - resource exhaustion
            # A failed start must release the running flag, or the policy
            # would be wedged off for the rest of the process.
            with self._lock:
                self._running = False
            self._note_error("policy_worker_start", error)

    def _background_cycle(self) -> None:
        try:
            self._cycle({})
        except Exception as error:  # pragma: no cover - defensive
            self._note_error("adaptive_worker", error)
        else:
            with self._lock:
                self.error = None
