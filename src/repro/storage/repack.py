"""Online repacking: re-encode a live repository and swap epochs atomically.

The optimization layer decides *which* versions to materialize and which
deltas to keep; this module carries that decision out against the object
store — including while the repository is being served.  The work is split
into two phases so a long re-encode never blocks readers:

* :meth:`OnlineRepacker.rebuild` (phase 1) streams every version's payload
  out of the *old* encoding through a bounded
  :class:`~repro.storage.batch.BatchMaterializer` cache and writes the new
  encoding next to it.  The store is content-addressed and existing keys
  are never overwritten, so concurrent readers — who only ever follow the
  old version→object mapping — are completely unaffected.
* :meth:`OnlineRepacker.swap` (phase 2) repoints every version at its new
  object, garbage-collects objects no chain references anymore, drops the
  repository's payload cache and bumps the *epoch* counter.  The caller
  must exclude concurrent readers and writers for this (short) phase; the
  serving layer does so under its serving lock, which is what guarantees a
  checkout is served entirely from one epoch — never a mix.

``rebuild`` + ``swap`` back :meth:`Repository.repack` (single-threaded
convenience via :meth:`repack`) as well as the serving layer's
workload-aware ``POST /repack``.  The streaming property — payloads are
read lazily, never all pinned in memory — is what lets the re-packer run
against repositories larger than RAM, exactly like the archival repacking
jobs surveyed in the paper's Section 6.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from ..core.instance import ROOT
from ..core.problems import SolveResult, default_threshold, solve
from ..core.storage_plan import StoragePlan
from ..core.version import VersionID
from ..exceptions import (
    InvalidStoragePlanError,
    LeaseFencedError,
    ObjectNotFoundError,
    ReproError,
    SnapshotConflictError,
)
from .batch import BatchMaterializer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .repository import Repository

__all__ = [
    "OnlineRepacker",
    "StagedRepack",
    "AdaptiveRepackController",
    "StagingCostCalibration",
    "plan_order",
    "expected_workload_cost",
    "expected_workload_costs",
    "estimate_repack_cost",
]


def plan_order(plan: StoragePlan) -> list[VersionID]:
    """Versions of ``plan`` ordered parents-before-children.

    Materialized versions come first, then every delta child after its
    parent, so the re-packer can always diff against an already re-encoded
    base.
    """
    children = plan.children_map()
    order: list[VersionID] = []
    stack = list(reversed(children.get(ROOT, [])))
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(children.get(node, [])))
    if len(order) != len(plan):
        raise InvalidStoragePlanError(
            "storage plan is not a tree rooted at the dummy vertex"
        )
    return order


def expected_workload_cost(
    repository: "Repository",
    frequencies: Mapping[VersionID, float] | None = None,
    *,
    materializer: BatchMaterializer | None = None,
) -> dict[str, Any]:
    """Expected recreation cost of serving ``frequencies``.

    Each version's cost is the Φ chain sum of its *current* encoding —
    answered by the object store's incremental cost index (maintained at
    commit/repack time), so no payload is replayed and no exclusive lock is
    needed — weighted by its access frequency (uniform when ``frequencies``
    is ``None``; zero-frequency versions are skipped entirely).  Returns
    the weighted ``total``, the ``per_request`` mean, and the total
    ``weight`` — the quantity an online repack is supposed to shrink,
    measurable before and after without replaying a single request.

    With ``materializer`` the result additionally carries a ``"warm"``
    sub-dict pricing the same workload against that materializer's *live
    cache*: ``total`` / ``per_request`` are the Σf·Φ each request will
    *actually* pay given what is currently cached (the suffix below the
    deepest cached ancestor, per chain), and ``deltas_per_request`` the
    delta applications it will perform.  With an empty cache the warm
    numbers equal the cold ones by construction.
    """
    return expected_workload_costs(
        repository, {"_": frequencies}, materializer=materializer
    )["_"]


def expected_workload_costs(
    repository: "Repository",
    vectors: Mapping[str, Mapping[VersionID, float] | None],
    *,
    materializer: BatchMaterializer | None = None,
) -> dict[str, dict[str, Any]]:
    """Price several frequency vectors in one pass over the versions.

    The per-version chain cost (and, with ``materializer``, its
    frequency-independent warm cost) is computed once and weighted under
    every vector — the serving stats price the raw and the decayed views
    of one workload without walking each chain twice.  ``None`` as a
    vector means the uniform workload, exactly like
    :func:`expected_workload_cost`.
    """
    store = repository.store
    accumulators = {
        name: {"total": 0.0, "weight": 0.0, "warm_total": 0.0, "warm_deltas": 0.0}
        for name in vectors
    }
    for vid in repository.graph.version_ids:
        object_id: str | None = None
        cost = 0.0
        warm = None
        for name, frequencies in vectors.items():
            freq = 1.0 if frequencies is None else float(frequencies.get(vid, 0.0))
            if freq <= 0.0:
                continue
            if object_id is None:
                object_id = repository.object_id_of(vid)
                cost = store.chain_stats(object_id).phi_total
                if materializer is not None:
                    warm = materializer.warm_chain_cost(object_id)
            accumulator = accumulators[name]
            accumulator["total"] += freq * cost
            accumulator["weight"] += freq
            if warm is not None:
                accumulator["warm_total"] += freq * warm.phi
                accumulator["warm_deltas"] += freq * warm.deltas
    priced: dict[str, dict[str, Any]] = {}
    for name, accumulator in accumulators.items():
        weight = accumulator["weight"]
        entry: dict[str, Any] = {
            "total": accumulator["total"],
            "per_request": accumulator["total"] / weight if weight > 0 else 0.0,
            "weight": weight,
        }
        if materializer is not None:
            entry["warm"] = {
                "total": accumulator["warm_total"],
                "per_request": (
                    accumulator["warm_total"] / weight if weight > 0 else 0.0
                ),
                "deltas_per_request": (
                    accumulator["warm_deltas"] / weight if weight > 0 else 0.0
                ),
            }
        priced[name] = entry
    return priced


def estimate_repack_cost(repository: "Repository") -> float:
    """Index-priced estimate of what one repack's staging phase costs.

    Phase 1 streams every version's payload out of the old encoding
    exactly once (the bounded cache amortizes shared prefixes), so the
    dominant recreation work is one Φ contribution per *distinct* live
    object.  Summing those from the cost index gives the number the
    adaptive controller amortizes against — a dictionary walk, no payload
    access, safe under shared access.
    """
    store = repository.store
    seen: set[str] = set()
    total = 0.0
    for vid in repository.graph.version_ids:
        for object_id in store.chain_ids(repository.object_id_of(vid)):
            if object_id in seen:
                continue
            seen.add(object_id)
            meta = store.meta(object_id)
            if meta is not None:
                total += meta.phi
    return total


class StagingCostCalibration:
    """Fits :func:`estimate_repack_cost` to what staging actually costs.

    The estimate prices phase 1 as one Φ contribution per distinct live
    object — a model that ignores the staging cache's prefix amortization
    and any backend latency.  Every completed repack reports the cost its
    rebuild *actually paid* (and the wall seconds it took); this object
    maintains an EWMA of the measured/estimated ratio and scales future
    estimates by it, so the amortization gate converges toward measured
    reality instead of judging against a fixed model.  Thread-safe; the
    state round-trips through the catalog like the controller's.
    """

    def __init__(
        self,
        *,
        alpha: float = 0.3,
        min_scale: float = 0.05,
        max_scale: float = 20.0,
    ) -> None:
        self.alpha = float(alpha)
        self.min_scale = float(min_scale)
        self.max_scale = float(max_scale)
        self._lock = threading.Lock()
        self.scale = 1.0
        self.observations = 0
        self.last_estimated: float | None = None
        self.last_measured: float | None = None
        self.last_seconds: float | None = None

    def observe(
        self,
        estimated: float,
        measured: float,
        *,
        seconds: float | None = None,
    ) -> None:
        """Fold one epoch's (estimated, actually-paid) staging cost pair."""
        estimated = float(estimated)
        measured = float(measured)
        with self._lock:
            self.last_estimated = estimated
            self.last_measured = measured
            self.last_seconds = float(seconds) if seconds is not None else None
            if estimated <= 0.0 or measured < 0.0:
                return
            ratio = min(self.max_scale, max(self.min_scale, measured / estimated))
            if self.observations == 0:
                self.scale = ratio
            else:
                self.scale += self.alpha * (ratio - self.scale)
            self.observations += 1

    def calibrated(self, estimate: float) -> float:
        """``estimate`` scaled by the fitted measured/estimated ratio."""
        with self._lock:
            return float(estimate) * self.scale

    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable state, persisted in the catalog across restarts."""
        with self._lock:
            return {
                "scale": self.scale,
                "observations": self.observations,
                "last_estimated": self.last_estimated,
                "last_measured": self.last_measured,
                "last_seconds": self.last_seconds,
            }

    def load_state(self, state: "Mapping[str, Any] | None") -> None:
        """Restore :meth:`state_dict` output; ``None`` is a no-op.

        Non-numeric fields (a torn or hand-edited catalog row) are
        ignored field-by-field — a bad persisted state must never stop a
        service from starting.
        """
        if state is None:
            return
        with self._lock:
            try:
                scale = float(state.get("scale"))  # type: ignore[arg-type]
            except (TypeError, ValueError):
                scale = 0.0
            if scale > 0.0:
                self.scale = min(self.max_scale, max(self.min_scale, scale))
            try:
                self.observations = int(state.get("observations") or 0)
            except (TypeError, ValueError):
                self.observations = 0
            for attr in ("last_estimated", "last_measured", "last_seconds"):
                value = state.get(attr)
                try:
                    setattr(self, attr, float(value) if value is not None else None)
                except (TypeError, ValueError):
                    setattr(self, attr, None)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready calibration state for the service's ``stats``."""
        return self.state_dict()


class AdaptiveRepackController:
    """Decides *when* an online repack is worth firing — and when it isn't.

    The fixed-budget policy repacks whenever expected cost exceeds a
    number the operator guessed up front.  This controller tunes itself to
    traffic instead, judging the *warm decayed* expected cost per request
    (what requests actually pay given the live cache, weighted toward
    recent traffic) against a baseline it learns:

    * **warming** — too little observed traffic to judge; hold.
    * **steady** — cost sits at or below the hysteresis band around
      ``baseline`` (the cost measured right after the last repack, or the
      plan-projected cost of the first calibration).  Nothing to do.
    * **triggered** — cost crossed ``trigger_factor × baseline`` (or the
      controller is uncalibrated): a plan evaluation is due.  The caller
      solves a plan and brings it back through :meth:`approve`, which
      applies the **amortization gate**: the estimated staging cost must
      be recouped within ``horizon`` requests out of the per-request gain,
      or the repack does not fire.
    * **stand-down** — a triggered evaluation found the repack not worth
      it (no gain, or the horizon not met).  The controller holds there —
      no repeated futile solves — until a commit changes the store, the
      cost drifts another ``trigger_factor`` above the stood-down level,
      or the decayed workload *distribution* drifts more than
      ``drift_threshold`` from the one it was judged under
      (:func:`~repro.storage.workload_log.frequency_drift`).

    The drift signal also fires from *steady*: the baseline was measured
    under one workload shape (recorded at repack/calibration time), and
    once the live decayed distribution no longer resembles it — and cost
    has left the comfortable side of the band — the baseline is stale and
    a re-plan is due even though cost never crossed the trigger line.

    Re-arming out of the band needs cost to fall below
    ``standdown_factor × baseline``; between the two thresholds the state
    holds — that band is what prevents repack thrash when cost oscillates
    around a single threshold.  All methods are thread-safe; the
    controller itself never touches the repository — callers feed it
    numbers and act on its verdicts, which keeps every transition unit
    testable without a store.
    """

    def __init__(
        self,
        *,
        horizon: float = 1000.0,
        trigger_factor: float = 1.5,
        standdown_factor: float = 1.15,
        drift_threshold: float = 0.35,
        min_observations: int = 16,
    ) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive (requests)")
        if trigger_factor <= standdown_factor:
            raise ValueError(
                "trigger_factor must exceed standdown_factor "
                "(the hysteresis band would be empty or inverted)"
            )
        if standdown_factor < 1.0:
            raise ValueError("standdown_factor must be >= 1.0")
        self.horizon = float(horizon)
        self.trigger_factor = float(trigger_factor)
        self.standdown_factor = float(standdown_factor)
        self.drift_threshold = float(drift_threshold)
        self.min_observations = int(min_observations)
        self._lock = threading.Lock()
        self.state = "warming"
        self.baseline: float | None = None
        self.last_cost: float | None = None
        self.last_reason = "no evaluation yet"
        self.evaluations = 0
        self.repacks_fired = 0
        self._standdown_cost: float | None = None
        self._standdown_frequencies: dict[VersionID, float] | None = None
        # The decayed workload shape the current baseline was judged
        # under; the steady-state drift trigger compares against it.
        self._reference_frequencies: dict[VersionID, float] | None = None

    # ------------------------------------------------------------------ #
    # the evaluation loop
    # ------------------------------------------------------------------ #
    def observe(
        self,
        cost_per_request: float,
        *,
        observations: int,
        frequencies: Mapping[VersionID, float] | None = None,
    ) -> bool:
        """Fold one evaluation of the warm decayed cost; True = plan now.

        ``observations`` is the total access count behind the number (the
        workload log's clock); ``frequencies`` the decayed vector it was
        priced under, used for drift detection against a stood-down state.
        """
        from .workload_log import frequency_drift

        cost = float(cost_per_request)
        with self._lock:
            self.evaluations += 1
            self.last_cost = cost
            if observations < self.min_observations:
                self.state = "warming"
                self.last_reason = (
                    f"warming: {observations} accesses observed, "
                    f"need {self.min_observations}"
                )
                return False
            if self.baseline is None:
                self.state = "triggered"
                self.last_reason = "uncalibrated: planning to learn the baseline"
                return True
            trigger_at = self.trigger_factor * self.baseline
            standdown_at = self.standdown_factor * self.baseline
            if self.state == "stand-down":
                assert self._standdown_cost is not None
                drift = frequency_drift(
                    frequencies or {}, self._standdown_frequencies or {}
                )
                if cost > self.trigger_factor * self._standdown_cost:
                    self.state = "triggered"
                    self.last_reason = (
                        f"re-triggered: cost {cost:.1f} grew past "
                        f"{self.trigger_factor:.2f}x the stood-down "
                        f"{self._standdown_cost:.1f}"
                    )
                    return True
                if drift > self.drift_threshold:
                    self.state = "triggered"
                    self.last_reason = (
                        f"re-triggered: workload drifted {drift:.2f} "
                        f"(> {self.drift_threshold:.2f}) since standing down"
                    )
                    return True
                if cost < standdown_at:
                    self.state = "steady"
                    self.last_reason = (
                        f"recovered: cost {cost:.1f} fell below the band "
                        f"({standdown_at:.1f})"
                    )
                    return False
                self.last_reason = (
                    f"standing down: cost {cost:.1f} unchanged since the "
                    "last unprofitable evaluation"
                )
                return False
            if cost > trigger_at:
                self.state = "triggered"
                self.last_reason = (
                    f"triggered: cost {cost:.1f} > "
                    f"{self.trigger_factor:.2f}x baseline {self.baseline:.1f}"
                )
                return True
            if cost > standdown_at and self._reference_frequencies is not None:
                drift = frequency_drift(
                    frequencies or {}, self._reference_frequencies
                )
                if drift > self.drift_threshold:
                    self.state = "triggered"
                    self.last_reason = (
                        f"triggered: workload drifted {drift:.2f} "
                        f"(> {self.drift_threshold:.2f}) from the baseline's "
                        f"shape and cost {cost:.1f} left the band"
                    )
                    return True
            if cost < standdown_at:
                self.state = "steady"
                self.last_reason = (
                    f"steady: cost {cost:.1f} within "
                    f"{self.standdown_factor:.2f}x baseline {self.baseline:.1f}"
                )
            else:
                # Inside the hysteresis band: hold whatever state we were
                # in rather than flapping on a single threshold.
                self.last_reason = (
                    f"holding ({self.state}): cost {cost:.1f} inside the "
                    f"band [{standdown_at:.1f}, {trigger_at:.1f}]"
                )
            return self.state == "triggered"

    def approve(
        self,
        current_cost: float,
        projected_cost: float,
        repack_cost: float,
        *,
        frequencies: Mapping[VersionID, float] | None = None,
    ) -> bool:
        """The amortization gate, judged after a plan has been solved.

        ``current_cost`` is the warm per-request cost being paid now,
        ``projected_cost`` the plan's expected per-request cost, and
        ``repack_cost`` the estimated one-off staging cost
        (:func:`estimate_repack_cost`).  The repack fires only when the
        per-request gain recoups that cost within ``horizon`` requests;
        otherwise the controller stands down, remembering the cost level
        and workload shape it judged.
        """
        with self._lock:
            gain = float(current_cost) - float(projected_cost)
            if gain <= 0.0:
                self._stand_down_locked(
                    current_cost,
                    projected_cost,
                    frequencies,
                    reason=(
                        f"stand-down: plan projects {projected_cost:.1f}/request, "
                        f"no improvement over the current {current_cost:.1f}"
                    ),
                )
                return False
            if gain * self.horizon < float(repack_cost):
                self._stand_down_locked(
                    current_cost,
                    projected_cost,
                    frequencies,
                    reason=(
                        f"stand-down: staging cost {repack_cost:.1f} not recouped "
                        f"within {self.horizon:.0f} requests at "
                        f"{gain:.1f}/request gain"
                    ),
                )
                return False
            self.last_reason = (
                f"approved: {gain:.1f}/request gain recoups staging cost "
                f"{repack_cost:.1f} within {repack_cost / gain:.0f} requests"
            )
            return True

    def _stand_down_locked(
        self,
        current_cost: float,
        projected_cost: float,
        frequencies: Mapping[VersionID, float] | None,
        *,
        reason: str,
    ) -> None:
        self.state = "stand-down"
        self._standdown_cost = float(current_cost)
        self._standdown_frequencies = dict(frequencies or {})
        if self.baseline is None:
            # Calibrated without firing: the plan told us what is
            # achievable, which is all the hysteresis band needs.
            self.baseline = max(float(projected_cost), 1e-9)
            self._reference_frequencies = dict(frequencies or {})
        self.last_reason = reason

    # ------------------------------------------------------------------ #
    # external events
    # ------------------------------------------------------------------ #
    def note_repack(
        self,
        post_cost_per_request: float,
        *,
        frequencies: Mapping[VersionID, float] | None = None,
    ) -> None:
        """A repack completed; its measured outcome is the new baseline.

        ``frequencies`` is the decayed vector the repack was planned
        against — the workload shape the new baseline is valid for, which
        the steady-state drift trigger compares future traffic to.
        """
        with self._lock:
            self.repacks_fired += 1
            self.baseline = max(float(post_cost_per_request), 1e-9)
            self.state = "steady"
            self._standdown_cost = None
            self._standdown_frequencies = None
            self._reference_frequencies = dict(frequencies or {})
            self.last_reason = (
                f"repacked: new baseline {self.baseline:.1f}/request"
            )

    def note_commit(self) -> None:
        """The store changed shape; a stood-down verdict is stale."""
        with self._lock:
            if self.state == "stand-down":
                self.state = "steady"
                self._standdown_cost = None
                self._standdown_frequencies = None
                self.last_reason = "re-armed: a commit changed the store"

    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable mutable state, for persistence in the catalog.

        Covers everything :meth:`load_state` restores — the learned
        baseline, the state machine's position and the workload shapes its
        verdicts were judged under — but none of the constructor-tunable
        thresholds (those belong to the process configuration, not to the
        store).
        """
        with self._lock:
            return {
                "state": self.state,
                "baseline": self.baseline,
                "last_cost": self.last_cost,
                "last_reason": self.last_reason,
                "evaluations": self.evaluations,
                "repacks_fired": self.repacks_fired,
                "standdown_cost": self._standdown_cost,
                "standdown_frequencies": self._standdown_frequencies,
                "reference_frequencies": self._reference_frequencies,
            }

    def load_state(self, state: "Mapping[str, Any] | None") -> None:
        """Restore :meth:`state_dict` output (a restarted serving process).

        Unknown keys are ignored and missing ones keep their defaults, so
        state saved by an older layout still loads; ``None`` (nothing was
        ever persisted) is a no-op.
        """
        if state is None:
            return
        with self._lock:
            value = state.get("state")
            if value in ("warming", "steady", "triggered", "stand-down"):
                self.state = value
            baseline = state.get("baseline")
            self.baseline = float(baseline) if baseline is not None else None
            last_cost = state.get("last_cost")
            self.last_cost = float(last_cost) if last_cost is not None else None
            self.last_reason = str(state.get("last_reason") or self.last_reason)
            self.evaluations = int(state.get("evaluations") or 0)
            self.repacks_fired = int(state.get("repacks_fired") or 0)
            standdown_cost = state.get("standdown_cost")
            self._standdown_cost = (
                float(standdown_cost) if standdown_cost is not None else None
            )
            frequencies = state.get("standdown_frequencies")
            self._standdown_frequencies = (
                dict(frequencies) if frequencies is not None else None
            )
            frequencies = state.get("reference_frequencies")
            self._reference_frequencies = (
                dict(frequencies) if frequencies is not None else None
            )

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready controller state for the service's ``stats``."""
        with self._lock:
            return {
                "state": self.state,
                "baseline_per_request": self.baseline,
                "last_cost_per_request": self.last_cost,
                "trigger_factor": self.trigger_factor,
                "standdown_factor": self.standdown_factor,
                "drift_threshold": self.drift_threshold,
                "horizon": self.horizon,
                "min_observations": self.min_observations,
                "evaluations": self.evaluations,
                "repacks_fired": self.repacks_fired,
                "standdown_cost": self._standdown_cost,
                "last_reason": self.last_reason,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AdaptiveRepackController state={self.state!r} "
            f"baseline={self.baseline} repacks={self.repacks_fired}>"
        )


@dataclass
class StagedRepack:
    """Phase-1 output: the new encoding, written but not yet visible.

    ``new_objects`` maps every version to its new object id;
    ``old_objects`` snapshots the ids backing versions before the rebuild
    (the garbage-collection candidates of the swap).
    """

    plan: StoragePlan
    new_objects: dict[VersionID, str]
    old_objects: set[str]
    num_deltas: int
    storage_before: float
    #: Catalog snapshot row staged by this rebuild (``None`` when the
    #: repository has no metadata catalog).
    snapshot_id: int | None = None
    #: Recreation cost (Φ units) the rebuild *actually paid* streaming the
    #: old encoding — the measured side of :func:`estimate_repack_cost`.
    staging_cost_paid: float = 0.0
    #: Wall seconds phase 1 took.
    staging_seconds: float = 0.0
    #: ``(role, token)`` lease fence captured when staging began (replica
    #: groups only).  The activation transaction validates it so a planner
    #: whose lease was stolen mid-staging cannot activate a stale epoch.
    fence: tuple[str, int] | None = None


class OnlineRepacker:
    """Re-encodes a repository according to a storage plan, epoch by epoch.

    One instance owns the repack lifecycle of one repository: it computes
    plans (optionally workload-aware), stages new encodings concurrently
    with readers, and performs the exclusive swap.  ``lock`` serializes
    whole repacks — hold it across a ``rebuild``/``swap`` pair so two
    operators cannot interleave epochs.
    """

    def __init__(self, repository: "Repository", *, payload_cache_size: int = 64) -> None:
        self.repository = repository
        self.payload_cache_size = int(payload_cache_size)
        self.lock = threading.Lock()

    @property
    def epoch(self) -> int:
        """The active epoch — owned by the repository, not this object.

        Plain repositories count epochs in memory (the CLI's state file
        persists the number); a catalog-backed repository reads it from
        the database, so it is monotonic across restarts and shared
        between processes.
        """
        return self.repository.epoch

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def compute_plan(
        self,
        *,
        problem: int = 3,
        threshold: float | None = None,
        threshold_factor: float | None = None,
        hop_limit: int = 2,
        algorithm: str = "auto",
        frequencies: Mapping[VersionID, float] | None = None,
    ) -> SolveResult:
        """Solve for a new storage plan over the repository's live payloads.

        ``frequencies`` makes the plan workload-aware: the optimizers weight
        each version's recreation cost by its observed access frequency
        (Figure 16), so hot versions end up materialized or on short chains.
        """
        if len(self.repository) == 0:
            raise ReproError("cannot repack an empty repository")
        instance = self.repository.problem_instance(
            access_frequencies=dict(frequencies) if frequencies else None,
            hop_limit=hop_limit,
        )
        resolved = default_threshold(
            instance, problem, threshold=threshold, factor=threshold_factor
        )
        return solve(instance, problem, threshold=resolved, algorithm=algorithm)

    # ------------------------------------------------------------------ #
    # phase 1: concurrent-reader-safe staging
    # ------------------------------------------------------------------ #
    def rebuild(
        self, plan: StoragePlan, *, fence: tuple[str, int] | None = None
    ) -> StagedRepack:
        """Write the new encoding next to the old one (readers unaffected).

        Safe to run while other threads serve checkouts from the same
        repository: only *new* content-addressed keys are written (existing
        keys are never overwritten) and nothing is repointed or deleted.
        Concurrent *commits* must be paused by the caller — a version
        committed after planning would not be covered by ``plan``.

        ``fence`` is the planner lease's ``(role, token)`` pair in replica
        groups; it rides on the staged result and is validated by the
        activation transaction (see :meth:`_swap_catalog`).
        """
        repository = self.repository
        for vid in repository.graph.version_ids:
            if vid not in plan:
                if repository.catalog is not None:
                    # A version adopted from a peer after the plan was
                    # computed keeps its current encoding: the activation
                    # transaction carries unplanned versions forward.
                    continue
                raise InvalidStoragePlanError(
                    f"plan does not cover repository version {vid!r}"
                )

        storage_before = repository.total_storage_cost()
        old_object_of = {
            vid: repository.object_id_of(vid) for vid in repository.graph.version_ids
        }

        # With a metadata catalog, the epoch being staged is a snapshot row
        # from the start: a crash anywhere in this phase leaves a staged
        # (or failed) row that prune_dead_epochs can clean, and the old
        # epoch keeps serving untouched.
        catalog = repository.catalog
        snapshot_id: int | None = None
        if catalog is not None:
            snapshot_id, _ = catalog.create_snapshot()

        # Payloads are content — independent of how they are encoded — so
        # the old encoding can be read lazily while new objects are
        # written.  The bounded cache makes consecutive reads along shared
        # old chains cheap without ever pinning the whole repository in
        # memory.
        old_reader = BatchMaterializer(
            repository.store, repository.encoder, cache_size=self.payload_cache_size
        )

        pre_existing = set(repository.store.object_ids())
        new_objects: dict[VersionID, str] = {}
        num_deltas = 0
        staging_started = time.perf_counter()
        staging_cost_paid = 0.0
        try:
            for vid in plan_order(plan):
                item = old_reader.materialize(old_object_of[vid])
                payload = item.payload
                staging_cost_paid += item.recreation_cost
                parent = plan.parent(vid)
                if parent is ROOT:
                    new_objects[vid] = repository.store.put_full(payload)
                    continue
                parent_item = old_reader.materialize(old_object_of[parent])
                staging_cost_paid += parent_item.recreation_cost
                delta = repository.encoder.diff(parent_item.payload, payload)
                new_objects[vid] = repository.store.put_delta(
                    new_objects[parent], delta
                )
                num_deltas += 1
        except BaseException as exc:
            if catalog is not None:
                # A shared store forbids removing the staged objects here:
                # a peer staging concurrently can own identical
                # content-addressed keys.  Mark the snapshot failed; the
                # next prune sweeps whatever no retained mapping reaches.
                catalog.fail_snapshot(snapshot_id, repr(exc))
            else:
                # An aborted staging must not leak half an epoch into the
                # store: drop every object this rebuild created (never ones
                # that were shared with the live encoding by content
                # addressing — those pre-existed).  Readers cannot
                # reference the staged keys, so removal is safe even
                # mid-traffic.
                for object_id in set(new_objects.values()) - pre_existing:
                    repository.store.remove(object_id)
            raise

        if catalog is not None:
            catalog.stage_mapping(snapshot_id, new_objects)

        return StagedRepack(
            plan=plan,
            new_objects=new_objects,
            old_objects=set(old_object_of.values()),
            num_deltas=num_deltas,
            storage_before=storage_before,
            snapshot_id=snapshot_id,
            staging_cost_paid=staging_cost_paid,
            staging_seconds=time.perf_counter() - staging_started,
            fence=fence,
        )

    # ------------------------------------------------------------------ #
    # phase 2: exclusive swap
    # ------------------------------------------------------------------ #
    def swap(self, staged: StagedRepack) -> dict[str, float]:
        """Repoint every version at its new object and collect the garbage.

        The caller must exclude concurrent readers and writers (the serving
        layer takes its coordinator's exclusive barrier); the swap itself
        is quick — repoint, sweep unreferenced objects, drop the stale
        payload cache, bump the epoch.  Nothing here replays or even reads a
        payload: the referenced set comes from the store's cost index
        (every staged object was indexed at write time, every old object
        when the rebuild streamed it), so the exclusive window stays at
        dictionary-walk cost no matter how large the store is.
        """
        repository = self.repository
        if repository.catalog is not None:
            return self._swap_catalog(staged)
        for vid, object_id in staged.new_objects.items():
            repository._set_object(vid, object_id)

        # Drop objects no chain references anymore.  The referenced set is
        # computed over *current* chains of all versions, so objects shared
        # between epochs by content addressing survive, as do old-epoch
        # bases still referenced by chains outside the plan.
        referenced: set[str] = set()
        for vid in repository.graph.version_ids:
            referenced.update(repository.store.chain_ids(repository.object_id_of(vid)))
        for object_id in staged.old_objects:
            if object_id not in referenced:
                repository.store.remove(object_id)

        # Stale payloads and chain metadata describe the dead epoch.
        repository.materializer.clear_cache()
        repository.epoch += 1

        # Deliberately no ``storage_after`` here: totalling storage
        # enumerates backend keys (and reads any object the index has not
        # seen — e.g. orphans left by a crashed staging), which must not
        # happen inside the caller's exclusive window.  Callers add it
        # after the barrier; see :meth:`repack`.
        return {
            "storage_before": staged.storage_before,
            "num_versions": float(len(staged.plan)),
            "num_materialized": float(len(staged.plan.materialized_versions())),
            "num_deltas": float(staged.num_deltas),
            "staging_cost_paid": staged.staging_cost_paid,
            "staging_seconds": staged.staging_seconds,
            "epoch": float(self.epoch),
        }

    def _swap_catalog(self, staged: StagedRepack) -> dict[str, float]:
        """The catalog form of the swap: one database transaction.

        :meth:`~repro.storage.catalog.MetadataCatalog.activate_snapshot`
        atomically repoints the active epoch at the staged mapping (with
        versions committed since the staging carried forward), so a crash
        leaves either the old epoch fully serving or the new one — never a
        mix.  Exactly one activation wins per epoch: losing the race to a
        peer process raises :class:`~repro.exceptions.SnapshotConflictError`
        after marking the staging failed (prunable).  When the staging
        carried a lease fence and the planner lease was stolen in between,
        the activation transaction raises
        :class:`~repro.exceptions.LeaseFencedError` — the zombie's staging
        is likewise failed before re-raising.  Dead epochs keep their
        mapping for point-in-time reads until pruned — garbage collection
        is :meth:`prune_dead_epochs`'s job, not the swap's.
        """
        repository = self.repository
        catalog = repository.catalog
        stats = {
            "storage_before": staged.storage_before,
            "num_versions": float(len(staged.plan)),
            "num_materialized": float(len(staged.plan.materialized_versions())),
            "num_deltas": float(staged.num_deltas),
        }
        try:
            new_epoch = catalog.activate_snapshot(
                staged.snapshot_id, stats, fence=staged.fence
            )
        except LeaseFencedError:
            catalog.fail_snapshot(
                staged.snapshot_id, "activation fenced: planner lease was stolen"
            )
            raise
        if new_epoch is None:
            catalog.fail_snapshot(
                staged.snapshot_id, "lost the activation race to a peer"
            )
            raise SnapshotConflictError(
                f"snapshot {staged.snapshot_id} was staged against an epoch "
                "that is no longer active (a peer repacked first); the "
                "staging was marked failed and can be pruned"
            )
        # Adopt the activated mapping (staged + carried-forward versions)
        # and the new epoch; the sync drops the payload cache on the
        # epoch change.
        repository.sync(force=True)
        report = dict(stats)
        report["staging_cost_paid"] = staged.staging_cost_paid
        report["staging_seconds"] = staged.staging_seconds
        report["epoch"] = float(new_epoch)
        report["snapshot_id"] = float(staged.snapshot_id)
        return report

    # ------------------------------------------------------------------ #
    # epoch garbage collection (catalog-backed repositories)
    # ------------------------------------------------------------------ #
    def prune_dead_epochs(self) -> dict[str, float]:
        """Drop every non-active snapshot and sweep unreferenced objects.

        Point-in-time reads of dead epochs end here: their mapping rows are
        deleted, then every store object not reachable from a *retained*
        mapping's chain is removed — which also collects orphans left by
        crashed or failed stagings and by lost commit races.  Callers must
        quiesce peer writers first (the serving layer holds its write gate;
        multi-process deployments prune from one process while the others
        only read — see the sharing rules in docs/serving.md): a peer's
        objects written but not yet mapped would look unreferenced.
        No-op without a catalog.
        """
        repository = self.repository
        catalog = repository.catalog
        if catalog is None:
            return {"pruned_snapshots": 0.0, "removed_objects": 0.0}
        with self.lock:
            pruned = 0
            for snapshot_id in catalog.prunable_snapshots():
                catalog.prune_snapshot(snapshot_id)
                pruned += 1
            referenced: set[str] = set()
            for object_id in catalog.live_object_ids():
                try:
                    referenced.update(repository.store.chain_ids(object_id))
                except ObjectNotFoundError:  # pragma: no cover - torn peer state
                    continue
            removed = 0
            for object_id in repository.store.object_ids():
                if object_id not in referenced:
                    repository.store.remove(object_id)
                    removed += 1
            return {
                "pruned_snapshots": float(pruned),
                "removed_objects": float(removed),
            }

    # ------------------------------------------------------------------ #
    # single-threaded convenience
    # ------------------------------------------------------------------ #
    def repack(self, plan: StoragePlan) -> dict[str, float]:
        """``rebuild`` + ``swap`` under the repack lock (offline callers)."""
        with self.lock:
            report = self.swap(self.rebuild(plan))
            report["storage_after"] = self.repository.total_storage_cost()
            return report
