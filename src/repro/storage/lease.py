"""Replica-group planner lease: one repack planner per shared store.

A group of ``repro serve --join`` replicas over one ``sqlite://`` catalog
must not all run the adaptive repack controller: duplicate plans would
race ``activate_snapshot`` and waste staging work (exactly one activation
wins per epoch, the rest burn CPU and get pruned).  :class:`PlannerLease`
wraps the catalog's lease table in a runtime object each replica owns:

* a daemon thread calls :meth:`MetadataCatalog.acquire_lease` every
  ``renew_interval`` seconds — each call atomically acquires a free
  lease, renews an owned one, steals an expired one, or is rejected by a
  live peer;
* :attr:`is_holder` gates the controller (only the holder evaluates and
  stages); every other replica adopts finished swaps through the normal
  ``sync()``/change_seq poll;
* :meth:`fence` captures ``(role, token)`` when staging begins.  The
  token increments on every holder *change* and never otherwise, so
  ``activate_snapshot(..., fence=...)`` can reject a zombie planner — one
  paused past its TTL whose lease was stolen — even when no epoch swap
  happened in between (which the ``based_on`` check alone cannot see).

The clock is injectable so tests can drive expiry deterministically
(see :class:`repro.storage.testing.SkewedClock`).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable

from .catalog import MetadataCatalog

__all__ = ["PlannerLease", "PLANNER_ROLE"]

PLANNER_ROLE = "repack-planner"


class PlannerLease:
    """One replica's handle on the catalog's ``role`` lease.

    Parameters
    ----------
    catalog:
        The shared :class:`MetadataCatalog`; lease transactions run as
        single ``BEGIN IMMEDIATE`` transactions against it.
    holder:
        This replica's id (unique per process, e.g.
        ``replica-<host>-<pid>``).
    role:
        Lease name; replicas coordinate per role.
    ttl:
        Seconds a granted lease stays valid without renewal.  A holder
        paused (GC, SIGSTOP, VM migration) longer than this loses the
        lease to the first peer that retries.
    renew_interval:
        Seconds between renewal attempts; defaults to ``ttl / 3`` so a
        holder gets two retries before peers may steal.
    clock:
        Timestamp source, default :func:`time.time`.  Injected into the
        catalog transaction so skewed test clocks drive the expiry
        comparison itself, not just the thread cadence.
    on_event:
        Optional callback ``(event: dict) -> None`` invoked outside the
        lease lock for every observable transition: ``acquired``,
        ``renewed``, ``stolen`` (this replica stole), ``rejected``, and
        ``lost`` (this replica *was* the holder and a peer took over).
    """

    def __init__(
        self,
        catalog: MetadataCatalog,
        holder: str,
        *,
        role: str = PLANNER_ROLE,
        ttl: float = 10.0,
        renew_interval: float | None = None,
        clock: Callable[[], float] = time.time,
        on_event: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        if not 0 < ttl < math.inf:
            raise ValueError("lease ttl must be positive and finite (seconds)")
        if renew_interval is None:
            renew_interval = ttl / 3.0
        if not 0 < renew_interval < math.inf:
            raise ValueError(
                "lease renew interval must be positive and finite (seconds)"
            )
        self.catalog = catalog
        self.holder = holder
        self.role = role
        self.ttl = float(ttl)
        self.renew_interval = float(renew_interval)
        self._clock = clock
        self._on_event = on_event
        self._lock = threading.Lock()
        self._is_holder = False
        self._token = 0
        self._expires_at = 0.0
        self._counts: dict[str, int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # state machine
    # ------------------------------------------------------------------ #
    def try_acquire(self) -> bool:
        """One acquire/renew/steal attempt; returns holdership after it."""
        result = self.catalog.acquire_lease(
            self.role, self.holder, self.ttl, now=self._clock()
        )
        events: list[dict[str, Any]] = []
        with self._lock:
            was_holder = self._is_holder
            granted = result["holder"] == self.holder
            self._is_holder = granted
            if granted:
                self._token = int(result["token"])
                self._expires_at = float(result["expires_at"])
            event = dict(result)
            if was_holder and not granted:
                # We believed we held the lease but the catalog disagrees:
                # a peer stole it while we were paused.  Anything we staged
                # under the old token is now fenced.
                event["event"] = "lost"
            self._counts[event["event"]] = self._counts.get(event["event"], 0) + 1
            events.append(event)
        if self._on_event is not None:
            for event in events:
                self._on_event(event)
        return granted

    def release(self) -> bool:
        """Voluntarily give the lease up (clean shutdown)."""
        with self._lock:
            was_holder = self._is_holder
            self._is_holder = False
        released = self.catalog.release_lease(self.role, self.holder)
        if released and was_holder:
            with self._lock:
                self._counts["released"] = self._counts.get("released", 0) + 1
            if self._on_event is not None:
                self._on_event(
                    {"event": "released", "role": self.role, "holder": self.holder}
                )
        return released

    # ------------------------------------------------------------------ #
    # renewal thread
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the renewal thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=f"planner-lease-{self.holder}", daemon=True
        )
        self._thread.start()

    def stop(self, *, release: bool = True) -> None:
        """Stop renewing; by default also release so peers take over fast."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=max(1.0, self.renew_interval * 2))
            self._thread = None
        if release:
            try:
                self.release()
            except Exception:  # pragma: no cover - shutdown best-effort
                pass

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.try_acquire()
            except Exception:  # pragma: no cover - catalog hiccup; retry
                pass
            self._stop.wait(self.renew_interval)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def is_holder(self) -> bool:
        with self._lock:
            return self._is_holder

    @property
    def token(self) -> int:
        with self._lock:
            return self._token

    def fence(self) -> tuple[str, int]:
        """The ``(role, token)`` pair to stage a repack under.

        Captured at staging start and validated inside the activation
        transaction; if the lease changed hands in between, activation
        raises :class:`~repro.exceptions.LeaseFencedError`.
        """
        with self._lock:
            return (self.role, self._token)

    def state(self) -> dict[str, Any]:
        """JSON-ready snapshot of local belief plus the catalog row."""
        row = self.catalog.lease_state(self.role)
        with self._lock:
            return {
                "role": self.role,
                "replica_id": self.holder,
                "is_holder": self._is_holder,
                "token": self._token,
                "ttl": self.ttl,
                "renew_interval": self.renew_interval,
                "expires_at": self._expires_at,
                "holder": row["holder"] if row else None,
                "catalog_token": row["token"] if row else 0,
                "events": dict(self._counts),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PlannerLease role={self.role!r} holder={self.holder!r} "
            f"is_holder={self.is_holder}>"
        )
