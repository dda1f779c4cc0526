"""Structured repack decision log: queryable ring buffer + catalog persistence.

Every adaptive-controller evaluate cycle, every repack and every planner
lease transition appends one record describing *why* the policy did what
it did: the trigger, the measured drift, the projected gain, the
amortization-gate verdict and the staging-cost estimate.  The in-memory
ring buffer answers ``/stats`` queries.  A persisted record is also
written through to the ``sqlite://`` metadata catalog, when the repository
has one, so the decision history survives a restart and can be audited
across processes, and to the ``--log-json`` sink, when one is open.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional

from .logsink import JsonLogSink
from .metrics import log_once

if TYPE_CHECKING:
    from ..storage.catalog import MetadataCatalog


class DecisionLog:
    """Thread-safe ring buffer of decision records, optionally persisted."""

    def __init__(
        self,
        capacity: int = 256,
        catalog: Optional["MetadataCatalog"] = None,
        sink: Optional[JsonLogSink] = None,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._lock = threading.Lock()
        self._records: deque = deque(maxlen=capacity)
        self._seq = 0
        self._catalog = catalog
        self._sink = sink
        prior: List[Dict[str, object]] = []
        if catalog is not None:
            try:
                prior = catalog.repack_decisions(limit=capacity)
            except Exception:
                log_once(
                    "decision-log:load",
                    "could not load persisted repack decisions from the catalog",
                )
        for record in prior:
            self._records.append(dict(record))
            seq = record.get("seq")
            if isinstance(seq, int) and seq > self._seq:
                self._seq = seq

    def append(
        self, record: Dict[str, object], *, persist: bool = True
    ) -> Dict[str, object]:
        """Stamp *record* with a sequence number, buffer and persist it.

        A persisted record goes to the catalog (stamped) and to the sink
        (as ``record`` was given, its ``event`` as the line's event).
        ``persist=False`` keeps the record in the ring buffer only — used
        for chatty events (lease renewals fire every second per replica)
        that must stay observable in ``/stats`` without flushing the
        bounded catalog audit trail out of its retention window.
        """
        with self._lock:
            self._seq += 1
            stamped = dict(record)
            stamped["seq"] = self._seq
            self._records.append(stamped)
        if not persist:
            return stamped
        if self._sink is not None:
            fields = {k: v for k, v in record.items() if k != "event"}
            self._sink.emit(str(record["event"]), **fields)
        if self._catalog is not None:
            try:
                self._catalog.append_repack_decision(stamped)
            except Exception:
                log_once(
                    "decision-log:persist",
                    "could not persist a repack decision to the catalog; "
                    "the in-memory ring buffer still has it",
                )
        return stamped

    def tail(self, limit: int = 50) -> List[Dict[str, object]]:
        """Most recent records, oldest first."""
        with self._lock:
            records = list(self._records)
        if limit >= 0:
            records = records[-limit:]
        return [dict(r) for r in records]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._seq
