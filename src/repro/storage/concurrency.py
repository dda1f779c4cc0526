"""Concurrency primitives for parallel serving.

The serving layer used to funnel every materialization through one global
lock, so wall-clock latency under concurrent load was bounded by a single
request at a time no matter how many chains the requests touched.  Two
small primitives replace that funnel:

* :class:`StripedLockManager` — a fixed array of re-entrant locks with a
  stable key→stripe mapping.  The serving layer keys stripes by the
  **subtree stripe key** of a delta chain (see
  ``ObjectStore.subtree_stripe_key``):
  the chain node just below the deepest fork point, which degenerates to
  the chain root for linear chains.  Checkouts of independent chains —
  and of *disjoint subtrees of one fork-heavy root* — proceed in
  parallel, while two requests replaying the same subtree still
  serialize (the second finds the first's work in the warm cache instead
  of duplicating it).  ``num_stripes=1`` degenerates to the old global
  lock, which is exactly how the benchmark measures the single-lock
  baseline.
* :class:`EpochCoordinator` — a writer-preference read/write lock.
  Checkouts (and every other request-path read) enter *shared* mode and
  run concurrently; structural mutations — commits, the repack swap, raw
  backend writes from peers — take a brief *exclusive* barrier.  The
  coordinator counts completed exclusive sections (``exclusive_epochs``)
  and exposes :attr:`EpochCoordinator.exclusive_held` so tests can assert
  what work happens inside the barrier.

Lock ordering (outermost first) across the serving stack: write gate →
repacker lock → coordinator → chain stripe → state/cache/index locks.  No
component acquires leftward while holding rightward, and no thread ever
holds two stripes at once, which is what keeps the whole arrangement
deadlock-free.
"""

from __future__ import annotations

import threading
import time
import zlib
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from ..obs.metrics import NULL_INSTRUMENT

__all__ = ["StripedLockManager", "EpochCoordinator"]


class StripedLockManager:
    """A fixed pool of re-entrant locks addressed by a stable key hash.

    Keys hashing to the same stripe share a lock — occasional false
    sharing between unrelated chains only costs a little parallelism,
    never correctness.  The hash is ``crc32`` of the key (not Python's
    salted ``hash``), so a key maps to the same stripe in every thread.
    """

    def __init__(self, num_stripes: int = 64) -> None:
        if num_stripes < 1:
            raise ValueError("a lock manager needs at least one stripe")
        self.num_stripes = int(num_stripes)
        self._locks = [threading.RLock() for _ in range(self.num_stripes)]
        self._timed = False
        self._wait_metric = NULL_INSTRUMENT

    def bind_metrics(self, registry) -> None:
        """Record stripe-lock wait time into *registry* on every acquire."""
        if not getattr(registry, "enabled", False):
            return
        self._wait_metric = registry.histogram(
            "repro_lock_wait_seconds",
            "Time spent blocked acquiring a serving-layer lock.",
            ("lock",),
        ).labels("chain_stripe")
        self._timed = True

    def stripe_for(self, key: str) -> int:
        """Index of the stripe responsible for ``key`` (stable per run)."""
        return zlib.crc32(key.encode("utf-8")) % self.num_stripes

    def lock_for(self, key: str) -> threading.RLock:
        """The lock guarding ``key``'s stripe."""
        return self._locks[self.stripe_for(key)]

    @contextmanager
    def holding(
        self, key: str, observer: Optional[Callable[[float], None]] = None
    ) -> Iterator[None]:
        """Context manager: hold ``key``'s stripe lock for the block.

        When metrics are bound (or a per-request *observer* is supplied,
        e.g. a trace span's ``add_lock_wait``), the time spent blocked
        before entry is measured; otherwise the acquire is untimed so the
        disabled path costs one boolean check.
        """
        lock = self.lock_for(key)
        if self._timed or observer is not None:
            started = time.perf_counter()
            lock.acquire()
            waited = time.perf_counter() - started
            self._wait_metric.observe(waited)
            if observer is not None:
                observer(waited)
        else:
            lock.acquire()
        try:
            yield
        finally:
            lock.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StripedLockManager stripes={self.num_stripes}>"


class EpochCoordinator:
    """A writer-preference read/write lock with an epoch counter.

    Any number of *shared* holders run concurrently; an *exclusive* holder
    runs alone.  Waiting exclusives block new shared entrants (writer
    preference), so the repack swap's barrier is bounded by the in-flight
    reads at the moment it asks — a steady stream of checkouts can never
    starve it.  Neither mode is re-entrant: a thread must not nest
    acquisitions (the serving layer never does — see the lock-ordering
    note in the module docstring).

    ``exclusive_epochs`` counts completed exclusive sections; it advances
    under the internal mutex, so a reader that saw epoch *n* before and
    after a block of work knows no exclusive section interleaved.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self._exclusive_epochs = 0
        self._timed = False
        self._shared_wait = NULL_INSTRUMENT
        self._exclusive_wait = NULL_INSTRUMENT
        self._exclusive_hold = NULL_INSTRUMENT

    def bind_metrics(self, registry) -> None:
        """Record coordinator wait and barrier-hold time into *registry*."""
        if not getattr(registry, "enabled", False):
            return
        waits = registry.histogram(
            "repro_lock_wait_seconds",
            "Time spent blocked acquiring a serving-layer lock.",
            ("lock",),
        )
        self._shared_wait = waits.labels("coordinator_shared")
        self._exclusive_wait = waits.labels("coordinator_exclusive")
        self._exclusive_hold = registry.histogram(
            "repro_exclusive_barrier_seconds",
            "Wall time the exclusive barrier was held (commits, swaps).",
        )
        self._timed = True

    # ------------------------------------------------------------------ #
    # shared (read) side
    # ------------------------------------------------------------------ #
    def acquire_shared(self) -> None:
        started = time.perf_counter() if self._timed else 0.0
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        if self._timed:
            self._shared_wait.observe(time.perf_counter() - started)

    def release_shared(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    @contextmanager
    def shared(self) -> Iterator[None]:
        """Hold the coordinator in shared mode for the block."""
        self.acquire_shared()
        try:
            yield
        finally:
            self.release_shared()

    # ------------------------------------------------------------------ #
    # exclusive (write) side
    # ------------------------------------------------------------------ #
    def acquire_exclusive(self) -> None:
        started = time.perf_counter() if self._timed else 0.0
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
                self._writer = True
            finally:
                self._writers_waiting -= 1
        if self._timed:
            now = time.perf_counter()
            self._exclusive_wait.observe(now - started)
            self._exclusive_acquired = now

    def release_exclusive(self) -> None:
        if self._timed:
            acquired = getattr(self, "_exclusive_acquired", None)
            if acquired is not None:
                self._exclusive_hold.observe(time.perf_counter() - acquired)
        with self._cond:
            self._writer = False
            self._exclusive_epochs += 1
            self._cond.notify_all()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """Hold the coordinator in exclusive mode for the block."""
        self.acquire_exclusive()
        try:
            yield
        finally:
            self.release_exclusive()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def exclusive_held(self) -> bool:
        """True while some thread holds the coordinator exclusively."""
        return self._writer

    @property
    def exclusive_epochs(self) -> int:
        """Number of exclusive sections that have completed."""
        with self._cond:
            return self._exclusive_epochs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EpochCoordinator readers={self._readers} writer={self._writer} "
            f"epochs={self._exclusive_epochs}>"
        )
