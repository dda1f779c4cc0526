"""Fault-injection helpers for exercising storage failure paths.

Real storage fails: disks fill up, processes die mid-write, NFS flakes.
The recovery guarantees this package makes — an aborted repack staging
leaks nothing, a torn object is scrubbed rather than served, a crashed
append loses at most one workload-log line — are only guarantees if they
are *tested*, which needs failures that arrive deterministically at a
chosen operation.  :class:`FlakyBackend` provides exactly that: it wraps
any :class:`~repro.storage.backends.StorageBackend` and injects
configurable :class:`IOError`\\ s (optionally after a simulated partial
write) on the N-th put or get.

This module lives in the package rather than the test tree because fault
injection is useful beyond unit tests — soak scripts and the CI
fault-injection job drive the same wrapper — and because it must track
the backend interface it wraps.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Iterator, Sequence

from .backends import StorageBackend

__all__ = ["FlakyBackend", "TornValue", "InjectedFault", "SkewedClock"]


class InjectedFault(IOError):
    """The error :class:`FlakyBackend` raises when a fault triggers."""


class TornValue:
    """A stand-in for a partially-written object.

    When :class:`FlakyBackend` fails a put with ``partial_write=True`` it
    first stores one of these under the key — the moral equivalent of the
    truncated file a crash mid-write leaves behind.  Any code that ends up
    *serving* a :class:`TornValue` has a torn-write recovery bug.
    """

    def __init__(self, key: str) -> None:
        self.key = key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TornValue key={self.key!r}>"


class FlakyBackend(StorageBackend):
    """Wraps a backend and injects deterministic failures.

    ``fail_puts_after=N`` lets the next ``N`` puts succeed and raises
    :class:`InjectedFault` on every put after them; ``fail_gets_after``
    does the same for gets (``get_many`` counts as one get).  With
    ``partial_write=True`` a failing put first stores a
    :class:`TornValue` under the key before raising — simulating a crash
    that left a truncated object behind.  :meth:`heal` disarms everything;
    ``puts``/``gets`` count *successful* operations (they pause while a
    fault is firing) and ``injected`` counts the failures, surviving
    arm/heal cycles so tests can assert exactly where a failure landed.
    All bookkeeping is thread-safe, so the wrapper can sit under a serving
    stack exercising concurrent requests.

    ``latency_seed``/``latency_max`` arm a *seeded* latency mode: every
    put/get sleeps a deterministic pseudo-random duration drawn from
    ``[0, latency_max)``.  Timing races — a lease expiring while its
    holder is stuck in a slow store operation, a renewal losing to a
    stealer by microseconds — become reproducible in-process instead of
    needing subprocess SIGSTOP choreography: the same seed replays the
    same schedule of delays.
    """

    scheme = "flaky"

    def __init__(
        self,
        child: StorageBackend,
        *,
        fail_puts_after: int | None = None,
        fail_gets_after: int | None = None,
        partial_write: bool = False,
        latency_seed: int | None = None,
        latency_max: float = 0.0,
    ) -> None:
        self.child = child
        self.fail_puts_after = fail_puts_after
        self.fail_gets_after = fail_gets_after
        self.partial_write = partial_write
        if latency_max < 0:
            raise ValueError("latency_max must be non-negative (seconds)")
        self.latency_max = float(latency_max)
        self._latency_rng = (
            random.Random(latency_seed) if latency_seed is not None else None
        )
        self.delays_injected = 0
        self.delay_seconds = 0.0
        self.puts = 0
        self.gets = 0
        self.injected = 0
        self._lock = threading.Lock()

    @property
    def catalog(self) -> Any:
        """The wrapped backend's catalog: wrapping keeps a store cataloged."""
        return getattr(self.child, "catalog", None)

    def _maybe_delay(self) -> None:
        if self._latency_rng is None or self.latency_max <= 0:
            return
        with self._lock:
            delay = self._latency_rng.uniform(0.0, self.latency_max)
            self.delays_injected += 1
            self.delay_seconds += delay
        time.sleep(delay)

    # -- fault control --------------------------------------------------- #
    def heal(self) -> None:
        """Disarm every configured fault (counters keep their values)."""
        with self._lock:
            self.fail_puts_after = None
            self.fail_gets_after = None

    def _should_fail_put(self) -> bool:
        with self._lock:
            if self.fail_puts_after is not None and self.puts >= self.fail_puts_after:
                self.injected += 1
                return True
            self.puts += 1
            return False

    def _should_fail_get(self) -> bool:
        with self._lock:
            if self.fail_gets_after is not None and self.gets >= self.fail_gets_after:
                self.injected += 1
                return True
            self.gets += 1
            return False

    # -- StorageBackend --------------------------------------------------- #
    def put(self, key: str, value: Any) -> None:
        self._maybe_delay()
        if self._should_fail_put():
            if self.partial_write:
                self.child.put(key, TornValue(key))
            raise InjectedFault(f"injected put failure for {key!r}")
        self.child.put(key, value)

    def get(self, key: str) -> Any:
        self._maybe_delay()
        if self._should_fail_get():
            raise InjectedFault(f"injected get failure for {key!r}")
        return self.child.get(key)

    def get_many(self, keys: Sequence[str]) -> dict[str, Any]:
        self._maybe_delay()
        if self._should_fail_get():
            raise InjectedFault(f"injected get_many failure for {len(keys)} keys")
        return self.child.get_many(keys)

    def delete(self, key: str) -> None:
        self.child.delete(key)

    def keys(self) -> Iterator[str]:
        return self.child.keys()

    def __contains__(self, key: str) -> bool:
        return key in self.child

    def __len__(self) -> int:
        return len(self.child)

    def spec(self) -> str:
        return f"{self.scheme}+{self.child.spec()}"


class SkewedClock:
    """A deterministically-skewed clock for lease-expiry races.

    Real replica groups run on hosts whose clocks disagree by a constant
    offset, drift apart slowly, and jitter per reading.  All three are
    modelled, seeded, and injectable wherever a ``clock`` callable is
    accepted (e.g. :class:`~repro.storage.lease.PlannerLease`), so a
    "replica whose clock runs 5% fast steals a lease early" scenario is a
    unit test, not a flake.  ``advance`` additionally supports fully
    manual time for step-by-step state-machine tests; with
    ``manual=True`` the base clock is frozen at 0 and only ``advance``
    moves time.
    """

    def __init__(
        self,
        *,
        offset: float = 0.0,
        drift: float = 0.0,
        jitter: float = 0.0,
        seed: int = 0,
        base: Callable[[], float] | None = None,
        manual: bool = False,
    ) -> None:
        if jitter < 0:
            raise ValueError("jitter must be non-negative (seconds)")
        self.offset = float(offset)
        self.drift = float(drift)
        self.jitter = float(jitter)
        self._rng = random.Random(seed)
        self._manual = bool(manual)
        self._base = base if base is not None else time.time
        self._epoch = 0.0 if manual else self._base()
        self._advanced = 0.0
        self._lock = threading.Lock()

    def advance(self, seconds: float) -> None:
        """Move this clock forward by ``seconds`` (manual or hybrid mode)."""
        with self._lock:
            self._advanced += float(seconds)

    def __call__(self) -> float:
        with self._lock:
            base = 0.0 if self._manual else self._base()
            elapsed = base - self._epoch
            reading = base + self._advanced + self.offset + elapsed * self.drift
            if self.jitter:
                reading += self._rng.uniform(-self.jitter, self.jitter)
            return reading
