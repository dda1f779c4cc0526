"""Thread-safe metrics registry with Prometheus text exposition.

Zero dependencies: counters, gauges and bucketed histograms guarded by a
single registry lock, rendered either as the Prometheus text format
(``GET /metrics``) or as a JSON-friendly snapshot (``/stats``).

Two design rules keep this off the hot path:

* Instrument sites hold a reference to the *instrument* (a labeled child
  returned by ``labels(...)``), not the registry, so a hot-path increment
  is one lock + one float add.
* A :class:`NullRegistry` (``MetricsRegistry.null()`` or the
  ``REPRO_METRICS=off`` environment switch) returns no-op instruments so
  disabled instrumentation costs a single attribute check at most.

Gauges that mirror state held elsewhere (cache hit counts, epoch number)
are populated at scrape time through ``register_collector`` callbacks
rather than on every cache operation.
"""

from __future__ import annotations

import bisect
import logging
import math
import os
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

logger = logging.getLogger("repro.obs")

LabelValues = Tuple[str, ...]

# Default latency buckets (seconds): 100us .. ~10s, roughly exponential.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_LOGGED_ONCE: set = set()
_LOGGED_ONCE_LOCK = threading.Lock()


def log_once(key: str, message: str, *args: object) -> bool:
    """Log *message* at WARNING level only the first time *key* is seen.

    Returns True when the line was emitted.  Used by the silent-failure
    fixes so a flapping backend raises a counter on every error but does
    not flood the log.
    """
    with _LOGGED_ONCE_LOCK:
        if key in _LOGGED_ONCE:
            return False
        _LOGGED_ONCE.add(key)
    logger.warning(message, *args)
    return True


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(names: Sequence[str], values: LabelValues, extra: str = "") -> str:
    parts = [
        '%s="%s"' % (name, _escape_label_value(str(value)))
        for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{%s}" % ",".join(parts)


class Counter:
    """A monotonically increasing counter (one labeled child)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (one labeled child)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A bucketed histogram (one labeled child) with quantile estimates."""

    __slots__ = ("_lock", "bounds", "_bucket_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, bounds: Sequence[float]) -> None:
        self._lock = lock
        self.bounds = tuple(sorted(bounds))
        self._bucket_counts = [0] * (len(self.bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._bucket_counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def state(self) -> Tuple[List[int], float, int]:
        with self._lock:
            return list(self._bucket_counts), self._sum, self._count

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile by linear interpolation within buckets.

        Values beyond the last finite bound are clamped to that bound, so
        the estimate is a lower bound for tail quantiles.
        """
        counts, _, total = self.state()
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        lower = 0.0
        for idx, count in enumerate(counts):
            upper = self.bounds[idx] if idx < len(self.bounds) else self.bounds[-1]
            if cumulative + count >= target:
                if count == 0:
                    return upper
                frac = (target - cumulative) / count
                return lower + (upper - lower) * frac
            cumulative += count
            lower = upper
        return self.bounds[-1] if self.bounds else 0.0


class _Family:
    """A named metric with HELP/TYPE text and labeled children."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        label_names: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets) if buckets is not None else None
        self.children: Dict[LabelValues, object] = {}
        self.lock = threading.Lock()

    def child(self, values: LabelValues):
        with self.lock:
            existing = self.children.get(values)
            if existing is not None:
                return existing
            if self.kind == "counter":
                made: object = Counter(self.lock)
            elif self.kind == "gauge":
                made = Gauge(self.lock)
            else:
                made = Histogram(self.lock, self.buckets or DEFAULT_BUCKETS)
            self.children[values] = made
            return made


class _NullInstrument:
    """No-op counter/gauge/histogram; every method swallows its args."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, *values: object) -> "_NullInstrument":
        return self

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()

# Public no-op instrument: a safe default for instance attributes that a
# later ``bind_metrics(registry)`` call replaces with live instruments.
NULL_INSTRUMENT = _NULL_INSTRUMENT


class _BoundFamily:
    """Public handle for a family: ``labels(...)`` or direct (unlabeled) use."""

    __slots__ = ("_family",)

    def __init__(self, family: _Family) -> None:
        self._family = family

    def labels(self, *values: object):
        family = self._family
        if len(values) != len(family.label_names):
            raise ValueError(
                "metric %s expects labels %r, got %r"
                % (family.name, family.label_names, values)
            )
        return family.child(tuple(str(v) for v in values))

    def _default_child(self):
        return self._family.child(())

    # Unlabeled convenience passthroughs.
    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def value(self) -> float:
        return self._default_child().value

    @property
    def count(self) -> int:
        return self._default_child().count

    @property
    def sum(self) -> float:
        return self._default_child().sum

    def quantile(self, q: float) -> float:
        return self._default_child().quantile(q)


class MetricsRegistry:
    """Registry of metric families plus scrape-time collector callbacks."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    @staticmethod
    def null() -> "NullRegistry":
        return NULL_REGISTRY

    # -- family constructors -------------------------------------------------

    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> _BoundFamily:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.label_names != tuple(labelnames):
                    raise ValueError(
                        "metric %s re-registered with a different shape" % name
                    )
                return _BoundFamily(existing)
            family = _Family(name, help_text, kind, labelnames, buckets)
            self._families[name] = family
            return _BoundFamily(family)

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> _BoundFamily:
        return self._family(name, help_text, "counter", labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> _BoundFamily:
        return self._family(name, help_text, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> _BoundFamily:
        return self._family(
            name, help_text, "histogram", labelnames, buckets or DEFAULT_BUCKETS
        )

    def register_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run before every render/snapshot.

        Collectors copy state that already lives elsewhere (cache counters,
        epoch numbers) into gauges, so the owning hot path pays nothing.
        """
        with self._lock:
            self._collectors.append(fn)

    def _run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            try:
                fn(self)
            except Exception:
                log_once(
                    "collector:%r" % (fn,),
                    "metrics collector %r failed; skipping it this scrape",
                    fn,
                )

    # -- output --------------------------------------------------------------

    def render_prometheus(self) -> str:
        """Render all families in the Prometheus text exposition format."""
        self._run_collectors()
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            lines.append("# HELP %s %s" % (family.name, family.help))
            lines.append("# TYPE %s %s" % (family.name, family.kind))
            with family.lock:
                children = sorted(family.children.items())
            for values, child in children:
                if isinstance(child, Histogram):
                    counts, total_sum, total_count = child.state()
                    cumulative = 0
                    for idx, bound in enumerate(child.bounds):
                        cumulative += counts[idx]
                        lines.append(
                            "%s_bucket%s %s"
                            % (
                                family.name,
                                _render_labels(
                                    family.label_names,
                                    values,
                                    'le="%s"' % _format_value(bound),
                                ),
                                cumulative,
                            )
                        )
                    cumulative += counts[-1]
                    lines.append(
                        "%s_bucket%s %s"
                        % (
                            family.name,
                            _render_labels(family.label_names, values, 'le="+Inf"'),
                            cumulative,
                        )
                    )
                    label_str = _render_labels(family.label_names, values)
                    lines.append(
                        "%s_sum%s %s"
                        % (family.name, label_str, _format_value(total_sum))
                    )
                    lines.append(
                        "%s_count%s %s" % (family.name, label_str, total_count)
                    )
                else:
                    lines.append(
                        "%s%s %s"
                        % (
                            family.name,
                            _render_labels(family.label_names, values),
                            _format_value(child.value),  # type: ignore[union-attr]
                        )
                    )
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly dump of every family, for the /stats block."""
        self._run_collectors()
        out: Dict[str, object] = {}
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            with family.lock:
                children = sorted(family.children.items())
            series = []
            for values, child in children:
                labels = dict(zip(family.label_names, values))
                if isinstance(child, Histogram):
                    counts, total_sum, total_count = child.state()
                    series.append(
                        {
                            "labels": labels,
                            "count": total_count,
                            "sum": total_sum,
                            "p50": child.quantile(0.5),
                            "p95": child.quantile(0.95),
                            "p99": child.quantile(0.99),
                        }
                    )
                else:
                    series.append({"labels": labels, "value": child.value})  # type: ignore[union-attr]
            out[family.name] = {"type": family.kind, "series": series}
        return out


class NullRegistry(MetricsRegistry):
    """Disabled registry: every instrument is a shared no-op singleton."""

    enabled = False

    def __init__(self) -> None:  # no locks, no storage
        pass

    def counter(self, name, help_text="", labelnames=()):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name, help_text="", labelnames=()):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name, help_text="", labelnames=(), buckets=None):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def register_collector(self, fn) -> None:  # type: ignore[override]
        pass

    def render_prometheus(self) -> str:
        return "# metrics disabled (REPRO_METRICS=off)\n"

    def snapshot(self) -> Dict[str, object]:
        return {}


NULL_REGISTRY = NullRegistry()


def metrics_enabled_from_env(environ: Optional[Dict[str, str]] = None) -> bool:
    env = os.environ if environ is None else environ
    return env.get("REPRO_METRICS", "").strip().lower() not in {"off", "0", "false", "no"}


def default_registry_from_env(
    environ: Optional[Dict[str, str]] = None,
) -> MetricsRegistry:
    """A fresh live registry, or the null registry when REPRO_METRICS=off."""
    if metrics_enabled_from_env(environ):
        return MetricsRegistry()
    return NULL_REGISTRY
