"""Unit battery for the zero-dependency metrics registry.

Covers the satellite checklist: thread-safety of concurrent increments,
histogram bucket correctness, and a golden test of the Prometheus text
exposition format, plus the null-registry/env switch the overhead guard
relies on.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    MetricsRegistry,
    default_registry_from_env,
    log_once,
    metrics_enabled_from_env,
)


class TestInstruments:
    def test_counter_and_gauge_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        gauge = registry.gauge("g", "help")
        gauge.set(7)
        gauge.inc()
        gauge.inc(-3)
        assert gauge.value == 5.0

    def test_labeled_children_are_independent_and_cached(self):
        registry = MetricsRegistry()
        family = registry.counter("ops_total", "help", ("op",))
        family.labels("get").inc(2)
        family.labels("put").inc(5)
        assert family.labels("get").value == 2
        assert family.labels("put").value == 5
        # Same label values -> the same child object (hot paths bind once).
        assert family.labels("get") is family.labels("get")

    def test_label_arity_is_checked(self):
        registry = MetricsRegistry()
        family = registry.counter("ops_total", "help", ("op",))
        with pytest.raises(ValueError):
            family.labels("get", "extra")

    def test_reregistering_with_same_shape_returns_same_family(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "help", ("k",))
        b = registry.counter("x_total", "other help", ("k",))
        a.labels("v").inc()
        assert b.labels("v").value == 1

    def test_reregistering_with_different_shape_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help", ("k",))
        with pytest.raises(ValueError):
            registry.gauge("x_total", "help", ("k",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "help", ("other",))

    def test_concurrent_increments_are_lossless(self):
        """8 threads x 5000 increments land exactly 40000 on the counter."""
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total", "help")
        histogram = registry.histogram("hammer_seconds", "help")
        threads, per_thread = 8, 5000

        def worker() -> None:
            for _ in range(per_thread):
                counter.inc()
                histogram.observe(0.001)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert counter.value == threads * per_thread
        assert histogram.count == threads * per_thread
        assert histogram.sum == pytest.approx(threads * per_thread * 0.001)


class TestHistogram:
    def test_bucket_correctness(self):
        """Observations land in the first bucket whose bound is >= value."""
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "help", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.1, 0.5, 1.0, 5.0, 100.0):
            histogram.observe(value)
        child = histogram._default_child()
        counts, total_sum, total_count = child.state()
        # Bounds (0.1, 1.0, 10.0) + the +Inf overflow bucket:
        # 0.05, 0.1 -> le=0.1; 0.5, 1.0 -> le=1.0; 5.0 -> le=10.0; 100.0 -> +Inf
        assert counts == [2, 2, 1, 1]
        assert total_count == 6
        assert total_sum == pytest.approx(106.65)

    def test_rendered_bucket_counts_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "help", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            histogram.observe(value)
        text = registry.render_prometheus()
        assert 'h_bucket{le="0.1"} 1' in text
        assert 'h_bucket{le="1"} 2' in text
        assert 'h_bucket{le="+Inf"} 3' in text
        assert "h_count 3" in text

    def test_quantile_estimates_interpolate(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "help", buckets=(1.0, 2.0, 4.0))
        for _ in range(50):
            histogram.observe(0.5)
        for _ in range(50):
            histogram.observe(3.0)
        p50 = histogram.quantile(0.5)
        p99 = histogram.quantile(0.99)
        assert 0.0 < p50 <= 1.0
        assert 2.0 < p99 <= 4.0

    def test_default_buckets_cover_latency_range(self):
        assert DEFAULT_BUCKETS[0] <= 0.0001
        assert DEFAULT_BUCKETS[-1] >= 10.0


class TestPrometheusRendering:
    def test_golden_exposition(self):
        """Exact text-format output for a small registry."""
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "Requests served.", ("endpoint",)).labels(
            "checkout"
        ).inc(3)
        registry.gauge("repro_epoch", "Active epoch.").set(2)
        histogram = registry.histogram(
            "repro_request_seconds", "Latency.", buckets=(0.5, 1.0)
        )
        histogram.observe(0.25)
        histogram.observe(0.75)
        assert registry.render_prometheus() == (
            "# HELP repro_epoch Active epoch.\n"
            "# TYPE repro_epoch gauge\n"
            "repro_epoch 2\n"
            "# HELP repro_request_seconds Latency.\n"
            "# TYPE repro_request_seconds histogram\n"
            'repro_request_seconds_bucket{le="0.5"} 1\n'
            'repro_request_seconds_bucket{le="1"} 2\n'
            'repro_request_seconds_bucket{le="+Inf"} 2\n'
            "repro_request_seconds_sum 1\n"
            "repro_request_seconds_count 2\n"
            "# HELP repro_requests_total Requests served.\n"
            "# TYPE repro_requests_total counter\n"
            'repro_requests_total{endpoint="checkout"} 3\n'
        )

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help", ("k",)).labels('a"b\\c\nd').inc()
        text = registry.render_prometheus()
        assert 'c_total{k="a\\"b\\\\c\\nd"} 1' in text

    def test_collectors_run_at_scrape_time(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("mirrored", "help")
        source = {"value": 0}
        registry.register_collector(lambda _reg: gauge.set(source["value"]))
        source["value"] = 42
        assert "mirrored 42" in registry.render_prometheus()
        source["value"] = 7
        snapshot = registry.snapshot()
        assert snapshot["mirrored"]["series"][0]["value"] == 7

    def test_failing_collector_does_not_break_the_scrape(self):
        registry = MetricsRegistry()
        registry.counter("ok_total", "help").inc()

        def broken(_reg):
            raise RuntimeError("boom")

        registry.register_collector(broken)
        assert "ok_total 1" in registry.render_prometheus()

    def test_snapshot_reports_quantiles_for_histograms(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "help", ("endpoint",))
        histogram.labels("checkout").observe(0.002)
        snapshot = registry.snapshot()
        series = snapshot["h"]["series"][0]
        assert series["labels"] == {"endpoint": "checkout"}
        assert series["count"] == 1
        assert set(series) >= {"count", "sum", "p50", "p95", "p99"}


class TestNullRegistryAndEnv:
    def test_null_registry_is_inert(self):
        registry = MetricsRegistry.null()
        counter = registry.counter("x_total", "help", ("k",))
        counter.inc()
        counter.labels("a").inc()
        histogram = registry.histogram("h", "help")
        histogram.observe(1.0)
        assert counter.value == 0.0
        assert histogram.count == 0
        assert registry.enabled is False
        assert "disabled" in registry.render_prometheus()
        assert registry.snapshot() == {}

    def test_null_instrument_is_shared_and_chainable(self):
        assert NULL_INSTRUMENT.labels("a", "b") is NULL_INSTRUMENT
        NULL_INSTRUMENT.observe(1.0)
        NULL_INSTRUMENT.set(2.0)
        NULL_INSTRUMENT.inc()
        assert NULL_INSTRUMENT.quantile(0.5) == 0.0

    @pytest.mark.parametrize("value", ["off", "0", "false", "no", " OFF "])
    def test_env_switch_disables(self, value):
        assert metrics_enabled_from_env({"REPRO_METRICS": value}) is False
        assert default_registry_from_env({"REPRO_METRICS": value}) is NULL_REGISTRY

    @pytest.mark.parametrize("environ", [{}, {"REPRO_METRICS": "on"}])
    def test_env_switch_enables(self, environ):
        assert metrics_enabled_from_env(environ) is True
        registry = default_registry_from_env(environ)
        assert registry.enabled is True
        assert registry is not default_registry_from_env(environ)


class TestLogOnce:
    def test_second_emission_is_suppressed(self):
        key = "test:log-once:%s" % id(self)
        assert log_once(key, "first time %s", "x") is True
        assert log_once(key, "second time") is False
