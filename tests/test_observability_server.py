"""End-to-end observability: ``/metrics``, ``?trace=1``, decision-log
persistence, the JSON log sink, and the instrumentation overhead guard.

The live-server tests reuse the serving battery's idiom: an ephemeral
port, a handful of committed versions, mixed requests, then assertions
against the scrape/trace surfaces the requests must have populated.
"""

from __future__ import annotations

import json
import time
import urllib.request

import pytest

from repro.obs import JsonLogSink
from repro.obs.metrics import MetricsRegistry
from repro.server.httpd import serve_in_thread
from repro.server.remote import ServiceClient
from repro.server.service import VersionStoreService
from repro.storage.repository import Repository


def _build_repo(versions: int = 12, width: int = 30) -> tuple[Repository, list[str]]:
    repo = Repository(cache_size=0)
    payload = [f"row,{i},{i * 7}" for i in range(width)]
    vids = [repo.commit(payload, message="base")]
    for step in range(1, versions):
        payload = payload + [f"appended,{step},{step * 11}"]
        vids.append(repo.commit(payload, message=f"step {step}"))
    return repo, vids


@pytest.fixture()
def served_repo():
    repo, vids = _build_repo()
    service = VersionStoreService(repo, cache_size=64, metrics=MetricsRegistry())
    server, _thread = serve_in_thread(service, host="127.0.0.1", port=0)
    try:
        yield server, service, repo, vids
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return (
            response.status,
            dict(response.headers),
            response.read().decode("utf-8"),
        )


class TestMetricsEndpoint:
    def test_scrape_exposes_key_series(self, served_repo):
        """After mixed traffic every instrumented layer shows up nonzero."""
        server, service, repo, vids = served_repo
        client = ServiceClient(server.url)
        for vid in vids:
            client.checkout(vid)
        client.checkout(vids[-1])  # warm repeat -> cache hit
        client.checkout_many(vids[:4])
        client.commit(["fresh,1"], message="traffic")

        status, headers, text = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")

        # Service layer: per-endpoint latency + outcome counters.
        assert 'repro_requests_total{endpoint="checkout",outcome="ok"}' in text
        assert 'repro_requests_total{endpoint="commit",outcome="ok"} 1' in text
        assert 'repro_request_seconds_count{endpoint="checkout"}' in text
        # HTTP layer.
        assert 'repro_http_requests_total{endpoint="checkout",code="200"}' in text
        # Materializer: the warm repeat must have hit the cache.
        hits = [
            line
            for line in text.splitlines()
            if line.startswith("repro_cache_hits ")
        ]
        assert hits and float(hits[0].split()[-1]) > 0
        # Backend layer, labeled by scheme.
        assert 'repro_backend_ops_total{scheme="memory",op="get"}' in text
        # Scrape-time collectors mirroring repository state.
        assert "repro_versions 13" in text  # 12 committed + 1 from traffic
        assert "repro_epoch 0" in text
        # Histograms render the cumulative +Inf bucket.
        assert 'repro_request_seconds_bucket{endpoint="checkout",le="+Inf"}' in text

    def test_disabled_registry_serves_a_stub(self):
        repo, vids = _build_repo(versions=2, width=4)
        service = VersionStoreService(
            repo, cache_size=8, metrics=MetricsRegistry.null()
        )
        server, _thread = serve_in_thread(service, host="127.0.0.1", port=0)
        try:
            ServiceClient(server.url).checkout(vids[-1])
            status, _headers, text = _get(server.url + "/metrics")
            assert status == 200
            assert "disabled" in text
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestRequestTracing:
    def test_checkout_trace_query_param(self, served_repo):
        server, service, repo, vids = served_repo
        status, headers, body = _get(
            f"{server.url}/checkout/{vids[-1]}?trace=1"
        )
        assert status == 200
        payload = json.loads(body)
        trace = payload["trace"]
        assert headers["X-Trace"] == trace["trace_id"]
        root = trace["span"]
        assert root["name"] == "request"
        shared = root["children"][0]
        assert shared["name"] == "shared"
        materialize = shared["children"][0]
        assert materialize["name"] == "materialize"
        assert materialize["tags"]["chain_length"] >= 1
        assert materialize["wall_ms"] >= 0.0
        assert "lock_wait_ms" in materialize

    def test_untraced_checkout_has_no_trace_payload(self, served_repo):
        server, service, repo, vids = served_repo
        _status, headers, body = _get(f"{server.url}/checkout/{vids[0]}")
        assert "trace" not in json.loads(body)
        assert "X-Trace" not in headers

    def test_checkout_many_trace_via_body_flag(self, served_repo):
        server, service, repo, vids = served_repo
        request = urllib.request.Request(
            server.url + "/checkout_many",
            data=json.dumps({"versions": vids[:3], "trace": True}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            payload = json.loads(response.read().decode("utf-8"))
            assert response.headers["X-Trace"]
        names = [
            child["name"] for child in payload["trace"]["span"]["children"]
        ]
        assert "shared" in names


class TestStatsAndDecisionLog:
    def test_stats_carries_metrics_and_adaptive_decisions(self, served_repo):
        server, service, repo, vids = served_repo
        client = ServiceClient(server.url)
        for vid in vids[:6]:
            client.checkout(vid)

        request = urllib.request.Request(
            server.url + "/repack",
            data=json.dumps({"adaptive": True}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200

        stats = client.stats()
        assert stats["metrics"]["repro_requests_total"]["type"] == "counter"
        decisions = stats["repack"]["decisions"]
        assert decisions, "adaptive cycle must log a decision"
        last = decisions[-1]
        assert last["event"] == "adaptive_evaluate"
        assert last["verdict"] in {"fired", "vetoed", "held"}
        assert last["seq"] == stats["repack"]["decision_seq"]

    def test_decision_log_survives_service_restart(self, tmp_path):
        """sqlite-cataloged decisions reload into a fresh service."""
        path = tmp_path / "repo.db"
        repo = Repository(backend=f"sqlite://{path}", cache_size=0)
        payload = [f"row,{i}" for i in range(12)]
        vids = [repo.commit(payload, message="base")]
        vids.append(repo.commit(payload + ["tail,1"], message="step"))

        service = VersionStoreService(repo, cache_size=8, adaptive_repack=True)
        for vid in vids * 3:
            service.checkout(vid)
        service.policy.cycle()
        first_seq = service.policy.decision_log.last_seq
        assert first_seq >= 1
        assert service.policy.decision_log.tail()[-1]["event"] == "adaptive_evaluate"
        service.close()
        repo.catalog.close()

        reopened = Repository(backend=f"sqlite://{path}", cache_size=0)
        revived = VersionStoreService(
            reopened, cache_size=8, adaptive_repack=True
        )
        try:
            tail = revived.policy.decision_log.tail()
            assert tail, "decisions must reload from the catalog"
            assert tail[-1]["event"] == "adaptive_evaluate"
            assert revived.policy.decision_log.last_seq == first_seq
            # New decisions continue the sequence rather than restarting.
            revived.policy.cycle()
            assert revived.policy.decision_log.last_seq == first_seq + 1
        finally:
            revived.close()
            reopened.catalog.close()


class TestJsonLogSinkIntegration:
    def test_server_emits_request_and_decision_events(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        repo, vids = _build_repo(versions=3, width=6)
        service = VersionStoreService(
            repo,
            cache_size=8,
            metrics=MetricsRegistry(),
            log_sink=JsonLogSink(path),
        )
        server, _thread = serve_in_thread(service, host="127.0.0.1", port=0)
        try:
            client = ServiceClient(server.url)
            client.checkout(vids[-1])
            service.policy.cycle()
        finally:
            server.shutdown()
            server.server_close()
            service.close()

        events = [
            json.loads(line)
            for line in open(path, encoding="utf-8").read().splitlines()
        ]
        kinds = {event["event"] for event in events}
        assert "request" in kinds
        assert "adaptive_evaluate" in kinds
        request = next(e for e in events if e["event"] == "request")
        assert request["endpoint"] == "checkout"
        assert request["status"] == 200
        assert request["duration_ms"] >= 0.0


class TestOverheadGuard:
    def test_instrumented_checkout_overhead_within_ten_percent(self):
        """The live registry may not slow checkouts by more than 10%.

        Cold-path materializations of wide payloads (cache_size=0) make
        each checkout do real replay work, so per-request instrumentation
        (pre-bound counter adds, a few timed lock acquires, and the
        warm-cost prediction's index walk) must disappear into it.
        """
        repo, vids = _build_repo(versions=20, width=1600)
        stream = [vids[i % len(vids)] for i in range(40)]

        def measure(metrics: MetricsRegistry) -> float:
            service = VersionStoreService(repo, cache_size=0, metrics=metrics)
            try:
                service.checkout(vids[0])  # warm code paths / allocator
                start = time.perf_counter()
                for vid in stream:
                    service.checkout(vid)
                return time.perf_counter() - start
            finally:
                service.close()

        # Each round measures the two variants back to back, so both see
        # the same machine state; the best round is the cleanest paired
        # sample and one-off scheduler stalls (this runs inside the full
        # suite, possibly on shared runners) cannot fail the guard unless
        # every round exceeds the bound.
        best = float("inf")
        for _round in range(10):
            plain = measure(MetricsRegistry.null())
            instrumented = measure(MetricsRegistry())
            best = min(best, instrumented / plain)
            if best <= 1.10:
                return
        pytest.fail(
            f"instrumented checkout at best {best:.3f}x the disabled-registry "
            "run (> 1.10 in all 10 paired rounds)"
        )
