"""Remote-client retry policy and HTTP error-body reporting.

Transport-level failures on *idempotent* reads retry with bounded
exponential backoff (counted, never for writes, never for HTTP status
errors), and an HTTP error response whose body is not
the service's JSON shape surfaces a truncated snippet of the raw body
instead of being silently discarded.
"""

from __future__ import annotations

import io
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib import error as urlerror

import pytest

import repro.server.remote as remote
from repro.server.remote import RemoteServiceError, ServiceClient


def _url_error() -> urlerror.URLError:
    return urlerror.URLError(ConnectionResetError("peer reset"))


def _http_error(code: int, body: bytes) -> urlerror.HTTPError:
    return urlerror.HTTPError(
        "http://example/stats", code, "boom", hdrs=None, fp=io.BytesIO(body)
    )


class FlakyTransport:
    """Replaces ``remote._http``: fail ``failures`` times, then answer."""

    def __init__(self, failures: int, response: bytes = b"", error=None):
        self.failures = failures
        self.response = response
        self.error = error if error is not None else _url_error()
        self.calls: list[tuple[str, str]] = []

    def __call__(self, method, url, *, data=None, content_type=None, timeout=30.0):
        self.calls.append((method, url))
        if len(self.calls) <= self.failures:
            raise self.error
        return self.response


@pytest.fixture
def no_sleep(monkeypatch):
    slept: list[float] = []
    monkeypatch.setattr(remote.time, "sleep", slept.append)
    return slept


class TestServiceClientRetry:
    def test_get_retries_posts_do_not(self, monkeypatch, no_sleep):
        transport = FlakyTransport(1, json.dumps({"ok": True}).encode())
        monkeypatch.setattr(remote, "_http", transport)
        client = ServiceClient("http://127.0.0.1:1")
        assert client.stats() == {"ok": True}
        assert client.retries == 1

        transport2 = FlakyTransport(99)
        monkeypatch.setattr(remote, "_http", transport2)
        with pytest.raises(RemoteServiceError):
            client.checkout_many(["v1"])
        assert len(transport2.calls) == 1

    def test_metrics_text_retries(self, monkeypatch, no_sleep):
        transport = FlakyTransport(2, b"# HELP x\n")
        monkeypatch.setattr(remote, "_http", transport)
        client = ServiceClient("http://127.0.0.1:1")
        assert client.metrics_text() == "# HELP x\n"
        assert client.retries == 2

    def test_get_retries_transport_failures(self, monkeypatch, no_sleep):
        transport = FlakyTransport(2, json.dumps({"version": "v1"}).encode())
        monkeypatch.setattr(remote, "_http", transport)
        client = ServiceClient("http://127.0.0.1:1")
        assert client.checkout("v1") == {"version": "v1"}
        assert len(transport.calls) == 3
        assert client.retries == 2
        assert len(no_sleep) == 2
        assert no_sleep[0] < no_sleep[1]  # exponential backoff

    @pytest.mark.parametrize(
        "call",
        [
            lambda client: client.commit(["a"], message="m"),
            lambda client: client.plan(threshold=1.0),
            lambda client: client.repack(dry_run=True),
            lambda client: client.prune(),
        ],
        ids=["commit", "plan", "repack", "prune"],
    )
    def test_writes_are_single_shot(self, monkeypatch, no_sleep, call):
        transport = FlakyTransport(99)
        monkeypatch.setattr(remote, "_http", transport)
        client = ServiceClient("http://127.0.0.1:1")
        with pytest.raises(RemoteServiceError) as excinfo:
            call(client)
        assert excinfo.value.status is None
        assert [method for method, _ in transport.calls] == ["POST"]
        assert client.retries == 0
        assert no_sleep == []

    def test_get_gives_up_after_bounded_attempts(self, monkeypatch, no_sleep):
        transport = FlakyTransport(99)
        monkeypatch.setattr(remote, "_http", transport)
        client = ServiceClient("http://127.0.0.1:1")
        with pytest.raises(RemoteServiceError):
            client.stats()
        assert len(transport.calls) == remote._RETRY_ATTEMPTS
        assert client.retries == remote._RETRY_ATTEMPTS - 1
        assert len(no_sleep) == remote._RETRY_ATTEMPTS - 1
        assert no_sleep[0] < no_sleep[1]  # exponential backoff

    def test_http_status_errors_are_never_retried(self, monkeypatch, no_sleep):
        transport = FlakyTransport(99, error=_http_error(500, b"oops"))
        monkeypatch.setattr(remote, "_http", transport)
        client = ServiceClient("http://127.0.0.1:1")
        with pytest.raises(RemoteServiceError):
            client.stats()
        assert len(transport.calls) == 1
        assert client.retries == 0


class TestErrorBodyReporting:
    def test_json_error_shape_still_preferred(self, monkeypatch):
        body = json.dumps({"error": "no such version"}).encode()
        transport = FlakyTransport(99, error=_http_error(404, body))
        monkeypatch.setattr(remote, "_http", transport)
        client = ServiceClient("http://127.0.0.1:1")
        with pytest.raises(RemoteServiceError, match="no such version"):
            client.checkout("v404")

    def test_non_json_body_surfaces_truncated_snippet(self, monkeypatch):
        body = b"<html><body>502 Bad Gateway from the proxy</body></html>"
        transport = FlakyTransport(99, error=_http_error(502, body))
        monkeypatch.setattr(remote, "_http", transport)
        client = ServiceClient("http://127.0.0.1:1")
        with pytest.raises(RemoteServiceError, match="Bad Gateway from the proxy"):
            client.checkout("v1")

    def test_snippet_is_truncated(self, monkeypatch):
        body = b"x" * 1000
        transport = FlakyTransport(99, error=_http_error(500, body))
        monkeypatch.setattr(remote, "_http", transport)
        client = ServiceClient("http://127.0.0.1:1")
        with pytest.raises(RemoteServiceError) as excinfo:
            client.checkout("v1")
        message = str(excinfo.value)
        assert "x" * 200 in message
        assert "x" * 201 not in message

    def test_empty_body_keeps_the_plain_message(self, monkeypatch):
        transport = FlakyTransport(99, error=_http_error(500, b""))
        monkeypatch.setattr(remote, "_http", transport)
        client = ServiceClient("http://127.0.0.1:1")
        with pytest.raises(RemoteServiceError, match=r"HTTP 500$"):
            client.checkout("v1")


class _Unavailable(BaseHTTPRequestHandler):
    """Answers every GET with 503 and the service's JSON error shape."""

    def do_GET(self) -> None:  # noqa: N802
        body = json.dumps({"error": "draining for restart"}).encode()
        self.send_response(503)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass


def test_metrics_text_error_keeps_status_and_detail():
    """``/metrics`` goes through the same request path as every JSON call:
    an HTTP error keeps its status and the body's detail."""
    server = HTTPServer(("127.0.0.1", 0), _Unavailable)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        with pytest.raises(RemoteServiceError) as excinfo:
            client.metrics_text()
    finally:
        server.shutdown()
        server.server_close()
    assert excinfo.value.status == 503
    assert "draining for restart" in str(excinfo.value)
    assert client.retries == 0
