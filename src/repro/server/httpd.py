"""HTTP transport for :class:`~repro.server.service.VersionStoreService`.

Everything is plain standard library (``http.server.ThreadingHTTPServer``)
so running a version store behind a port needs no dependencies beyond the
package itself.  The socket carries one JSON service API (for clients and
the CLI, whose ``checkout``, ``stats``, ``solve`` and ``repack`` take
``http://HOST:PORT`` as well as a directory):

========  ======================  =============================================
Method    Path                    Body / response
========  ======================  =============================================
GET       ``/healthz``            ``{"status": "ok"}``
GET       ``/metrics``            Prometheus text exposition of the service
                                  registry (``REPRO_METRICS=off`` disables)
GET       ``/stats``              serving + repository counters, the metrics
                                  snapshot and the repack decision-log tail
GET       ``/checkout/VID``       one version's payload and serving costs
POST      ``/checkout``           ``{"version": VID}`` — same as GET form
========  ======================  =============================================

Checkout routes accept ``?trace=1`` (or ``"trace": true`` in a POST body):
the response then carries an ``X-Trace`` header and a ``"trace"`` span dump
covering the coalesce wait, shared section and materialization with its
stripe-lock wait attributed.  A checkout body is written around its
payload's encoding from the server's :class:`EncodedPayloads` memo, so a
warm hit does not encode its payload again; the bytes are those of
``json.dumps(response.to_dict())``.

========  ======================  =============================================
Method    Path                    Body / response
========  ======================  =============================================
POST      ``/checkout_many``      ``{"versions": [...]}`` — batched serving
POST      ``/commit``             ``{"payload": ..., "parents"?, "message"?,
                                  "branch"?}`` → ``{"version": VID}``
POST      ``/plan``               ``{"problem"?, "threshold"?,
                                  "threshold_factor"?, "hop_limit"?,
                                  "algorithm"?}`` → metrics + plan
POST      ``/repack``             ``{"problem"?, "threshold"?,
                                  "threshold_factor"?, "hop_limit"?,
                                  "algorithm"?, "workload"?, "half_life"?,
                                  "dry_run"?}`` —
                                  workload-aware online repack → report;
                                  ``{"adaptive": true}`` instead runs one
                                  adaptive-controller evaluation cycle
GET       ``/snapshots``          epoch history from the metadata catalog
                                  (``sqlite://`` stores; 400 otherwise)
POST      ``/prune``              drop dead/failed epochs and sweep
                                  unreferenced objects → GC report (409 on
                                  a replica not holding the planner lease)
========  ======================  =============================================

Payloads travel as JSON values, so the service API handles any
JSON-representable version content (the CLI's line-oriented files become
lists of strings).  Only ``GET`` and ``POST`` are answered: the stdlib
replies 501 with ``Connection: close`` to any other verb, so no route ever
accepts raw object bytes from the network.  Several processes share one
store by each serving it over a ``sqlite://`` catalog, not through this
transport.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from ..exceptions import LeaseError, ReproError, VersionNotFoundError
from ..obs import MetricsRegistry, Trace
from .policy import PLAN_OPTIONS
from .service import CheckoutResponse, VersionStoreService, batch_response

__all__ = ["EncodedPayloads", "VersionStoreHTTPServer", "serve", "serve_in_thread"]

#: Maximum accepted request body (64 MiB) — a plain guard against a
#: misbehaving client exhausting server memory with one request.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Byte cap of a server's memo of encoded checkout payloads (1 MiB).  The
#: memo's bytes are resident on top of the warm cache's decoded payloads,
#: which share their row strings while encodings share nothing, so the cap
#: is sized against the server's memory rather than the hot set.
ENCODED_PAYLOAD_BYTES = 1 << 20

#: Checkout requests between two halvings of the memo's request counts:
#: a version that stops being read loses its rank within a few periods.
COUNT_HALVING_PERIOD = 4096


class EncodedPayloads:
    """Object id → ``json.dumps(payload).encode()``, capped at
    :data:`ENCODED_PAYLOAD_BYTES`.

    Object ids are content digests (a delta's id digests its base's id and
    its operations), so the bytes behind an id never change and the memo
    needs no invalidation: a repack points a version at a new id, and the
    entries of ids no longer served stop being counted and are displaced.

    Entries are ranked by request count, and every count is halved each
    :data:`COUNT_HALVING_PERIOD` requests.  A new encoding is kept while it
    fits; in a full memo it displaces the least-counted entries, and only
    when the newcomer is counted more than twice as often as every one of
    them.  A payload larger than the cap is served and never kept.

    What the memo costs in memory beyond its cap comes from turnover: each
    displaced encoding leaves a hole in the heap.  Recency plays no part,
    because an LRU memo turns over on every cold read.  The factor of two
    keeps chance differences from turning it over: under uniform reads the
    counts differ by chance alone, and over 400 versions of 21 KB a memo
    that admits any higher count displaces an entry about once every 20
    requests, against once every 150 with the factor.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._bodies: dict[str, bytes] = {}
        self._counts: dict[str, int] = {}
        self._requests = 0
        self.bytes = 0
        self.hits = 0
        self.misses = 0

    def encoded(self, object_id: str, payload: Any) -> bytes:
        """``json.dumps(payload).encode()`` for the object ``object_id``,
        from the memo when it holds it.  Counts one request."""
        with self._lock:
            self._counts[object_id] = self._counts.get(object_id, 0) + 1
            self._requests += 1
            if self._requests >= COUNT_HALVING_PERIOD:
                self._halve_counts()
            body = self._bodies.get(object_id)
            if body is not None:
                self.hits += 1
                return body
            self.misses += 1
        body = json.dumps(payload).encode("utf-8")
        with self._lock:
            self._admit(object_id, body)
        return body

    def _halve_counts(self) -> None:
        self._requests = 0
        counts = {}
        for key, count in self._counts.items():
            if count > 1 or key in self._bodies:
                counts[key] = count // 2
        self._counts = counts

    def _admit(self, object_id: str, body: bytes) -> None:
        size = len(body)
        if object_id in self._bodies or size > ENCODED_PAYLOAD_BYTES:
            return
        # A halving between this request's count and its admission may
        # have dropped the key; every kept entry must stay counted.
        count = self._counts.setdefault(object_id, 0)
        room = ENCODED_PAYLOAD_BYTES - self.bytes
        victims = []
        if room < size:
            for key in sorted(self._bodies, key=self._counts.__getitem__):
                if 2 * self._counts[key] >= count:
                    return
                victims.append(key)
                room += len(self._bodies[key])
                if room >= size:
                    break
        for key in victims:
            self.bytes -= len(self._bodies.pop(key))
        self._bodies[object_id] = body
        self.bytes += size

    def snapshot(self) -> dict[str, int]:
        """The memo's counters, as ``/stats`` reports them."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._bodies),
                "bytes": self.bytes,
                "capacity_bytes": ENCODED_PAYLOAD_BYTES,
            }

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Scrape-time gauges copied from the memo's own counters, so a
        request pays nothing for them."""
        hits = registry.gauge(
            "repro_encoded_payload_hits",
            "Checkouts whose payload encoding came from the memo (lifetime).",
        )
        misses = registry.gauge(
            "repro_encoded_payload_misses",
            "Checkouts that encoded their payload (lifetime).",
        )
        held = registry.gauge(
            "repro_encoded_payload_bytes", "Bytes of encodings the memo holds."
        )

        def collect(_registry: MetricsRegistry) -> None:
            hits.set(self.hits)
            misses.set(self.misses)
            held.set(self.bytes)

        registry.register_collector(collect)


def _field(body: dict[str, Any], name: str, kind: type) -> Any:
    """``body[name]`` when it is a ``kind``, ``None`` when absent or null,
    and a 400 for anything else — before the service sees the request."""
    value = body.get(name)
    if value is not None and not isinstance(value, kind):
        raise ReproError(f"{name!r} must be a {kind.__name__}")
    return value


def _string_list(body: dict[str, Any], name: str) -> list[str] | None:
    """``_field(body, name, list)`` whose every item is a string."""
    values = _field(body, name, list)
    if values is not None and not all(isinstance(item, str) for item in values):
        raise ReproError(f"every item of {name!r} must be a str")
    return values


def _plan_options(body: dict[str, Any]) -> dict[str, Any]:
    """The plan knobs a body sets, passed on unconverted: the service checks
    them before any scan and answers a malformed one with a 400."""
    return {key: body[key] for key in PLAN_OPTIONS if key in body}


class VersionStoreHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`VersionStoreService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: VersionStoreService) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.encoded_payloads = EncodedPayloads()
        # Transport-level instruments, shared by every per-request handler.
        # Endpoint labels are the first path segment only (never a version
        # id), so the label cardinality is bounded by the route table.
        registry = service.metrics
        self.metrics_on = bool(getattr(registry, "enabled", False))
        self.http_seconds = registry.histogram(
            "repro_http_request_seconds",
            "HTTP request handling time by endpoint: from the parsed request "
            "headers until the response is written to the socket.",
            ("endpoint",),
        )
        self.http_requests = registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint and status code.",
            ("endpoint", "code"),
        )
        self.encoded_payloads.bind_metrics(registry)

    @property
    def url(self) -> str:
        """Base URL the server answers on (real port, even when bound to 0)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    # Per-request handler: every route delegates to the shared service,
    # which owns all locking; handler instances hold no state of their own.
    server: VersionStoreHTTPServer
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection.  A response leaves as two
    # writes (header block, then body); with Nagle on, the body waits for
    # the client's delayed ACK of the headers, ~40 ms on a keep-alive
    # connection, whatever the body costs to build.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------- #
    @property
    def service(self) -> VersionStoreService:
        return self.server.service

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging is the operator's job (use --log-json instead)

    #: Status of the last response sent, recorded for metrics and the log
    #: sink (0 until a response goes out).
    _last_status = 0

    def send_response(self, code: int, message: str | None = None) -> None:
        self._last_status = code
        super().send_response(code, message)

    def _send_json(
        self,
        status: int,
        body: dict[str, Any],
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        self._send_parts(status, (json.dumps(body).encode("utf-8"),), extra_headers)

    def _send_parts(
        self,
        status: int,
        parts: tuple[bytes, ...],
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        """Send a JSON body given as consecutive buffers, each written as it
        is (never joined into one copy)."""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(sum(map(len, parts))))
        if extra_headers:
            for name, value in extra_headers.items():
                self.send_header(name, value)
        self.end_headers()
        for part in parts:
            self.wfile.write(part)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> bytes:
        self._body_consumed = True
        return self.rfile.read(self._body_length) if self._body_length else b""

    def _read_json(self) -> dict[str, Any]:
        raw = self._read_body()
        if not raw:
            return {}
        body = json.loads(raw.decode("utf-8"))
        if not isinstance(body, dict):
            raise ReproError("request body must be a JSON object")
        return body

    def _dispatch(self, method: str) -> None:
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        endpoint = parts[0] if parts else "root"
        sink = self.service.log_sink
        timed = self.server.metrics_on or sink is not None
        started = time.perf_counter() if timed else 0.0
        # On HTTP/1.1 keep-alive connections an unread request body would be
        # parsed as the *next* request line, desynchronizing the stream;
        # whenever a response goes out without the body having been read
        # (unmatched route, oversize body, pre-read errors), drop the
        # connection instead of poisoning it.
        self._body_consumed = False
        # The header is parsed once per request; -1 marks a malformed one.
        # A length this server refuses is never read, so the connection is
        # dropped below.
        try:
            self._body_length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._body_length = -1
        try:
            if self._body_length < 0:
                raise ValueError("malformed Content-Length header")
            if self._body_length > MAX_BODY_BYTES:
                self._send_json(
                    413, {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"}
                )
                handled = True
            else:
                handled = self._route(method, parts, parse_qs(parsed.query))
        except VersionNotFoundError as error:
            self._send_json(404, {"error": str(error)})
        except KeyError as error:
            self._send_json(404, {"error": f"not found: {error}"})
        except LeaseError as error:
            # Replica-group coordination conflicts (repack/prune on a
            # non-holder, fenced zombie activations) are 409: the request
            # was well-formed, another replica owns the operation.
            self._send_json(409, {"error": str(error)})
        except (ReproError, ValueError, json.JSONDecodeError) as error:
            self._send_json(400, {"error": str(error)})
        except Exception as error:  # pragma: no cover - defensive 500
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
        else:
            if not handled:
                self._send_json(404, {"error": f"no route for {method} {parsed.path}"})
        finally:
            # The flag only affects what happens after the response is
            # flushed: the socket is dropped instead of being reused.
            if not self._body_consumed and self._body_length != 0:
                self.close_connection = True
            if timed:
                elapsed = time.perf_counter() - started
                if self.server.metrics_on:
                    self.server.http_seconds.labels(endpoint).observe(elapsed)
                    self.server.http_requests.labels(
                        endpoint, self._last_status
                    ).inc()
                if sink is not None:
                    sink.emit(
                        "request",
                        method=method,
                        endpoint=endpoint,
                        path=parsed.path,
                        status=self._last_status,
                        duration_ms=round(elapsed * 1000.0, 4),
                    )

    @staticmethod
    def _trace_requested(query: dict[str, list[str]], body: dict[str, Any] | None = None) -> bool:
        if body and _field(body, "trace", bool):
            return True
        values = query.get("trace")
        return bool(values and values[-1].strip().lower() in {"1", "true", "yes", "on"})

    def _send_checkout(
        self, response: CheckoutResponse, trace: Trace | None
    ) -> None:
        """Send a checkout, byte for byte ``json.dumps(response.to_dict())``
        (with the span dump last when traced), around the memoized encoding
        of its payload: only the per-request fields are encoded here."""
        fields = response.to_dict()
        version = fields.pop("version")
        payload = self.server.encoded_payloads.encoded(
            response.object_id, fields.pop("payload")
        )
        headers = None
        if trace is not None:
            fields["trace"] = trace.to_dict()
            headers = {"X-Trace": trace.trace_id}
        # `{"version": V, "payload": P, "chain_length": ...}`: the key order
        # of to_dict() and json.dumps' default separators.
        head = b'{"version": ' + json.dumps(version).encode("utf-8") + b', "payload": '
        tail = b", " + json.dumps(fields).encode("utf-8")[1:]
        self._send_parts(200, (head, payload, tail), headers)

    def _send_traced(
        self, payload: dict[str, Any], trace: Trace | None
    ) -> None:
        """Send a 200 JSON response, folding in the span dump when traced."""
        if trace is None:
            self._send_json(200, payload)
            return
        payload = dict(payload)
        payload["trace"] = trace.to_dict()
        self._send_json(200, payload, {"X-Trace": trace.trace_id})

    # -- routing -------------------------------------------------------- #
    def _route(self, method: str, parts: list[str], query: dict[str, list[str]]) -> bool:
        if method == "GET":
            if parts == ["healthz"]:
                self._send_json(200, {"status": "ok"})
                return True
            if parts == ["metrics"]:
                self._send_text(
                    200,
                    self.service.metrics.render_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
                return True
            if parts == ["stats"]:
                stats = self.service.stats(self.server.encoded_payloads.snapshot())
                self._send_json(200, stats)
                return True
            if len(parts) == 2 and parts[0] == "checkout":
                trace = Trace() if self._trace_requested(query) else None
                response = self.service.checkout(parts[1], trace=trace)
                self._send_checkout(response, trace)
                return True
            if parts == ["snapshots"]:
                catalog = self.service.repository.catalog
                if catalog is None:
                    raise ReproError(
                        "epoch history requires a sqlite:// metadata catalog"
                    )
                self._send_json(200, {"snapshots": catalog.snapshots()})
                return True
            return False
        if method == "POST":
            if parts == ["checkout"]:
                body = self._read_json()
                version = _field(body, "version", str)
                if version is None:
                    raise ReproError("checkout requires a 'version' field")
                trace = Trace() if self._trace_requested(query, body) else None
                response = self.service.checkout(version, trace=trace)
                self._send_checkout(response, trace)
                return True
            if parts == ["checkout_many"]:
                body = self._read_json()
                versions = _string_list(body, "versions")
                if versions is None:
                    raise ReproError("checkout_many requires a 'versions' list")
                trace = Trace() if self._trace_requested(query, body) else None
                result = self.service.checkout_many(versions, trace=trace)
                self._send_traced(batch_response(result), trace)
                return True
            if parts == ["commit"]:
                body = self._read_json()
                if "payload" not in body:
                    raise ReproError("commit requires a 'payload' field")
                version_id = self.service.commit(
                    body["payload"],
                    parents=_string_list(body, "parents"),
                    message=_field(body, "message", str) or "",
                    branch=_field(body, "branch", str),
                )
                self._send_json(200, {"version": version_id})
                return True
            if parts == ["plan"]:
                body = self._read_json()
                report = self.service.plan(**_plan_options(body))
                self._send_json(200, report)
                return True
            if parts == ["repack"]:
                body = self._read_json()
                # Flags are bools or null (the default), checked before any scan.
                adaptive = _field(body, "adaptive", bool)
                dry_run = _field(body, "dry_run", bool)
                workload = _field(body, "workload", bool)
                if adaptive:
                    # One synchronous controller evaluation: price the warm
                    # decayed cost, and only plan/repack when the hysteresis
                    # band and amortization gate both say it pays.  Plan
                    # knobs from the body shape the solve the cycle may run.
                    # A cycle decides for itself whether to apply — dry_run
                    # would silently mean "maybe mutate anyway", so the
                    # combination is rejected rather than half-honored (the
                    # workload is likewise fixed: always the decayed view).
                    if dry_run:
                        raise ReproError(
                            "adaptive cycles decide their own application; "
                            "combine 'dry_run' with a plain repack, or read "
                            "the controller state from /stats"
                        )
                    report = self.service.policy.cycle(**_plan_options(body))
                    self._send_json(200, report)
                    return True
                report = self.service.repack(
                    **_plan_options(body),
                    use_workload=workload is not False,
                    half_life=body.get("half_life"),
                    dry_run=bool(dry_run),
                )
                self._send_json(200, report)
                return True
            if parts == ["prune"]:
                self._read_body()  # tolerate (and drain) an empty JSON body
                self._send_json(200, self.service.prune_epochs())
                return True
            return False
        return False

    # -- HTTP verbs ------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")


def serve(
    service: VersionStoreService, host: str = "127.0.0.1", port: int = 0
) -> VersionStoreHTTPServer:
    """Bind a server for ``service`` (``port=0`` picks an ephemeral port).

    The caller drives the loop: ``serve_forever()`` to block, or
    :func:`serve_in_thread` for tests and embedding.
    """
    return VersionStoreHTTPServer((host, port), service)


def serve_in_thread(
    service: VersionStoreService, host: str = "127.0.0.1", port: int = 0
) -> tuple[VersionStoreHTTPServer, threading.Thread]:
    """Start a server in a daemon thread; returns ``(server, thread)``.

    Shut down with ``server.shutdown(); server.server_close()``.
    """
    server = serve(service, host, port)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return server, thread
