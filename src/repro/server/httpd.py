"""HTTP transport for :class:`~repro.server.service.VersionStoreService`.

Everything is plain standard library (``http.server.ThreadingHTTPServer``)
so running a version store behind a port needs no dependencies beyond the
package itself.  Two API surfaces share the socket:

**JSON service API** (for clients and the remote-aware CLI)

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
stripe-lock wait attributed.

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
lists of strings).

**Object-store API** (for :class:`~repro.server.remote.RemoteBackend`)

``GET /objects`` lists keys; ``GET/PUT/DELETE /objects/KEY`` move single
objects as pickled bytes (``application/octet-stream``);
``POST /objects/multiget`` (JSON ``{"keys": [...], "follow_bases"?: bool}``)
returns many objects — optionally whole delta chains — in one round trip
as one pickled dict.  This is what lets
one repro process mount another as its storage backend via an
``http://HOST:PORT`` spec.  Pickle implies *trusted peers only* — exactly
like the ``file://``/``zip://`` backends trust their directory — so bind
the server to interfaces you control.
"""

from __future__ import annotations

import json
import pickle
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from ..exceptions import LeaseError, ReproError, VersionNotFoundError
from ..obs import Trace
from .service import VersionStoreService

__all__ = [
    "VersionStoreHTTPServer",
    "ReusePortHTTPServer",
    "reuse_port_supported",
    "serve",
    "serve_in_thread",
]

#: Maximum accepted request body (64 MiB) — a plain guard against a
#: misbehaving client exhausting server memory with one request.
MAX_BODY_BYTES = 64 * 1024 * 1024


class VersionStoreHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`VersionStoreService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: VersionStoreService) -> None:
        super().__init__(address, _Handler)
        self.service = service
        # Transport-level instruments, shared by every per-request handler.
        # Endpoint labels are the first path segment only (never a version
        # id), so the label cardinality is bounded by the route table.
        registry = service.metrics
        self.metrics_on = bool(getattr(registry, "enabled", False))
        self.http_seconds = registry.histogram(
            "repro_http_request_seconds",
            "HTTP request latency by endpoint (transport-inclusive).",
            ("endpoint",),
        )
        self.http_requests = registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint and status code.",
            ("endpoint", "code"),
        )

    @property
    def url(self) -> str:
        """Base URL the server answers on (real port, even when bound to 0)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def reuse_port_supported() -> bool:
    """True when this platform exposes ``SO_REUSEPORT`` (Linux, BSDs)."""
    return hasattr(socket, "SO_REUSEPORT")


class ReusePortHTTPServer(VersionStoreHTTPServer):
    """A :class:`VersionStoreHTTPServer` that joins an ``SO_REUSEPORT`` group.

    Several acceptor *processes* each bind their own socket to the same
    ``(host, port)`` with ``SO_REUSEPORT`` set before ``bind``; the kernel
    then load-balances incoming connections across all listening group
    members — the multi-process front-end of ``repro serve
    --frontend-procs N``.  Raises ``OSError`` on platforms without the
    option; callers check :func:`reuse_port_supported` first and fall back
    to the single-process server.
    """

    def server_bind(self) -> None:
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


class _Handler(BaseHTTPRequestHandler):
    # Per-request handler: every route delegates to the shared service,
    # which owns all locking; handler instances hold no state of their own.
    server: VersionStoreHTTPServer
    protocol_version = "HTTP/1.1"

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
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if extra_headers:
            for name, value in extra_headers.items():
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_bytes(self, status: int, data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_empty(self, status: int = 204) -> None:
        self.send_response(status)
        self.send_header("Content-Length", "0")
        self.end_headers()

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
                if method == "HEAD":  # HEAD responses must carry no body
                    self._send_empty(404)
                else:
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
        values = query.get("trace")
        if values and values[-1].strip().lower() in {"1", "true", "yes", "on"}:
            return True
        return bool(body and body.get("trace"))

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
        if parts and parts[0] == "objects":
            return self._route_objects(method, parts)
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
                self._send_json(200, self.service.stats())
                return True
            if len(parts) == 2 and parts[0] == "checkout":
                trace = Trace() if self._trace_requested(query) else None
                response = self.service.checkout(parts[1], trace=trace)
                self._send_traced(response.to_dict(), trace)
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
                if "version" not in body:
                    raise ReproError("checkout requires a 'version' field")
                trace = Trace() if self._trace_requested(query, body) else None
                response = self.service.checkout(body["version"], trace=trace)
                self._send_traced(response.to_dict(), trace)
                return True
            if parts == ["checkout_many"]:
                body = self._read_json()
                versions = body.get("versions")
                if not isinstance(versions, list):
                    raise ReproError("checkout_many requires a 'versions' list")
                trace = Trace() if self._trace_requested(query, body) else None
                result = self.service.checkout_many(versions, trace=trace)
                self._send_traced(
                    {
                        "items": {
                            str(vid): {
                                "payload": item.payload,
                                "chain_length": item.chain_length,
                                "recreation_cost": item.recreation_cost,
                                "deltas_applied": item.deltas_applied,
                            }
                            for vid, item in result.items.items()
                        },
                        "summary": result.summary(),
                    },
                    trace,
                )
                return True
            if parts == ["commit"]:
                body = self._read_json()
                if "payload" not in body:
                    raise ReproError("commit requires a 'payload' field")
                version_id = self.service.commit(
                    body["payload"],
                    parents=body.get("parents"),
                    message=body.get("message", ""),
                    branch=body.get("branch"),
                )
                self._send_json(200, {"version": version_id})
                return True
            if parts == ["plan"]:
                body = self._read_json()
                report = self.service.plan(
                    problem=int(body.get("problem", 3)),
                    threshold=body.get("threshold"),
                    threshold_factor=body.get("threshold_factor"),
                    hop_limit=int(body.get("hop_limit", 2)),
                    algorithm=body.get("algorithm", "auto"),
                )
                self._send_json(200, report)
                return True
            if parts == ["repack"]:
                body = self._read_json()
                if body.get("adaptive"):
                    # One synchronous controller evaluation: price the warm
                    # decayed cost, and only plan/repack when the hysteresis
                    # band and amortization gate both say it pays.  Plan
                    # knobs from the body shape the solve the cycle may run.
                    # A cycle decides for itself whether to apply — dry_run
                    # would silently mean "maybe mutate anyway", so the
                    # combination is rejected rather than half-honored (the
                    # workload is likewise fixed: always the decayed view).
                    if body.get("dry_run"):
                        raise ReproError(
                            "adaptive cycles decide their own application; "
                            "combine 'dry_run' with a plain repack, or read "
                            "the controller state from /stats"
                        )
                    options: dict[str, Any] = {}
                    if "problem" in body:
                        options["problem"] = int(body["problem"])
                    if "hop_limit" in body:
                        options["hop_limit"] = int(body["hop_limit"])
                    for key in ("threshold", "threshold_factor"):
                        if body.get(key) is not None:
                            options[key] = float(body[key])
                    if "algorithm" in body:
                        options["algorithm"] = str(body["algorithm"])
                    report = self.service.adaptive_repack_cycle(**options)
                    self._send_json(200, report)
                    return True
                half_life = body.get("half_life")
                report = self.service.repack(
                    problem=int(body.get("problem", 3)),
                    threshold=body.get("threshold"),
                    threshold_factor=body.get("threshold_factor"),
                    hop_limit=int(body.get("hop_limit", 2)),
                    algorithm=body.get("algorithm", "auto"),
                    use_workload=bool(body.get("workload", True)),
                    half_life=float(half_life) if half_life is not None else None,
                    dry_run=bool(body.get("dry_run", False)),
                )
                self._send_json(200, report)
                return True
            if parts == ["prune"]:
                self._read_body()  # tolerate (and drain) an empty JSON body
                self._send_json(200, self.service.prune_epochs())
                return True
            return False
        return False

    def _route_objects(self, method: str, parts: list[str]) -> bool:
        # Raw backend reads run under the service coordinator's *shared*
        # mode (they parallelize with checkouts); a peer's PUT or DELETE
        # takes the *exclusive* barrier — landing mid-chain-replay it would
        # otherwise yank objects from under the materializer (or read a
        # half-written file on the non-atomic filesystem backends).
        backend = self.service.repository.store.backend
        coordinator = self.service.coordinator
        if method == "GET" and len(parts) == 1:
            with coordinator.shared():
                keys = sorted(backend.keys())
            self._send_json(200, {"keys": keys})
            return True
        if method == "POST" and parts == ["objects", "multiget"]:
            # Batched fetch: many keys — optionally with every object their
            # delta chains transitively reference — in one exchange, so a
            # remote peer replays a chain segment in one round trip instead
            # of one request per object.  Absent keys are omitted.
            body = self._read_json()
            keys = body.get("keys")
            if not isinstance(keys, list):
                raise ReproError("multiget requires a 'keys' list")
            follow_bases = bool(body.get("follow_bases", False))
            found: dict[str, Any] = {}
            with coordinator.shared():
                pending = list(keys)
                while pending:
                    key = pending.pop()
                    if key in found:
                        continue
                    try:
                        value = backend.get(key)
                    except KeyError:
                        continue
                    found[key] = value
                    if follow_bases:
                        base_id = getattr(value, "base_id", None)
                        if base_id is not None and base_id not in found:
                            pending.append(base_id)
            self._send_bytes(
                200, pickle.dumps(found, protocol=pickle.HIGHEST_PROTOCOL)
            )
            return True
        if len(parts) != 2:
            return False
        key = parts[1]
        if method == "HEAD":
            # Existence probe: lets RemoteBackend answer `in` without
            # downloading the object payload.
            with coordinator.shared():
                present = key in backend
            self._send_empty(200 if present else 404)
            return True
        if method == "GET":
            with coordinator.shared():
                value = backend.get(key)  # KeyError -> 404 via _dispatch
            self._send_bytes(200, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
            return True
        if method == "PUT":
            value = pickle.loads(self._read_body())
            with coordinator.exclusive():
                backend.put(key, value)
            self._send_empty()
            return True
        if method == "DELETE":
            with coordinator.exclusive():
                # Through the store, not the raw backend: the cost index
                # must drop the object's entries or chain resolution would
                # keep routing through the dead id without probing disk.
                self.service.repository.store.remove(key)
            self._send_empty()
            return True
        return False

    # -- HTTP verbs ------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_HEAD(self) -> None:  # noqa: N802
        self._dispatch("HEAD")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


def serve(
    service: VersionStoreService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    reuse_port: bool = False,
) -> VersionStoreHTTPServer:
    """Bind a server for ``service`` (``port=0`` picks an ephemeral port).

    ``reuse_port=True`` binds with ``SO_REUSEPORT`` so several acceptor
    processes can share the port (see :class:`ReusePortHTTPServer`).  The
    caller drives the loop: ``serve_forever()`` to block, or
    :func:`serve_in_thread` for tests and embedding.
    """
    server_cls = ReusePortHTTPServer if reuse_port else VersionStoreHTTPServer
    return server_cls((host, port), service)


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
