"""Client for a remote ``repro serve`` process.

:class:`ServiceClient` is a thin JSON client for the service API of a
running :mod:`repro.server.httpd` server (commit / checkout /
checkout_many / stats / plan / repack), used by the CLI when its
repository argument is ``http://HOST:PORT`` and handy in tests.
Idempotent reads retry through transport failures; everything else is
single-shot.  Pure standard library (``urllib.request``).
"""

from __future__ import annotations

import json
import random
import time
from typing import Any, Callable, Sequence
from urllib import error as urlerror
from urllib import request as urlrequest

from ..exceptions import RepositoryError

__all__ = ["ServiceClient", "RemoteServiceError"]

#: Total attempts (first try included) for idempotent exchanges.
_RETRY_ATTEMPTS = 3
#: Exponential backoff: 0.05s, 0.1s, ... capped, each scaled by jitter.
_RETRY_BASE_DELAY = 0.05
_RETRY_MAX_DELAY = 2.0


class RemoteServiceError(RepositoryError):
    """The remote service answered with an error (or not at all).

    ``status`` carries the HTTP status code when one was received
    (``None`` for transport failures) — replica-group clients branch on
    409 to find the lease holder instead of string-matching messages.
    """

    def __init__(self, message: str, *, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


def _http(
    method: str,
    url: str,
    *,
    data: bytes | None = None,
    content_type: str | None = None,
    timeout: float = 30.0,
) -> bytes:
    """One HTTP exchange; raises ``urllib.error.HTTPError`` on 4xx/5xx."""
    req = urlrequest.Request(url, data=data, method=method)
    if content_type is not None:
        req.add_header("Content-Type", content_type)
    with urlrequest.urlopen(req, timeout=timeout) as response:
        return response.read()


def _http_idempotent(
    method: str,
    url: str,
    *,
    data: bytes | None = None,
    content_type: str | None = None,
    timeout: float = 30.0,
    attempts: int = _RETRY_ATTEMPTS,
    on_retry: Callable[[], None] | None = None,
) -> bytes:
    """:func:`_http` with bounded retry, for *idempotent* exchanges only.

    Only transport-level failures are retried — the connection never
    reached a server that processed the request, so repeating it is safe
    and usually rides out a restart or a dropped socket.  ``HTTPError``
    (a subclass of ``URLError``, but the server *did* answer) is re-raised
    immediately: a 4xx/5xx would come back identical on every attempt.
    Backoff is exponential with jitter so a fleet of clients does not
    hammer a recovering server in lockstep.
    """
    attempts = max(1, int(attempts))
    for attempt in range(1, attempts + 1):
        try:
            return _http(
                method, url, data=data, content_type=content_type, timeout=timeout
            )
        except urlerror.HTTPError:
            raise
        except (urlerror.URLError, ConnectionError, TimeoutError):
            if attempt >= attempts:
                raise
            if on_retry is not None:
                on_retry()
            delay = min(_RETRY_MAX_DELAY, _RETRY_BASE_DELAY * (2 ** (attempt - 1)))
            time.sleep(delay * (0.5 + random.random() / 2))
    raise AssertionError("unreachable")  # pragma: no cover


class ServiceClient:
    """JSON client for the version-store service API."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        if "://" not in base_url:
            base_url = f"http://{base_url}"
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: Transport-level retries performed on idempotent reads.
        self.retries = 0

    def _note_retry(self) -> None:
        self.retries += 1

    # -- service calls --------------------------------------------------- #
    def healthz(self) -> dict[str, Any]:
        return self._get("/healthz")

    def stats(self) -> dict[str, Any]:
        return self._get("/stats")

    def checkout(self, version_id: str) -> dict[str, Any]:
        return self._get(f"/checkout/{version_id}")

    def checkout_many(self, version_ids: Sequence[str]) -> dict[str, Any]:
        return self._post("/checkout_many", {"versions": list(version_ids)})

    def commit(
        self,
        payload: Any,
        *,
        parents: Sequence[str] | None = None,
        message: str = "",
        branch: str | None = None,
    ) -> str:
        body: dict[str, Any] = {"payload": payload, "message": message}
        if parents is not None:
            body["parents"] = list(parents)
        if branch is not None:
            body["branch"] = branch
        return self._post("/commit", body)["version"]

    def plan(self, **options: Any) -> dict[str, Any]:
        return self._post("/plan", options)

    def metrics_text(self) -> str:
        """The server's ``GET /metrics`` Prometheus text exposition, raw."""
        return self._request("GET", "/metrics", None, retry=True).decode("utf-8")

    def repack(self, **options: Any) -> dict[str, Any]:
        """Trigger a server-side online repack (``POST /repack``).

        Options mirror the endpoint: ``problem``, ``threshold``,
        ``threshold_factor``, ``hop_limit``, ``algorithm``, ``workload``
        (default true — plan against the server's persisted workload log)
        and ``dry_run``.
        """
        return self._post("/repack", options)

    def snapshots(self) -> dict[str, Any]:
        """Epoch history from the metadata catalog (``GET /snapshots``)."""
        return self._get("/snapshots")

    def prune(self) -> dict[str, Any]:
        """Drop dead epochs and sweep garbage (``POST /prune``).

        On a replica-group member that does not hold the planner lease
        the server answers 409 — prune from the holder instead.
        """
        return self._post("/prune", {})

    # -- internals ------------------------------------------------------- #
    def _get(self, path: str) -> dict[str, Any]:
        return json.loads(self._request("GET", path, None, retry=True))

    def _post(self, path: str, body: dict[str, Any]) -> dict[str, Any]:
        # POSTs are single-shot: commit / repack are not idempotent, and a
        # request the server may have half-processed must not be replayed.
        return json.loads(
            self._request("POST", path, json.dumps(body).encode("utf-8"))
        )

    def _request(
        self, method: str, path: str, data: bytes | None, *, retry: bool = False
    ) -> bytes:
        """One exchange with the service, its errors as :class:`RemoteServiceError`."""
        url = f"{self.base_url}{path}"
        content_type = "application/json" if data is not None else None
        try:
            if retry:
                return _http_idempotent(
                    method,
                    url,
                    data=data,
                    content_type=content_type,
                    timeout=self.timeout,
                    on_retry=self._note_retry,
                )
            return _http(
                method, url, data=data, content_type=content_type, timeout=self.timeout
            )
        except urlerror.HTTPError as error:
            raise RemoteServiceError(
                f"{method} {url} failed: HTTP {error.code}" + _error_detail(error),
                status=error.code,
            ) from error
        except urlerror.URLError as error:
            raise RemoteServiceError(
                f"cannot reach service at {self.base_url}: {error.reason}"
            ) from error


def _error_detail(error: urlerror.HTTPError) -> str:
    """Best-effort ``" — detail"`` suffix from an HTTP error body.

    Prefers the service's ``{"error": ...}`` JSON shape; a non-JSON body
    (a proxy's HTML page, a traceback) is kept as a truncated snippet
    instead of being silently discarded — an opaque ``HTTP 502`` with the
    actual complaint thrown away is what made these failures undebuggable.
    """
    try:
        body = error.read()
    except Exception:
        return ""
    if not body:
        return ""
    try:
        detail = str(json.loads(body.decode("utf-8")).get("error", ""))
    except Exception:
        detail = body.decode("utf-8", "replace").strip()
        if len(detail) > 200:
            detail = detail[:200] + "…"
    return f" — {detail}" if detail else ""
