"""Long-lived serving layer: the version store as a process, not a command.

The paper's storage/recreation tradeoff assumes recreation cost is paid per
checkout; a process that lives across requests amortizes it through a warm
materialization cache and request coalescing.  This package provides:

* :mod:`~repro.server.service` — :class:`VersionStoreService`, the
  transport-agnostic core, and :mod:`~repro.server.policy`, its repack policy;
* :mod:`~repro.server.httpd` — the stdlib HTTP/JSON transport;
* :mod:`~repro.server.remote` — :class:`ServiceClient`, the JSON client.

Start one from the CLI with ``repro serve REPO --port 8750``.  Several
processes share one store through a ``sqlite://`` catalog: run one
``repro serve`` each (``--join`` elects the repack planner).
"""

from .httpd import VersionStoreHTTPServer, serve, serve_in_thread
from .remote import RemoteServiceError, ServiceClient
from .service import CheckoutResponse, ServiceStats, VersionStoreService

__all__ = [
    "CheckoutResponse",
    "RemoteServiceError",
    "ServiceClient",
    "ServiceStats",
    "VersionStoreHTTPServer",
    "VersionStoreService",
    "serve",
    "serve_in_thread",
]
