"""``repro serve`` with benchmark-owned span recording around its layers.

Run as ``python traced_server.py serve REPO --port 0 ...``: the arguments
go to ``repro.cli.main`` unchanged, so the process topology is that of the
untraced server.  Until the harness sends ``SIGUSR1`` nothing is patched and
the process *is* the untraced server; the signal installs timing wrappers
around the public entry points of each layer and prints ``tracing on``.
``SIGTERM`` shuts the server down the way ctrl-c does and then writes every
recorded span to the file named by ``BENCH_TRACE_OUT``.

A span is ``[id, parent id, name index, start, end]`` on the process's
``perf_counter`` clock.  Only work done for a request that carries an
``X-Bench-Request`` header is recorded: the handler's root span stores the
header value, every nested call finds its parent on a per-thread stack, and
work handed to a ``ThreadPoolExecutor`` inherits the submitting thread's
current span.  Spans stay in memory until shutdown.  No file under ``src/``
is changed; spans *inside* the program are a later change.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_ids = itertools.count(1)  # next() on a count is atomic in CPython
_local = threading.local()
_names: list[str] = []
_thread_spans: list[list[tuple]] = []  # one list per thread that recorded
_roots: list[tuple[int, str]] = []  # (root span id, X-Bench-Request value)
_register_lock = threading.Lock()


def _name_index(name: str) -> int:
    if name not in _names:
        _names.append(name)
    return _names.index(name)


def _state():
    """This thread's (stack, finished-span list), created on first use."""
    try:
        return _local.stack, _local.spans
    except AttributeError:
        _local.stack, _local.spans = [], []
        with _register_lock:
            _thread_spans.append(_local.spans)
        return _local.stack, _local.spans


def _timed(name: str, function):
    """Record a span around ``function`` whenever a traced request is active."""
    index = _name_index(name)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if not stack:
            return function(*args, **kwargs)
        span_id = next(_ids)
        parent = stack[-1]
        stack.append(span_id)
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            stack.pop()
            _local.spans.append((span_id, parent, index, started, ended))

    return wrapper


class _TimedEnter:
    """A context manager whose *entry* (a lock acquisition) is one span."""

    def __init__(self, inner, enter) -> None:
        self._inner = inner
        self._enter = enter

    def __enter__(self):
        return self._enter(self._inner)

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


def _timed_enter(name: str, function):
    enter = _timed(name, lambda inner: inner.__enter__())

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        return _TimedEnter(function(*args, **kwargs), enter)

    return wrapper


def _root(name: str, dispatch):
    """The per-request root span, opened around ``_Handler._dispatch``."""
    index = _name_index(name)

    @functools.wraps(dispatch)
    def wrapper(handler, method):
        request_id = handler.headers.get("X-Bench-Request")
        if request_id is None:
            return dispatch(handler, method)
        stack, spans = _state()
        span_id = next(_ids)
        stack.append(span_id)
        started = time.perf_counter()
        try:
            return dispatch(handler, method)
        finally:
            ended = time.perf_counter()
            stack.pop()
            spans.append((span_id, 0, index, started, ended))
            _roots.append((span_id, request_id))

    return wrapper


def _inheriting_submit(submit):
    """Pool tasks run as children of the span that submitted them."""

    @functools.wraps(submit)
    def wrapper(executor, function, /, *args, **kwargs):
        stack = getattr(_local, "stack", None)
        if not stack:
            return submit(executor, function, *args, **kwargs)
        parent = stack[-1]

        def task(*task_args, **task_kwargs):
            worker_stack, _ = _state()
            worker_stack.append(parent)
            try:
                return function(*task_args, **task_kwargs)
            finally:
                worker_stack.pop()

        return submit(executor, task, *args, **kwargs)

    return wrapper


class _TimedJson:
    """Stands in for the ``json`` module inside ``repro.server.httpd``."""

    JSONDecodeError = json.JSONDecodeError

    def __init__(self) -> None:
        self.dumps = _timed("httpd.codec_encode", json.dumps)
        self.loads = _timed("httpd.codec_decode", json.loads)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _patch(cls, method: str, name: str, wrap=_timed) -> None:
    setattr(cls, method, wrap(name, cls.__dict__[method]))


def _patch_overrides(base, method: str, name: str) -> None:
    """Wrap ``method`` wherever ``base`` or a subclass defines it itself."""
    for cls in (base, *_subclasses(base)):
        if method in cls.__dict__ and not getattr(
            cls.__dict__[method], "__isabstractmethod__", False
        ):
            _patch(cls, method, name)


def install() -> None:
    """Wrap the public entry points of every layer (idempotence not needed)."""
    from repro.delta.base import DeltaEncoder
    from repro.server import httpd, service
    from repro.storage.backends import StorageBackend
    from repro.storage.batch import BatchMaterializer
    from repro.storage.catalog import MetadataCatalog
    from repro.storage.concurrency import EpochCoordinator, StripedLockManager
    from repro.storage.objects import ObjectStore
    from repro.storage.repack import OnlineRepacker
    from repro.storage.repository import Repository
    from repro.storage.workload_log import WorkloadLog

    _patch(httpd._Handler, "_dispatch", "httpd.handler", _root)
    httpd.json = _TimedJson()
    for method in ("checkout", "checkout_many", "commit", "repack"):
        _patch(service.VersionStoreService, method, f"service.{method}")
    _patch(EpochCoordinator, "acquire_shared", "service.coordinator_wait")
    _patch(EpochCoordinator, "acquire_exclusive", "service.coordinator_wait")
    _patch(StripedLockManager, "holding", "service.stripe_wait", _timed_enter)
    _patch_overrides(WorkloadLog, "record", "workload_log.record")
    _patch_overrides(WorkloadLog, "record_many", "workload_log.record")
    _patch(MetadataCatalog, "workload_record", "catalog.workload_record")
    _patch(MetadataCatalog, "record_commit", "catalog.commit_txn")
    _patch(BatchMaterializer, "materialize", "batch.materialize")
    _patch(BatchMaterializer, "materialize_many", "batch.materialize_many")
    _patch(ObjectStore, "get", "objects.get")
    _patch(ObjectStore, "get_many", "objects.get")
    _patch(ObjectStore, "chain_ids", "objects.chain_resolve")
    _patch(ObjectStore, "delta_chain", "objects.chain_resolve")
    _patch_overrides(StorageBackend, "get", "backends.get")
    _patch_overrides(StorageBackend, "put", "backends.put")
    _patch_overrides(DeltaEncoder, "apply", "delta.apply")
    _patch_overrides(DeltaEncoder, "diff", "delta.diff")
    _patch(Repository, "commit", "repository.commit")
    _patch(Repository, "checkout", "repository.checkout")
    _patch(Repository, "problem_instance", "repack.cost_model")
    service.solve = _timed("repack.solve", service.solve)
    _patch(OnlineRepacker, "rebuild", "repack.stage")
    _patch(OnlineRepacker, "swap", "repack.swap")
    ThreadPoolExecutor.submit = _inheriting_submit(ThreadPoolExecutor.submit)


def dump(path: str) -> None:
    with _register_lock:
        spans = [span for per_thread in _thread_spans for span in per_thread]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"names": _names, "roots": _roots, "spans": spans}, handle)


def _on_usr1(signum, frame) -> None:
    install()
    print("tracing on", flush=True)


def _on_term(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    from repro import cli

    signal.signal(signal.SIGUSR1, _on_usr1)
    signal.signal(signal.SIGTERM, _on_term)
    try:
        return cli.main(argv)
    finally:
        out = os.environ.get("BENCH_TRACE_OUT")
        if out:
            dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
