"""Process-pool replay tasks: the GIL-free half of the batch engine.

``BatchMaterializer`` with ``worker_model="process"`` ships each subtree
stripe of a union-tree replay to a ``ProcessPoolExecutor`` instead of a
thread pool.  A task must therefore be (a) importable by a freshly
spawned interpreter and (b) built entirely from picklable values — so
what crosses the boundary is a *description* of the replay, not live
objects: the backend spec string, the encoder name (resolved through
:mod:`repro.delta.registry`), and the root-first chain ids per requested
tip.  The worker reopens the backend, replays, and sends materialized
payloads back.

Worker processes are reused across tasks, so each keeps a small
module-level state cache keyed by ``(backend spec, encoder name, cache
size)``: a worker-local single-threaded
:class:`~repro.storage.batch.BatchMaterializer` over the reopened
:class:`~repro.storage.objects.ObjectStore` and the rebuilt encoder — the
worker runs the very walk the parent would.  Repeated tasks against the
same store amortize both the reopen and shared chain prefixes.  The
parent's shared cache stays authoritative: the parent re-caches returned
tip payloads, and epoch swaps clear the parent cache as before — a
worker-local cache can only ever hold content-addressed
payloads, which are immutable, so a stale entry is impossible by
construction.

Not every backend can cross a process boundary.  :func:`process_safe_spec`
says whether a spec reopens to *the same data* in another process:
``file://``/``zip://``/``sqlite://``/``http(s)://`` do (shared disk or
network), ``shard://N/CHILD`` does when its child does, while
``memory://``, inline ``shard://[...]`` children and wrapped test
backends (``latency+memory://``) do not — the materializer silently
falls back to the thread model for those.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Tuple

from ..delta.registry import encoder_from_name, registered_encoder_names
from .objects import ObjectStore

if TYPE_CHECKING:  # pragma: no cover - batch imports this module
    from .batch import BatchMaterializer

__all__ = [
    "ReplayOutcome",
    "ReplayTaskResult",
    "replay_task",
    "process_safe_spec",
    "replayable_encoder",
]

#: Schemes whose spec string reopens to the same data in another process.
_SAFE_SCHEMES = frozenset({"file", "zip", "sqlite", "http", "https"})


def process_safe_spec(spec: str) -> bool:
    """True when ``spec`` reopens to the same data from a worker process."""
    scheme, sep, rest = spec.partition("://")
    if not sep or not scheme:
        return False
    if scheme in _SAFE_SCHEMES:
        return True
    if scheme == "shard":
        if rest.startswith("["):
            return False  # inline children: no reopenable path survives
        count_text, slash, child_spec = rest.partition("/")
        return bool(slash) and count_text.isdigit() and process_safe_spec(child_spec)
    return False


def replayable_encoder(encoder: Any) -> bool:
    """True when ``encoder`` can be rebuilt by name in a worker process."""
    name = getattr(encoder, "name", None)
    return isinstance(name, str) and name in registered_encoder_names()


@dataclass(frozen=True)
class ReplayOutcome:
    """One tip's replay result, shipped back from the worker."""

    object_id: str
    payload: Any
    cost_paid: float
    deltas_applied: int
    cache_hits: int


@dataclass(frozen=True)
class ReplayTaskResult:
    """Everything one stripe task produced, plus worker provenance.

    ``pid``/``started``/``finished`` use ``os.getpid()`` and ``time.time()``
    (wall clock — ``perf_counter`` is not comparable across processes) so
    tests and the pool stats can assert that two stripes actually ran in
    distinct workers with overlapping spans.  ``observations`` carries the
    per-hop ``(object_id, seconds)`` measurements normally fed straight
    into ``ObjectStore.observe_apply`` — the parent folds them into its
    own measured-cost index on receipt.
    """

    outcomes: Tuple[ReplayOutcome, ...]
    pid: int
    started: float
    finished: float
    observations: Tuple[Tuple[str, float], ...] = field(default_factory=tuple)


#: Per-worker-process engines, keyed by (backend spec, encoder name, cache
#: size).  Module-level so they survive across tasks within one pool worker
#: and are rebuilt from scratch in every new worker (spawn start method).
_WORKER_STATE: Dict[Tuple[str, str, int], BatchMaterializer] = {}


def _worker_engine(
    backend_spec: str, encoder_name: str, cache_size: int
) -> BatchMaterializer:
    from .batch import BatchMaterializer  # batch imports this module

    key = (backend_spec, encoder_name, cache_size)
    engine = _WORKER_STATE.get(key)
    if engine is None:
        engine = BatchMaterializer(
            ObjectStore(backend=backend_spec),
            encoder_from_name(encoder_name),
            cache_size=cache_size,
            max_workers=1,
        )
        _WORKER_STATE[key] = engine
    return engine


def replay_task(
    backend_spec: str,
    encoder_name: str,
    chains: Mapping[str, Tuple[str, ...]],
    cache_size: int = 64,
) -> ReplayTaskResult:
    """Replay the chains of one subtree stripe inside a worker process.

    ``chains`` maps each requested tip to its root-first chain ids (the
    parent resolves chains before dispatch so workers never race on
    metadata).  The worker's engine walks their union tree through its
    local payload cache, so chains sharing a prefix — the common case
    within one subtree stripe — pay for it once.  Also runs fine in the
    parent process (the thread model's tests reuse it directly).
    """
    started = time.time()
    engine = _worker_engine(backend_spec, encoder_name, cache_size)
    observations: list[Tuple[str, float]] = []
    items = engine._materialize_union_tree(
        dict(sorted(chains.items())),
        observe=lambda oid, seconds: observations.append((oid, seconds)),
    )
    return ReplayTaskResult(
        outcomes=tuple(
            ReplayOutcome(
                object_id=item.object_id,
                payload=item.payload,
                cost_paid=item.recreation_cost,
                deltas_applied=item.deltas_applied,
                cache_hits=item.cache_hits,
            )
            for item in items.values()
        ),
        pid=os.getpid(),
        started=started,
        finished=time.time(),
        observations=tuple(observations),
    )
