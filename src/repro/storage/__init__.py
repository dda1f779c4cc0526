"""The prototype version-management system (DataHub-style).

* :mod:`~repro.storage.backends` — pluggable keyed blob stores
  (``memory://``, ``file://``, ``zip://``, ``shard://``, remote ``http://``)
  the object store delegates to;
* :mod:`~repro.storage.objects` — content-addressed store for full objects
  and deltas, with an incremental cost index (per-chain Φ totals and delta
  counts maintained at commit/repack time);
* :mod:`~repro.storage.concurrency` — striped per-chain locks and the
  epoch read/write coordinator behind parallel serving;
* :mod:`~repro.storage.batch` — the one replay engine: reconstructs
  payloads by walking the union tree of the requested delta chains, so a
  batch pays shared prefixes once and a single checkout is a batch of one;
* :mod:`~repro.storage.cache_tiers` — the warm payload cache the engine
  reads and fills (memory LRU ranked by marginal recreation cost, optional
  compressed disk tier);
* :mod:`~repro.storage.repository` — commit / checkout / branch / merge,
  plus the bridge to the optimization layer (cost-model measurement and
  plan-driven repacking);
* :mod:`~repro.storage.planner` — applies a storage plan to the object
  store (streaming, bounded-memory);
* :mod:`~repro.storage.repack` — the online re-packer: stages a new
  encoding while readers keep serving, then swaps epochs atomically;
* :mod:`~repro.storage.workload_log` — persistent per-version access
  frequencies that feed the workload-aware optimizers with real traffic;
* :mod:`~repro.storage.catalog` — the ``sqlite://`` transactional metadata
  catalog (version graph, branch heads, epoch snapshots, workload counters
  and controller state in one WAL-mode database that several processes can
  share).
"""

from .backends import (
    BackendSpecError,
    CompressedFilesystemBackend,
    FilesystemBackend,
    MemoryBackend,
    ShardedBackend,
    StorageBackend,
    open_backend,
    register_backend,
)
from .batch import BatchItem, BatchMaterializer, BatchResult, WarmChainCost
from .cache_tiers import LRUPayloadCache
from .catalog import CatalogWorkloadLog, MetadataCatalog, SQLiteBackend
from .concurrency import EpochCoordinator, StripedLockManager
from .objects import ChainStats, ObjectMeta, ObjectStore, StoredObject
from .planner import apply_plan, plan_order
from .repack import (
    AdaptiveRepackController,
    OnlineRepacker,
    StagedRepack,
    estimate_repack_cost,
    expected_workload_cost,
    expected_workload_costs,
)
from .repository import CheckoutStats, Repository
from .workload_log import WorkloadLog, frequency_drift

__all__ = [
    "BackendSpecError",
    "CompressedFilesystemBackend",
    "FilesystemBackend",
    "MemoryBackend",
    "ShardedBackend",
    "StorageBackend",
    "open_backend",
    "register_backend",
    "BatchItem",
    "BatchMaterializer",
    "BatchResult",
    "WarmChainCost",
    "CatalogWorkloadLog",
    "MetadataCatalog",
    "SQLiteBackend",
    "EpochCoordinator",
    "StripedLockManager",
    "LRUPayloadCache",
    "ChainStats",
    "ObjectMeta",
    "ObjectStore",
    "StoredObject",
    "apply_plan",
    "plan_order",
    "AdaptiveRepackController",
    "OnlineRepacker",
    "StagedRepack",
    "estimate_repack_cost",
    "expected_workload_cost",
    "expected_workload_costs",
    "CheckoutStats",
    "Repository",
    "WorkloadLog",
    "frequency_drift",
]
