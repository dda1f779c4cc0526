"""repro — a reproduction of "Principles of Dataset Versioning" (VLDB 2015).

The package implements the paper's storage/recreation tradeoff framework:

* :mod:`repro.core` — versions, version graphs, the Δ/Φ cost matrices,
  problem instances, storage plans and the six-problem dispatcher;
* :mod:`repro.algorithms` — MST/MCA, shortest-path trees, LMG, MP, LAST,
  GitH and exact ILP solvers;
* :mod:`repro.delta` — concrete differencing mechanisms (line, cell, XOR,
  edit-command deltas) that produce real Δ/Φ costs;
* :mod:`repro.storage` — a miniature DataHub-style version manager that
  executes storage plans (commit/checkout/branch/merge);
* :mod:`repro.datagen` — synthetic version-graph, dataset, cost and workload
  generators, including the DC/LC/BF/LF evaluation scenarios;
* :mod:`repro.baselines` — naive, SVN skip-delta and gzip baselines;
* :mod:`repro.bench` — the experiment harness that regenerates every table
  and figure of the paper's evaluation section.

Quickstart
----------
>>> from repro import datagen, solve, ProblemKind
>>> dataset = datagen.scenarios.linear_chain(num_versions=50, seed=7)
>>> result = solve(dataset.instance, ProblemKind.MINSUM_RECREATION,
...                threshold=2.0 * dataset.mca_storage_cost)
>>> result.metrics.storage_cost <= 2.0 * dataset.mca_storage_cost
True
"""

from . import algorithms, baselines, bench, core, datagen, delta, storage
from .core import (
    ROOT,
    Algorithm,
    CostMatrix,
    CostModel,
    Objective,
    PlanMetrics,
    ProblemInstance,
    ProblemKind,
    SolveResult,
    StoragePlan,
    Version,
    VersionGraph,
    solve,
)
from .exceptions import ReproError
from .storage import (
    BatchMaterializer,
    BatchResult,
    Repository,
    StorageBackend,
    open_backend,
)

__version__ = "1.1.0"

__all__ = [
    "algorithms",
    "baselines",
    "bench",
    "core",
    "datagen",
    "delta",
    "storage",
    "ROOT",
    "Algorithm",
    "CostMatrix",
    "CostModel",
    "Objective",
    "PlanMetrics",
    "ProblemInstance",
    "ProblemKind",
    "SolveResult",
    "StoragePlan",
    "Version",
    "VersionGraph",
    "solve",
    "ReproError",
    "BatchMaterializer",
    "BatchResult",
    "Repository",
    "StorageBackend",
    "open_backend",
    "__version__",
]
