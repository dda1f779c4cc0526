"""Core data model of the dataset-versioning reproduction.

This subpackage contains everything needed to *describe* a versioning
instance and a storage decision:

* :class:`~repro.core.version.Version` and
  :class:`~repro.core.version_graph.VersionGraph` — the derivation history;
* :class:`~repro.core.matrices.CostMatrix` and
  :class:`~repro.core.matrices.CostModel` — the Δ/Φ matrices of the paper;
* :class:`~repro.core.instance.ProblemInstance` — the augmented graph with
  the dummy root ``V0``;
* :class:`~repro.core.storage_plan.StoragePlan` — a storage graph (spanning
  tree) plus its cost metrics;
* :func:`~repro.core.problems.solve` — the problem dispatcher for the six
  optimization problems of Table 1.
"""

from .instance import ROOT, Edge, ProblemInstance
from .matrices import CostMatrix, CostModel
from .objectives import Objective
from .problems import PROBLEMS, Algorithm, ProblemKind, ProblemSpec, SolveResult, solve
from .storage_plan import PlanMetrics, StoragePlan
from .version import Version, VersionID
from .version_graph import VersionGraph

__all__ = [
    "ROOT",
    "Edge",
    "ProblemInstance",
    "CostMatrix",
    "CostModel",
    "Objective",
    "PROBLEMS",
    "Algorithm",
    "ProblemKind",
    "ProblemSpec",
    "SolveResult",
    "solve",
    "PlanMetrics",
    "StoragePlan",
    "Version",
    "VersionID",
    "VersionGraph",
]
