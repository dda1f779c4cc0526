"""Synthetic dataset, cost and workload generators.

Everything the paper's evaluation needs as input is generated here:

* :mod:`~repro.datagen.graph_gen` — branching/merging version histories;
* :mod:`~repro.datagen.cost_gen` — Δ/Φ matrices, either measured from real
  deltas or drawn synthetically with a k-hop reveal policy;
* :mod:`~repro.datagen.forks_gen` — simulated GitHub-fork collections;
* :mod:`~repro.datagen.workload` — Zipfian and other access-frequency
  workloads;
* :mod:`~repro.datagen.scenarios` — the four canonical DC/LC/BF/LF datasets.
"""

from . import scenarios
from .cost_gen import SyntheticCostConfig, reveal_pairs, synthetic_costs
from .forks_gen import ForkDataset, ForkDatasetConfig, generate_fork_dataset
from .graph_gen import (
    VersionGraphConfig,
    flat_history_graph,
    generate_version_graph,
    linear_chain_graph,
)
from .scenarios import (
    ScenarioDataset,
    all_scenarios,
    bootstrap_forks,
    densely_connected,
    linear_chain,
    linux_forks,
)
from .workload import (
    normalize_workload,
    sample_accesses,
    zipfian_workload,
)

__all__ = [
    "scenarios",
    "SyntheticCostConfig",
    "reveal_pairs",
    "synthetic_costs",
    "ForkDataset",
    "ForkDatasetConfig",
    "generate_fork_dataset",
    "VersionGraphConfig",
    "flat_history_graph",
    "generate_version_graph",
    "linear_chain_graph",
    "ScenarioDataset",
    "all_scenarios",
    "bootstrap_forks",
    "densely_connected",
    "linear_chain",
    "linux_forks",
    "normalize_workload",
    "sample_accesses",
    "zipfian_workload",
]
