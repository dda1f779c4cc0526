"""Fork-style datasets (the paper's BF and LF workloads, simulated).

The paper's two real-world workloads are built from GitHub forks: 986 forks
of Twitter Bootstrap (BF) and 100 forks of Linux (LF).  Each fork's latest
tree is flattened into one large file and deltas are computed between every
pair of forks whose size difference is below a threshold.

Those repositories cannot be downloaded in this environment, so this module
generates a *statistically similar* substitute: a single upstream lineage of
an artificial "project file", plus many forks that branch off random points
of that lineage and then apply a handful of local edits.  The resulting
collection has the same signature the paper reports in Figure 12 — many
near-duplicate versions, deltas that are tiny relative to version size, and
a delta graph pruned by a pairwise size-difference threshold.

The algorithms only ever see the cost model, so the substitute exercises
them on the paper's workload shape; it does not reproduce the paper's
absolute BF/LF numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.matrices import CostModel
from ..core.version import Version, VersionID
from ..core.version_graph import VersionGraph

__all__ = ["ForkDatasetConfig", "ForkDataset", "generate_fork_dataset"]


@dataclass(frozen=True)
class ForkDatasetConfig:
    """Parameters of the simulated fork collection.

    ``num_forks`` plays the role of the number of repositories; each fork's
    flattened file has roughly ``base_size`` units, individual forks diverge
    from upstream by ``divergence_fraction`` of the file on average, and
    deltas between forks are only revealed when the two sizes differ by less
    than ``pair_threshold_fraction`` of the base size (mirroring the paper's
    100 KB / 10 MB thresholds).
    """

    num_forks: int = 100
    upstream_length: int = 20
    base_size: float = 50_000.0
    size_spread: float = 0.05
    divergence_fraction: float = 0.02
    divergence_spread: float = 1.0
    pair_threshold_fraction: float = 0.1
    recreation_multiplier: float = 2.0
    directed: bool = True
    seed: int = 0


@dataclass
class ForkDataset:
    """The simulated fork collection: a version graph plus its cost model."""

    graph: VersionGraph
    cost_model: CostModel
    upstream_points: dict[VersionID, int]


def generate_fork_dataset(config: ForkDatasetConfig | None = None) -> ForkDataset:
    """Generate a BF/LF-style fork collection.

    Every fork is a version whose "distance" from upstream commit ``k`` is
    modeled explicitly; the delta between two forks grows with how far apart
    their upstream branch points are plus their individual divergence, and
    is clamped to never exceed materializing the target.  Pairs whose sizes
    differ by more than the threshold are not revealed, exactly like the
    paper's preprocessing.
    """
    config = config or ForkDatasetConfig()
    rng = random.Random(config.seed)
    graph = VersionGraph()

    sizes: dict[VersionID, float] = {}
    divergence: dict[VersionID, float] = {}
    upstream_points: dict[VersionID, int] = {}

    for index in range(config.num_forks):
        vid = f"fork{index}"
        branch_point = rng.randint(0, config.upstream_length - 1)
        size = config.base_size * rng.uniform(1 - config.size_spread, 1 + config.size_spread)
        local_divergence = (
            config.base_size
            * config.divergence_fraction
            * rng.uniform(0.1, 1 + config.divergence_spread)
        )
        graph.add_version(Version(version_id=vid, size=size, name=vid, created_at=index))
        sizes[vid] = size
        divergence[vid] = local_divergence
        upstream_points[vid] = branch_point

    model = CostModel(directed=config.directed, phi_equals_delta=False)
    for vid, size in sizes.items():
        model.set_materialization(vid, size, size)

    threshold = config.base_size * config.pair_threshold_fraction
    fork_ids = list(sizes)
    upstream_gap_unit = config.base_size * config.divergence_fraction
    for i, source in enumerate(fork_ids):
        for target in fork_ids[i + 1:]:
            if abs(sizes[source] - sizes[target]) > threshold:
                continue
            gap = abs(upstream_points[source] - upstream_points[target])
            estimated = (
                divergence[source]
                + divergence[target]
                + gap * upstream_gap_unit * rng.uniform(0.5, 1.5)
            )
            forward = min(estimated, sizes[target])
            backward = min(estimated * rng.uniform(0.9, 1.1), sizes[source])
            model.set_delta(
                source, target, forward, forward * config.recreation_multiplier
            )
            model.set_delta(
                target, source, backward, backward * config.recreation_multiplier
            )
    return ForkDataset(graph=graph, cost_model=model, upstream_points=upstream_points)
