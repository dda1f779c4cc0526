"""Synthetic cost annotation: turning version graphs into Δ/Φ matrices.

:func:`synthetic_costs` draws delta sizes from a parameterized distribution
relative to the version sizes, mirroring the scale of the paper's
DC/LC/BF/LF workloads without materializing payloads.  The generated
matrices respect the triangle-inequality structure the paper relies on (a
delta is never larger than materializing the target).  Measured costs come
from real payloads instead:
:meth:`~repro.storage.repository.Repository.problem_instance` diffs the
committed versions with the repository's encoder.

Both honor a *reveal policy*: following Section 2.1, deltas are only
computed between versions that are close in the version graph (within
``hop_limit`` hops), because computing all-pairs deltas is infeasible for
real systems.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.matrices import CostModel
from ..core.version import VersionID
from ..core.version_graph import VersionGraph

__all__ = [
    "SyntheticCostConfig",
    "synthetic_costs",
    "reveal_pairs",
]


def reveal_pairs(
    graph: VersionGraph, hop_limit: int | None
) -> list[tuple[VersionID, VersionID]]:
    """Ordered pairs of versions whose delta should be revealed.

    ``hop_limit=None`` reveals only the version-graph edges themselves;
    ``hop_limit=k`` reveals every ordered pair within ``k`` undirected hops
    (the paper uses 10 hops for DC and 25 for LC); ``hop_limit=0`` reveals
    all ordered pairs.
    """
    if hop_limit is None:
        return graph.edges()
    if hop_limit == 0:
        ids = graph.version_ids
        return [(a, b) for a in ids for b in ids if a != b]
    pairs: list[tuple[VersionID, VersionID]] = []
    for source in graph.version_ids:
        distances = graph.undirected_hop_distance(source, max_hops=hop_limit)
        for target in distances:
            if target != source:
                pairs.append((source, target))
    return pairs


@dataclass(frozen=True)
class SyntheticCostConfig:
    """Parameters of the synthetic Δ/Φ generator.

    ``delta_fraction_mean``/``delta_fraction_spread`` control how large a
    delta is relative to the target version's full size; the fraction grows
    with the hop distance between the versions (more distant versions are
    less similar), scaled by ``distance_growth`` per hop.
    ``recreation_multiplier``/``recreation_noise`` control the Φ entries for
    the Φ ≠ Δ scenario (Φ = multiplier · Δ · noise); with
    ``proportional=True`` the Φ matrix is shared with Δ (Scenario 1/2).
    """

    base_size_mean: float = 10_000.0
    base_size_spread: float = 0.2
    size_drift: float = 0.02
    delta_fraction_mean: float = 0.05
    delta_fraction_spread: float = 0.5
    distance_growth: float = 0.6
    recreation_multiplier: float = 3.0
    recreation_noise: float = 0.3
    proportional: bool = False
    directed: bool = True
    reverse_delta_factor: float = 1.5
    seed: int = 0


def synthetic_costs(
    graph: VersionGraph,
    config: SyntheticCostConfig | None = None,
    hop_limit: int | None = 3,
) -> CostModel:
    """Generate a synthetic cost model for ``graph``.

    Version sizes follow a random walk along the version graph (children are
    slightly larger or smaller than their parents); delta sizes are a
    hop-distance-dependent fraction of the target's size, clamped so that a
    delta never exceeds materializing the target outright.
    """
    config = config or SyntheticCostConfig()
    rng = random.Random(config.seed)
    model = CostModel(
        directed=config.directed,
        phi_equals_delta=config.proportional,
    )

    sizes: dict[VersionID, float] = {}
    for vid in graph.topological_order():
        version = graph.version(vid)
        if version.is_root:
            spread = config.base_size_spread
            sizes[vid] = config.base_size_mean * rng.uniform(1 - spread, 1 + spread)
        else:
            parent_size = sizes[version.parents[0]]
            drift = rng.uniform(-config.size_drift, config.size_drift)
            sizes[vid] = max(1.0, parent_size * (1 + drift))
        model.set_materialization(vid, sizes[vid])

    hop_cache: dict[VersionID, dict[VersionID, int]] = {}

    def hops(a: VersionID, b: VersionID) -> int:
        if a not in hop_cache:
            hop_cache[a] = graph.undirected_hop_distance(
                a, max_hops=hop_limit if hop_limit else None
            )
        return hop_cache[a].get(b, hop_limit or 1)

    for source, target in reveal_pairs(graph, hop_limit):
        distance = max(1, hops(source, target))
        fraction = config.delta_fraction_mean * (
            1 + config.distance_growth * (distance - 1)
        )
        fraction *= rng.uniform(
            1 - config.delta_fraction_spread, 1 + config.delta_fraction_spread
        )
        storage = min(sizes[target] * max(fraction, 1e-4), sizes[target])
        if config.proportional:
            model.set_delta(source, target, storage)
        else:
            recreation = (
                storage
                * config.recreation_multiplier
                * rng.uniform(1 - config.recreation_noise, 1 + config.recreation_noise)
            )
            model.set_delta(source, target, storage, recreation)
        if config.directed and (target, source) not in model.delta:
            # Reveal the reverse direction as well, typically costlier (the
            # paper's example: a compact "delete all tuples with age > 60"
            # forward command versus a bulky reverse delta).
            reverse_storage = min(
                storage * config.reverse_delta_factor * rng.uniform(0.8, 1.2),
                sizes[source],
            )
            if config.proportional:
                model.set_delta(target, source, reverse_storage)
            else:
                reverse_recreation = (
                    reverse_storage
                    * config.recreation_multiplier
                    * rng.uniform(1 - config.recreation_noise, 1 + config.recreation_noise)
                )
                model.set_delta(target, source, reverse_storage, reverse_recreation)
    return model
