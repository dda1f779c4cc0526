"""Access-frequency workloads.

Figure 16 of the paper evaluates a workload-aware variant of LMG where each
version is assigned an access frequency drawn from a Zipfian distribution
with exponent 2 ("real-world access frequencies are known to follow such
distributions").  This module generates those workloads, normalizes them
and samples access streams from them.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from ..core.version import VersionID

__all__ = [
    "zipfian_workload",
    "normalize_workload",
    "sample_accesses",
]


def zipfian_workload(
    version_ids: Sequence[VersionID],
    exponent: float = 2.0,
    seed: int = 0,
    shuffle: bool = True,
) -> dict[VersionID, float]:
    """Zipf-distributed access frequencies over ``version_ids``.

    The k-th most popular version receives weight ``1 / k**exponent``.  With
    ``shuffle=True`` (default) popularity ranks are assigned in a random
    order, so popularity is independent of version age; with
    ``shuffle=False`` earlier versions are the most popular.
    """
    if exponent <= 0:
        raise ValueError("Zipf exponent must be positive")
    ids = list(version_ids)
    rng = random.Random(seed)
    ranked = list(ids)
    if shuffle:
        rng.shuffle(ranked)
    weights = {vid: 1.0 / ((rank + 1) ** exponent) for rank, vid in enumerate(ranked)}
    return {vid: weights[vid] for vid in ids}


def normalize_workload(workload: Mapping[VersionID, float]) -> dict[VersionID, float]:
    """Scale frequencies so they sum to the number of versions.

    Keeping the total equal to ``len(workload)`` makes weighted recreation
    costs directly comparable to unweighted sums (a uniform workload is the
    identity under this normalization).
    """
    total = float(sum(workload.values()))
    if total <= 0:
        raise ValueError("workload weights must sum to a positive value")
    scale = len(workload) / total
    return {vid: freq * scale for vid, freq in workload.items()}


def sample_accesses(
    workload: Mapping[VersionID, float], num_accesses: int, seed: int = 0
) -> list[VersionID]:
    """Draw a concrete access trace from a frequency distribution.

    Used by the repository example and by tests that replay checkouts
    against a packed repository.
    """
    rng = random.Random(seed)
    ids = list(workload)
    weights = [workload[vid] for vid in ids]
    return rng.choices(ids, weights=weights, k=num_accesses)
