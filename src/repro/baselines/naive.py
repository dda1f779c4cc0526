"""Naive storage baselines.

The extreme layout the paper uses as a reference point throughout the
evaluation: **materialize everything** — every version stored in full
(Figure 1(ii)): minimum recreation cost, maximum storage cost.
"""

from __future__ import annotations

from ..core.instance import ProblemInstance
from ..core.storage_plan import StoragePlan

__all__ = ["materialize_all_plan"]


def materialize_all_plan(instance: ProblemInstance) -> StoragePlan:
    """Store every version in its entirety (the "store everything" baseline)."""
    return StoragePlan.materialize_all(instance.version_ids)
