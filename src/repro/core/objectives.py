"""The quantities the paper's problems minimize or bound.

The six problems of the paper combine two cost notions (total storage cost
``C`` and recreation costs ``R_i``) in different roles: one is minimized, the
other is bounded.  :class:`Objective` names them; a plan's values for all of
them come from one place,
:meth:`~repro.core.storage_plan.StoragePlan.evaluate`.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["Objective"]


class Objective(str, Enum):
    """The quantities a problem can minimize or bound."""

    TOTAL_STORAGE = "total_storage"
    SUM_RECREATION = "sum_recreation"
    MAX_RECREATION = "max_recreation"
    WEIGHTED_RECREATION = "weighted_recreation"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
