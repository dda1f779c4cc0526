"""Independent-compression baseline ("naive gzip").

Section 5.2 of the paper contrasts version-aware storage against simply
compressing every version independently with gzip — no cross-version
redundancy is exploited, so storage stays large, but every version can be
read back with a single decompression (recreation cost stays flat).

:func:`gzip_cost_report` works from a cost model alone: it applies an
assumed compression ratio to the materialization costs.
"""

from __future__ import annotations

from ..core.instance import ProblemInstance
from ..core.version import VersionID

__all__ = ["GzipReport", "gzip_cost_report"]


class GzipReport:
    """Storage/recreation costs of compressing each version independently."""

    def __init__(
        self,
        storage_cost: float,
        sum_recreation: float,
        max_recreation: float,
        per_version: dict[VersionID, float],
    ) -> None:
        self.storage_cost = storage_cost
        self.sum_recreation = sum_recreation
        self.max_recreation = max_recreation
        self.per_version = per_version

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary used by the Section 5.2 comparison bench."""
        return {
            "storage_cost": self.storage_cost,
            "sum_recreation": self.sum_recreation,
            "max_recreation": self.max_recreation,
        }


def gzip_cost_report(
    instance: ProblemInstance,
    *,
    compression_ratio: float = 3.0,
    decompression_overhead: float = 0.05,
) -> GzipReport:
    """Model the gzip baseline on a cost-only instance.

    Each version's storage is its materialization cost divided by the
    assumed ``compression_ratio``; its recreation cost is its full
    materialization recreation cost plus the decompression surcharge.
    """
    if compression_ratio <= 0:
        raise ValueError("compression_ratio must be positive")
    compressed: dict[VersionID, float] = {}
    recreation: dict[VersionID, float] = {}
    for vid in instance.version_ids:
        full = instance.materialization_storage(vid)
        compressed[vid] = full / compression_ratio
        recreation[vid] = instance.materialization_recreation(vid) * (
            1.0 + decompression_overhead
        )
    return GzipReport(
        storage_cost=float(sum(compressed.values())),
        sum_recreation=float(sum(recreation.values())),
        max_recreation=float(max(recreation.values())) if recreation else 0.0,
        per_version=compressed,
    )
