"""Version value objects.

A *version* in the paper is a full snapshot of a dataset (a file, a table, a
directory tree flattened into a single artifact...).  The optimization
algorithms only ever need an identifier and, optionally, the full-storage and
full-recreation costs, but the surrounding system (repository, generators,
examples) benefits from a slightly richer value object carrying a name,
parents in the derivation graph, creation metadata and an optional payload
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["VersionID", "Version", "normalize_version_id"]

#: Type alias for version identifiers.  Any hashable value is accepted, but
#: the generators and the repository use strings such as ``"v42"``.
VersionID = Any


def normalize_version_id(version_id: VersionID) -> VersionID:
    """Return a canonical version id.

    Integers and strings are passed through unchanged; other hashable values
    are accepted as-is.  Unhashable values raise ``TypeError`` eagerly so the
    failure happens where the bad id is introduced rather than deep inside an
    algorithm.
    """
    hash(version_id)
    return version_id


@dataclass(frozen=True)
class Version:
    """A single dataset version.

    Parameters
    ----------
    version_id:
        Unique identifier of the version within its graph or repository.
    size:
        Size of the fully materialized version.  This is the diagonal entry
        ``Δ[i, i]`` of the storage-cost matrix; by default the recreation
        cost of a materialized version (``Φ[i, i]``) equals this size.
    name:
        Optional human-readable name (branch tip name, file name, ...).
    parents:
        Identifiers of the versions this one was derived from.  A merge
        version has two or more parents; a root version has none.
    created_at:
        Logical creation timestamp (monotonically increasing integer assigned
        by the repository or generator); purely informational.
    metadata:
        Free-form mapping for application data (author, message, workload
        tags...).  Stored as an immutable tuple of items internally so the
        dataclass stays hashable.
    """

    version_id: VersionID
    size: float = 0.0
    name: str | None = None
    parents: tuple[VersionID, ...] = ()
    created_at: int = 0
    metadata: Mapping[str, Any] = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        normalize_version_id(self.version_id)
        if self.size < 0:
            raise ValueError(f"version size must be non-negative, got {self.size}")
        object.__setattr__(self, "parents", tuple(self.parents))

    @property
    def is_root(self) -> bool:
        """True when the version was not derived from any other version."""
        return not self.parents
