"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch everything originating from this package with a single
``except`` clause while still being able to distinguish specific failure
modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "VersionNotFoundError",
    "DuplicateVersionError",
    "MissingDeltaError",
    "InvalidCostError",
    "InvalidStoragePlanError",
    "InfeasibleProblemError",
    "CycleError",
    "RepositoryError",
    "ObjectNotFoundError",
    "MergeError",
    "StaleEpochError",
    "SnapshotConflictError",
    "LeaseError",
    "NotLeaseHolderError",
    "LeaseFencedError",
    "DeltaApplicationError",
    "SolverError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""

    def __str__(self) -> str:
        # The plain message, also for the KeyError subclasses, whose own
        # __str__ would quote it.
        return Exception.__str__(self)


class VersionNotFoundError(ReproError, KeyError):
    """A referenced version id does not exist in the graph or repository."""

    def __init__(self, version_id: object) -> None:
        super().__init__(f"version {version_id!r} does not exist")
        self.version_id = version_id


class DuplicateVersionError(ReproError, ValueError):
    """An attempt was made to register a version id that already exists."""

    def __init__(self, version_id: object) -> None:
        super().__init__(f"version {version_id!r} already exists")
        self.version_id = version_id


class MissingDeltaError(ReproError, KeyError):
    """A delta between two versions was requested but never revealed."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"no delta revealed from {source!r} to {target!r}")
        self.source = source
        self.target = target


class InvalidCostError(ReproError, ValueError):
    """A storage or recreation cost is negative, NaN or otherwise invalid."""


class InvalidStoragePlanError(ReproError, ValueError):
    """A storage plan is not a valid spanning tree rooted at the dummy vertex."""


class InfeasibleProblemError(ReproError, ValueError):
    """No storage plan can satisfy the requested constraint.

    For example a storage budget below the cost of the minimum spanning
    tree / arborescence, or a maximum-recreation threshold below the cost of
    materializing the largest version.
    """


class CycleError(ReproError, ValueError):
    """A version graph that must be acyclic contains a cycle."""


class RepositoryError(ReproError):
    """Base class for errors raised by the prototype version manager."""


class ObjectNotFoundError(RepositoryError, KeyError):
    """A content-addressed object is missing from the object store."""


class MergeError(RepositoryError):
    """A merge could not be performed (e.g. fewer than two parents)."""


class StaleEpochError(RepositoryError):
    """A transactional write was judged against metadata that moved underneath.

    Raised by the metadata catalog when a commit's delta base no longer
    matches the active snapshot's mapping for the parent version (a peer
    process repacked between encoding and the commit transaction).  The
    caller should resynchronize from the catalog and retry.
    """


class SnapshotConflictError(RepositoryError):
    """A staged snapshot could not be activated.

    Exactly one activation wins per epoch: when a peer process activated a
    different snapshot after this one was staged, the activation transaction
    refuses and the staged epoch must be failed and pruned instead.
    """


class LeaseError(RepositoryError):
    """Base class for replica-group lease coordination failures."""


class NotLeaseHolderError(LeaseError):
    """A planner-only operation was attempted by a replica without the lease.

    Raised by the serving layer when a replica joined to a group
    (``repro serve --join``) receives a repack or prune request while a
    peer holds the repack-planner lease.  The HTTP transport maps this to
    ``409 Conflict``: retry against the holder (its id is in ``/stats``
    under ``repack.lease.holder``), or wait for this replica to steal an
    expired lease.
    """


class LeaseFencedError(LeaseError):
    """A staged epoch's activation carried a stale fencing token.

    The activation transaction validates the fencing token captured when
    staging began against the lease table's current token.  A mismatch
    means the planner lost the lease mid-repack — it was paused past its
    TTL and a peer stole the lease — so activating would let a zombie
    planner swap in an epoch planned against state the group has moved
    past.  The staging is marked failed and must be pruned.
    """


class DeltaApplicationError(ReproError):
    """A delta could not be applied to the payload it claims to transform."""


class SolverError(ReproError):
    """An optimization algorithm failed to produce a valid storage plan."""
