"""Problem instances: versions + cost model + (optional) access frequencies.

Section 2.2 of the paper maps the versioning problem onto a directed,
edge-weighted graph ``G`` containing one vertex per version plus a *dummy
root* ``V0``.  An edge ``V0 -> Vi`` weighted ``<Δ[i,i], Φ[i,i]>`` represents
materializing ``Vi`` in full; an edge ``Vi -> Vj`` weighted
``<Δ[i,j], Φ[i,j]>`` represents storing ``Vj`` as a delta from ``Vi``.
Every storage solution is a spanning tree of ``G`` rooted at ``V0``
(Lemma 1).

:class:`ProblemInstance` is exactly this graph: it owns the set of versions,
the :class:`~repro.core.matrices.CostModel`, and optional per-version access
frequencies used by the workload-aware experiments (Figure 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from ..exceptions import InvalidCostError, VersionNotFoundError
from .matrices import CostModel
from .version import Version, VersionID
from .version_graph import VersionGraph

__all__ = ["ROOT", "Edge", "ProblemInstance"]


class _DummyRoot:
    """Singleton sentinel for the dummy root vertex ``V0``."""

    _instance: "_DummyRoot | None" = None

    def __new__(cls) -> "_DummyRoot":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ROOT"

    def __reduce__(self):
        return (_DummyRoot, ())


#: The dummy root vertex ``V0``.  An edge from :data:`ROOT` to a version in a
#: storage plan means that version is materialized in full.
ROOT = _DummyRoot()


@dataclass(frozen=True)
class Edge:
    """One candidate edge of the augmented graph ``G``.

    ``source`` is :data:`ROOT` for materialization edges.  ``storage`` is the
    Δ weight, ``recreation`` the Φ weight.
    """

    source: VersionID
    target: VersionID
    storage: float
    recreation: float


class ProblemInstance:
    """A complete input to any of the six optimization problems.

    Parameters
    ----------
    versions:
        The versions to be stored.  Their ``size`` attribute is used as the
        default materialization cost when the cost model has no diagonal
        entry for them.
    cost_model:
        The Δ/Φ matrices plus directedness flags.
    access_frequencies:
        Optional mapping of version id to a non-negative weight.  When
        omitted every version has frequency 1 (uniform workload).
    """

    def __init__(
        self,
        versions: Iterable[Version | VersionID],
        cost_model: CostModel,
        access_frequencies: Mapping[VersionID, float] | None = None,
    ) -> None:
        self._versions: dict[VersionID, Version] = {}
        for item in versions:
            version = item if isinstance(item, Version) else Version(version_id=item)
            self._versions[version.version_id] = version
        if not self._versions:
            raise InvalidCostError("a problem instance needs at least one version")
        self.cost_model = cost_model
        self._frequencies: dict[VersionID, float] = {}
        if access_frequencies:
            for vid, freq in access_frequencies.items():
                if vid not in self._versions:
                    raise VersionNotFoundError(vid)
                if freq < 0:
                    raise InvalidCostError(
                        f"access frequency of {vid!r} must be non-negative"
                    )
                self._frequencies[vid] = float(freq)
        self._ensure_materialization_costs()

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_version_graph(
        cls,
        graph: VersionGraph,
        cost_model: CostModel,
        access_frequencies: Mapping[VersionID, float] | None = None,
    ) -> "ProblemInstance":
        """Build an instance from a derivation graph and its cost model."""
        return cls(graph.versions, cost_model, access_frequencies)

    def _ensure_materialization_costs(self) -> None:
        """Fill missing diagonal entries from the versions' sizes."""
        for vid, version in self._versions.items():
            if self.cost_model.delta.get(vid, vid) is None:
                if version.size <= 0:
                    raise InvalidCostError(
                        f"version {vid!r} has no materialization cost: the cost "
                        "model has no diagonal entry and the version size is 0"
                    )
                self.cost_model.set_materialization(vid, version.size)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._versions)

    def __contains__(self, version_id: VersionID) -> bool:
        return version_id in self._versions

    @property
    def version_ids(self) -> list[VersionID]:
        """All version ids (insertion order)."""
        return list(self._versions)

    @property
    def versions(self) -> list[Version]:
        """All version objects (insertion order)."""
        return list(self._versions.values())

    def version(self, version_id: VersionID) -> Version:
        """Return the version object registered for ``version_id``."""
        try:
            return self._versions[version_id]
        except KeyError:
            raise VersionNotFoundError(version_id) from None

    @property
    def directed(self) -> bool:
        """True for the paper's directed scenarios (2 and 3)."""
        return self.cost_model.directed

    @property
    def scenario(self) -> int:
        """The paper's scenario number (1, 2 or 3)."""
        return self.cost_model.scenario

    def access_frequency(self, version_id: VersionID) -> float:
        """Access frequency of ``version_id`` (1.0 when no workload given)."""
        self.version(version_id)
        return self._frequencies.get(version_id, 1.0)

    @property
    def has_workload(self) -> bool:
        """True when explicit access frequencies were provided."""
        return bool(self._frequencies)

    def with_access_frequencies(
        self, frequencies: Mapping[VersionID, float]
    ) -> "ProblemInstance":
        """Return a new instance sharing costs but with a different workload."""
        return ProblemInstance(self.versions, self.cost_model, frequencies)

    # ------------------------------------------------------------------ #
    # cost lookups
    # ------------------------------------------------------------------ #
    def materialization_storage(self, version_id: VersionID) -> float:
        """Δ[i, i] — storage cost of keeping ``version_id`` in full."""
        return self.cost_model.delta[version_id, version_id]

    def materialization_recreation(self, version_id: VersionID) -> float:
        """Φ[i, i] — recreation cost of reading the materialized version."""
        return self.cost_model.phi[version_id, version_id]

    def delta_storage(self, source: VersionID, target: VersionID) -> float:
        """Δ[i, j] — storage cost of the delta ``source -> target``."""
        return self.cost_model.delta[source, target]

    def delta_recreation(self, source: VersionID, target: VersionID) -> float:
        """Φ[i, j] — recreation cost of the delta ``source -> target``."""
        return self.cost_model.phi[source, target]

    def edge_costs(self, source: VersionID, target: VersionID) -> tuple[float, float]:
        """``(Δ, Φ)`` pair for an edge of the augmented graph.

        ``source`` may be :data:`ROOT`, in which case the diagonal
        (materialization) entries of ``target`` are returned.
        """
        if source is ROOT:
            return (
                self.materialization_storage(target),
                self.materialization_recreation(target),
            )
        return (
            self.delta_storage(source, target),
            self.delta_recreation(source, target),
        )

    # ------------------------------------------------------------------ #
    # graph views used by the algorithms
    # ------------------------------------------------------------------ #
    def edges(self, include_root: bool = True) -> Iterator[Edge]:
        """Iterate over every candidate edge of the augmented graph ``G``.

        Root (materialization) edges come first, then every revealed delta.
        For undirected cost models the symmetric matrix already contains both
        orientations, so each undirected delta yields two directed edges.
        """
        if include_root:
            for vid in self._versions:
                storage, recreation = self.edge_costs(ROOT, vid)
                yield Edge(ROOT, vid, storage, recreation)
        for (source, target), storage in self.cost_model.delta.off_diagonal_items():
            if source not in self._versions or target not in self._versions:
                continue
            recreation = self.cost_model.phi.get(source, target)
            if recreation is None:
                # A delta without a recreation cost cannot be used.
                continue
            yield Edge(source, target, storage, recreation)

    def out_edges(self, source: VersionID) -> list[Edge]:
        """All candidate edges leaving ``source`` (which may be ROOT)."""
        if source is ROOT:
            return [
                Edge(ROOT, vid, *self.edge_costs(ROOT, vid)) for vid in self._versions
            ]
        edges = []
        for target, storage in self.cost_model.delta.row(source).items():
            if target == source or target not in self._versions:
                continue
            recreation = self.cost_model.phi.get(source, target)
            if recreation is None:
                continue
            edges.append(Edge(source, target, storage, recreation))
        return edges

    def neighbors(self, version_id: VersionID) -> list[VersionID]:
        """Versions reachable from ``version_id`` through one revealed delta."""
        return [edge.target for edge in self.out_edges(version_id)]

    # ------------------------------------------------------------------ #
    # summary statistics (Figure 12 style)
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, float]:
        """Return the Figure-12-style property summary of this instance."""
        sizes = [self.materialization_storage(vid) for vid in self._versions]
        deltas = [
            storage
            for (_, _), storage in self.cost_model.delta.off_diagonal_items()
        ]
        return {
            "num_versions": float(len(self._versions)),
            "num_deltas": float(len(deltas)),
            "average_version_size": float(sum(sizes) / len(sizes)),
            "total_version_size": float(sum(sizes)),
            "average_delta_size": float(sum(deltas) / len(deltas)) if deltas else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ProblemInstance versions={len(self)} scenario={self.scenario} "
            f"deltas={self.cost_model.delta.num_deltas()}>"
        )
