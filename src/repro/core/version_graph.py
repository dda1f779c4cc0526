"""The derivation (version) graph.

The version graph ``G(V, E)`` of the paper records *how versions came to be*:
a directed edge ``Vi -> Vj`` means ``Vj`` was derived from ``Vi`` (an update,
a cleaning step, a transformation).  Because branching and merging are both
allowed the graph is a DAG, not a chain.

The version graph is distinct from the *storage graph* (see
:mod:`repro.core.storage_plan`): the former is history, the latter is the
physical layout decision the optimization algorithms produce.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Mapping

from ..exceptions import CycleError, DuplicateVersionError, VersionNotFoundError
from .version import Version, VersionID

__all__ = ["VersionGraph"]


class VersionGraph:
    """A DAG of versions with derivation edges.

    The class is intentionally small: it stores :class:`Version` objects,
    parent/child adjacency, and offers the traversals the generators,
    repository and cost annotators need (topological order, ancestors,
    descendants, k-hop neighborhoods, undirected distances).
    """

    def __init__(self, versions: Iterable[Version] = ()) -> None:
        self._versions: dict[VersionID, Version] = {}
        self._children: dict[VersionID, list[VersionID]] = {}
        self._parents: dict[VersionID, list[VersionID]] = {}
        for version in versions:
            self.add_version(version)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_version(self, version: Version) -> Version:
        """Add ``version`` to the graph.

        Parents referenced by the version must already exist; this keeps the
        graph acyclic by construction (an edge can only point from an older
        version to a newer one).
        """
        if version.version_id in self._versions:
            raise DuplicateVersionError(version.version_id)
        for parent in version.parents:
            if parent not in self._versions:
                raise VersionNotFoundError(parent)
        self._versions[version.version_id] = version
        self._children.setdefault(version.version_id, [])
        self._parents[version.version_id] = list(version.parents)
        for parent in version.parents:
            self._children[parent].append(version.version_id)
        return version

    def add(
        self,
        version_id: VersionID,
        size: float = 0.0,
        parents: Iterable[VersionID] = (),
        name: str | None = None,
        **metadata: object,
    ) -> Version:
        """Convenience wrapper building a :class:`Version` and adding it."""
        version = Version(
            version_id=version_id,
            size=size,
            name=name,
            parents=tuple(parents),
            created_at=len(self._versions),
            metadata=metadata,
        )
        return self.add_version(version)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def __contains__(self, version_id: VersionID) -> bool:
        return version_id in self._versions

    def __len__(self) -> int:
        return len(self._versions)

    def __iter__(self) -> Iterator[VersionID]:
        return iter(self._versions)

    def version(self, version_id: VersionID) -> Version:
        """Return the :class:`Version` registered under ``version_id``."""
        try:
            return self._versions[version_id]
        except KeyError:
            raise VersionNotFoundError(version_id) from None

    @property
    def version_ids(self) -> list[VersionID]:
        """All version ids in insertion order."""
        return list(self._versions)

    @property
    def versions(self) -> list[Version]:
        """All version objects in insertion order."""
        return list(self._versions.values())

    def parents(self, version_id: VersionID) -> list[VersionID]:
        """Direct parents (versions this one was derived from)."""
        self.version(version_id)
        return list(self._parents[version_id])

    def children(self, version_id: VersionID) -> list[VersionID]:
        """Direct children (versions derived from this one)."""
        self.version(version_id)
        return list(self._children[version_id])

    def roots(self) -> list[VersionID]:
        """Versions with no parents."""
        return [vid for vid in self._versions if not self._parents[vid]]

    def leaves(self) -> list[VersionID]:
        """Versions with no children (current branch tips)."""
        return [vid for vid in self._versions if not self._children[vid]]

    def merges(self) -> list[VersionID]:
        """Versions with two or more parents."""
        return [vid for vid in self._versions if len(self._parents[vid]) >= 2]

    def edges(self) -> list[tuple[VersionID, VersionID]]:
        """All derivation edges as ``(parent, child)`` pairs."""
        return [
            (parent, child)
            for child, parents in self._parents.items()
            for parent in parents
        ]

    def number_of_edges(self) -> int:
        """Total number of derivation edges."""
        return sum(len(parents) for parents in self._parents.values())

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def topological_order(self) -> list[VersionID]:
        """Return version ids in a topological order (parents first).

        Raises :class:`~repro.exceptions.CycleError` if the graph somehow
        acquired a cycle (should not happen when built through
        :meth:`add_version`).
        """
        in_degree = {vid: len(parents) for vid, parents in self._parents.items()}
        queue = deque(vid for vid, deg in in_degree.items() if deg == 0)
        order: list[VersionID] = []
        while queue:
            vid = queue.popleft()
            order.append(vid)
            for child in self._children[vid]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    queue.append(child)
        if len(order) != len(self._versions):
            raise CycleError("version graph contains a cycle")
        return order

    def ancestors(self, version_id: VersionID) -> set[VersionID]:
        """All transitive ancestors of ``version_id`` (excluding itself)."""
        return self._reach(version_id, self._parents)

    def _reach(
        self, version_id: VersionID, adjacency: Mapping[VersionID, list[VersionID]]
    ) -> set[VersionID]:
        self.version(version_id)
        seen: set[VersionID] = set()
        stack = list(adjacency[version_id])
        while stack:
            vid = stack.pop()
            if vid in seen:
                continue
            seen.add(vid)
            stack.extend(adjacency[vid])
        return seen

    def undirected_hop_distance(
        self, source: VersionID, max_hops: int | None = None
    ) -> dict[VersionID, int]:
        """BFS hop distances from ``source`` ignoring edge direction.

        Used by the "reveal deltas between close-by versions" policy of
        Section 2.1: two versions within ``k`` hops of each other in the
        version graph are likely similar, so their delta is worth computing.
        """
        self.version(source)
        distances = {source: 0}
        queue = deque([source])
        while queue:
            vid = queue.popleft()
            dist = distances[vid]
            if max_hops is not None and dist >= max_hops:
                continue
            for neighbor in self._children[vid] + self._parents[vid]:
                if neighbor not in distances:
                    distances[neighbor] = dist + 1
                    queue.append(neighbor)
        return distances

    def bfs_subgraph(self, start: VersionID, max_versions: int) -> "VersionGraph":
        """Breadth-first subgraph of at most ``max_versions`` versions.

        This mirrors the paper's running-time experiment (Figure 17), which
        builds subgraphs of increasing size by BFS from a random node.
        Parent links pointing outside the selected set are dropped.
        """
        self.version(start)
        selected: list[VersionID] = []
        seen = {start}
        queue = deque([start])
        while queue and len(selected) < max_versions:
            vid = queue.popleft()
            selected.append(vid)
            for neighbor in self._children[vid] + self._parents[vid]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        selected_set = set(selected)
        sub = VersionGraph()
        # Insert in an order where retained parents precede children.
        order = [vid for vid in self.topological_order() if vid in selected_set]
        for vid in order:
            original = self._versions[vid]
            kept_parents = tuple(p for p in original.parents if p in selected_set)
            sub.add_version(
                Version(
                    version_id=original.version_id,
                    size=original.size,
                    name=original.name,
                    parents=kept_parents,
                    created_at=original.created_at,
                    metadata=dict(original.metadata),
                )
            )
        return sub

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VersionGraph versions={len(self._versions)} "
            f"edges={self.number_of_edges()} merges={len(self.merges())}>"
        )
