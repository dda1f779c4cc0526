"""Sparse storage (Δ) and recreation (Φ) cost matrices.

The paper reduces every versioning instance to two matrices:

* ``Δ[i, i]`` — the storage cost of materializing version ``i`` in full, and
  ``Δ[i, j]`` — the storage cost of the delta that recreates ``j`` from ``i``;
* ``Φ[i, i]`` — the recreation cost of reading a materialized version ``i``,
  and ``Φ[i, j]`` — the recreation cost of applying the delta from ``i`` to
  ``j`` once ``i`` is available.

Since computing deltas between *all* pairs of versions is infeasible for
large collections, the matrices are sparse: an entry that was never revealed
is simply absent ("--" in the paper's Figure 2).  :class:`CostMatrix` stores
one of the two matrices; :class:`CostModel` bundles both and knows whether
the instance is directed or undirected and whether ``Φ = Δ``.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

from ..exceptions import InvalidCostError, MissingDeltaError
from .version import VersionID

__all__ = ["CostMatrix", "CostModel"]


def _validate_cost(value: float, what: str) -> float:
    value = float(value)
    if math.isnan(value) or value < 0:
        raise InvalidCostError(f"{what} must be a non-negative number, got {value!r}")
    return value


class CostMatrix:
    """A sparse matrix of pairwise costs over version ids.

    Entries are accessed as ``matrix[i, j]``.  Diagonal entries ``(i, i)``
    represent full materialization; off-diagonal entries represent deltas.
    Missing entries raise :class:`~repro.exceptions.MissingDeltaError` on
    item access; use :meth:`get` for a defaulting lookup.

    Parameters
    ----------
    symmetric:
        When true, setting ``(i, j)`` also sets ``(j, i)`` and the matrix is
        suitable for the paper's *undirected* scenarios.
    """

    def __init__(
        self,
        entries: Mapping[tuple[VersionID, VersionID], float] | None = None,
        *,
        symmetric: bool = False,
        name: str = "cost",
    ) -> None:
        self._entries: dict[VersionID, dict[VersionID, float]] = {}
        self.symmetric = bool(symmetric)
        self.name = name
        if entries:
            for (i, j), value in entries.items():
                self.set(i, j, value)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def set(self, source: VersionID, target: VersionID, value: float) -> None:
        """Reveal (or overwrite) the cost of the edge ``source -> target``."""
        value = _validate_cost(value, f"{self.name}[{source!r}, {target!r}]")
        self._entries.setdefault(source, {})[target] = value
        if self.symmetric and source != target:
            self._entries.setdefault(target, {})[source] = value

    def set_diagonal(self, version_id: VersionID, value: float) -> None:
        """Set the materialization cost of ``version_id``."""
        self.set(version_id, version_id, value)

    def discard(self, source: VersionID, target: VersionID) -> None:
        """Remove a revealed entry if present (no error if absent)."""
        row = self._entries.get(source)
        if row is not None:
            row.pop(target, None)
        if self.symmetric and source != target:
            row = self._entries.get(target)
            if row is not None:
                row.pop(source, None)

    def update(self, other: "CostMatrix") -> None:
        """Merge all entries from ``other`` into this matrix."""
        for (i, j), value in other.items():
            self.set(i, j, value)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def __getitem__(self, key: tuple[VersionID, VersionID]) -> float:
        source, target = key
        try:
            return self._entries[source][target]
        except KeyError:
            raise MissingDeltaError(source, target) from None

    def get(
        self, source: VersionID, target: VersionID, default: float | None = None
    ) -> float | None:
        """Return the entry or ``default`` when it was never revealed."""
        return self._entries.get(source, {}).get(target, default)

    def __contains__(self, key: tuple[VersionID, VersionID]) -> bool:
        source, target = key
        return target in self._entries.get(source, {})

    def row(self, source: VersionID) -> dict[VersionID, float]:
        """All revealed targets reachable from ``source`` (copy)."""
        return dict(self._entries.get(source, {}))

    def items(self) -> Iterator[tuple[tuple[VersionID, VersionID], float]]:
        """Iterate over ``((source, target), value)`` pairs."""
        for source, row in self._entries.items():
            for target, value in row.items():
                yield (source, target), value

    def off_diagonal_items(
        self,
    ) -> Iterator[tuple[tuple[VersionID, VersionID], float]]:
        """Iterate over delta entries only (source != target)."""
        for (source, target), value in self.items():
            if source != target:
                yield (source, target), value

    def __len__(self) -> int:
        return sum(len(row) for row in self._entries.values())

    def num_deltas(self) -> int:
        """Number of revealed off-diagonal (delta) entries."""
        return sum(1 for _ in self.off_diagonal_items())

    def version_ids(self) -> set[VersionID]:
        """All version ids mentioned anywhere in the matrix."""
        ids: set[VersionID] = set(self._entries)
        for row in self._entries.values():
            ids.update(row)
        return ids

    def copy(self) -> "CostMatrix":
        """Deep copy of the matrix."""
        clone = CostMatrix(symmetric=self.symmetric, name=self.name)
        for (i, j), value in self.items():
            clone._entries.setdefault(i, {})[j] = value
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CostMatrix {self.name} entries={len(self)} "
            f"symmetric={self.symmetric}>"
        )


class CostModel:
    """Both cost matrices plus the scenario flags of the paper.

    The three scenarios of Section 2.1 are expressed as:

    * Scenario 1 — ``directed=False`` and ``phi_equals_delta=True``;
    * Scenario 2 — ``directed=True`` and ``phi_equals_delta=True``;
    * Scenario 3 — ``directed=True`` and ``phi_equals_delta=False``.

    When ``phi_equals_delta`` is true the Φ matrix is the Δ matrix (shared
    object), so revealing a delta automatically reveals its recreation cost.
    """

    def __init__(
        self,
        *,
        directed: bool = True,
        phi_equals_delta: bool = False,
        delta: CostMatrix | None = None,
        phi: CostMatrix | None = None,
    ) -> None:
        self.directed = bool(directed)
        self.phi_equals_delta = bool(phi_equals_delta)
        symmetric = not self.directed
        self.delta = delta if delta is not None else CostMatrix(symmetric=symmetric, name="delta")
        if self.phi_equals_delta:
            self.phi = self.delta
        else:
            self.phi = phi if phi is not None else CostMatrix(symmetric=symmetric, name="phi")

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def set_materialization(
        self, version_id: VersionID, storage: float, recreation: float | None = None
    ) -> None:
        """Reveal the full-materialization costs of ``version_id``.

        When ``recreation`` is omitted it defaults to ``storage`` which is
        the common case (reading a full version costs its size).
        """
        self.delta.set_diagonal(version_id, storage)
        if not self.phi_equals_delta:
            self.phi.set_diagonal(
                version_id, storage if recreation is None else recreation
            )

    def set_delta(
        self,
        source: VersionID,
        target: VersionID,
        storage: float,
        recreation: float | None = None,
    ) -> None:
        """Reveal the delta ``source -> target``.

        ``recreation`` defaults to ``storage`` (the Φ = Δ scenarios).
        """
        if source == target:
            raise InvalidCostError("use set_materialization for diagonal entries")
        self.delta.set(source, target, storage)
        if not self.phi_equals_delta:
            self.phi.set(source, target, storage if recreation is None else recreation)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def storage_cost(self, source: VersionID, target: VersionID) -> float:
        """Δ entry for ``source -> target`` (diagonal when equal)."""
        return self.delta[source, target]

    def recreation_cost(self, source: VersionID, target: VersionID) -> float:
        """Φ entry for ``source -> target`` (diagonal when equal)."""
        return self.phi[source, target]

    def has_delta(self, source: VersionID, target: VersionID) -> bool:
        """True when the delta ``source -> target`` has been revealed."""
        return (source, target) in self.delta

    def version_ids(self) -> set[VersionID]:
        """All version ids mentioned in either matrix."""
        return self.delta.version_ids() | self.phi.version_ids()

    @property
    def scenario(self) -> int:
        """The paper's scenario number (1, 2 or 3)."""
        if not self.directed:
            return 1
        return 2 if self.phi_equals_delta else 3

    def copy(self) -> "CostModel":
        """Deep copy of the cost model (matrices included)."""
        clone = CostModel(
            directed=self.directed,
            phi_equals_delta=self.phi_equals_delta,
            delta=self.delta.copy(),
            phi=None if self.phi_equals_delta else self.phi.copy(),
        )
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CostModel scenario={self.scenario} directed={self.directed} "
            f"phi_equals_delta={self.phi_equals_delta} deltas={self.delta.num_deltas()}>"
        )
