"""Storage plans (the paper's *storage graphs*).

A :class:`StoragePlan` records, for every version, how it is physically
stored: either materialized in full (parent = :data:`~repro.core.instance.ROOT`)
or as a delta from exactly one other version.  Lemma 1 of the paper shows the
optimal storage graph for every problem is a spanning tree of the augmented
graph rooted at the dummy vertex ``V0`` — a storage plan is exactly such a
tree, represented as a parent map.

The class also evaluates all the metrics the six problems talk about:
total storage cost ``C``, per-version recreation cost ``R_i``, their sum,
maximum, and the workload-weighted sum used in Figure 16.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable, Iterator, Mapping

from ..exceptions import InvalidStoragePlanError, VersionNotFoundError
from .instance import ROOT, ProblemInstance
from .version import VersionID

__all__ = ["StoragePlan", "PlanMetrics"]


class PlanMetrics:
    """Evaluated costs of a storage plan against a problem instance.

    Attributes
    ----------
    storage_cost:
        Total storage cost ``C`` — sum of Δ weights of all plan edges.
    recreation_costs:
        Mapping of version id to its recreation cost ``R_i``.
    sum_recreation:
        ``Σ R_i`` over all versions.
    max_recreation:
        ``max R_i`` over all versions.
    weighted_recreation:
        ``Σ f_i · R_i`` where ``f_i`` are the instance's access frequencies.
    """

    __slots__ = (
        "storage_cost",
        "recreation_costs",
        "sum_recreation",
        "max_recreation",
        "weighted_recreation",
        "num_materialized",
    )

    def __init__(
        self,
        storage_cost: float,
        recreation_costs: dict[VersionID, float],
        weighted_recreation: float,
        num_materialized: int,
    ) -> None:
        self.storage_cost = storage_cost
        self.recreation_costs = recreation_costs
        self.sum_recreation = float(sum(recreation_costs.values()))
        self.max_recreation = float(max(recreation_costs.values())) if recreation_costs else 0.0
        self.weighted_recreation = weighted_recreation
        self.num_materialized = num_materialized

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary of the aggregate metrics (no per-version detail)."""
        return {
            "storage_cost": self.storage_cost,
            "sum_recreation": self.sum_recreation,
            "max_recreation": self.max_recreation,
            "weighted_recreation": self.weighted_recreation,
            "num_materialized": float(self.num_materialized),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PlanMetrics C={self.storage_cost:g} sumR={self.sum_recreation:g} "
            f"maxR={self.max_recreation:g} materialized={self.num_materialized}>"
        )


class StoragePlan:
    """A spanning tree of the augmented graph, i.e. a physical layout decision.

    The plan is a mapping ``version -> parent`` where the parent is either
    another version (store a delta) or :data:`ROOT` (materialize).  The class
    is mutable — algorithms build plans incrementally — but every public
    mutation keeps the parent map internally consistent; full validation
    against an instance happens in :meth:`validate`.
    """

    def __init__(self, parents: Mapping[VersionID, VersionID] | None = None) -> None:
        self._parent: dict[VersionID, VersionID] = {}
        if parents:
            for child, parent in parents.items():
                self.assign(child, parent)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def assign(self, version_id: VersionID, parent: VersionID) -> None:
        """Store ``version_id`` as a delta from ``parent`` (or materialize it).

        Passing :data:`ROOT` (or ``None``) as the parent materializes the
        version.  Reassigning an existing version simply moves it.
        """
        if parent is None:
            parent = ROOT
        if parent == version_id:
            raise InvalidStoragePlanError(
                f"version {version_id!r} cannot be stored as a delta from itself"
            )
        self._parent[version_id] = parent

    def materialize(self, version_id: VersionID) -> None:
        """Materialize ``version_id`` in full."""
        self.assign(version_id, ROOT)

    def remove(self, version_id: VersionID) -> None:
        """Forget the storage decision for ``version_id``."""
        self._parent.pop(version_id, None)

    def copy(self) -> "StoragePlan":
        """Return an independent copy of the plan."""
        clone = StoragePlan()
        clone._parent = dict(self._parent)
        return clone

    @classmethod
    def materialize_all(cls, version_ids: Iterable[VersionID]) -> "StoragePlan":
        """The naive plan that stores every version in full."""
        plan = cls()
        for vid in version_ids:
            plan.materialize(vid)
        return plan

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, version_id: VersionID) -> bool:
        return version_id in self._parent

    def __iter__(self) -> Iterator[VersionID]:
        return iter(self._parent)

    def parent(self, version_id: VersionID) -> VersionID:
        """The parent of ``version_id`` (:data:`ROOT` when materialized)."""
        try:
            return self._parent[version_id]
        except KeyError:
            raise VersionNotFoundError(version_id) from None

    def is_materialized(self, version_id: VersionID) -> bool:
        """True when ``version_id`` is stored in full."""
        return self.parent(version_id) is ROOT

    def materialized_versions(self) -> list[VersionID]:
        """All versions stored in full."""
        return [vid for vid, parent in self._parent.items() if parent is ROOT]

    def delta_edges(self) -> list[tuple[VersionID, VersionID]]:
        """All ``(parent, child)`` delta edges (excluding materializations)."""
        return [
            (parent, child)
            for child, parent in self._parent.items()
            if parent is not ROOT
        ]

    def children_map(self) -> dict[VersionID, list[VersionID]]:
        """Mapping of each parent (including ROOT) to its children."""
        children: dict[VersionID, list[VersionID]] = {}
        for child, parent in self._parent.items():
            children.setdefault(parent, []).append(child)
        return children

    def chain_to_root(self, version_id: VersionID) -> list[VersionID]:
        """The materialization chain ``[materialized ancestor, ..., version_id]``.

        This is the sequence of versions that must be touched to recreate
        ``version_id``.  Raises if the plan contains a cycle reachable from
        the version.
        """
        chain: list[VersionID] = []
        seen: set[VersionID] = set()
        current = version_id
        while current is not ROOT:
            if current in seen:
                raise InvalidStoragePlanError(
                    f"storage plan contains a cycle involving {current!r}"
                )
            seen.add(current)
            chain.append(current)
            current = self.parent(current)
        chain.reverse()
        return chain

    def depth(self, version_id: VersionID) -> int:
        """Number of delta applications needed to recreate ``version_id``.

        A materialized version has depth 0.
        """
        return len(self.chain_to_root(version_id)) - 1

    def max_depth(self) -> int:
        """The longest delta chain in the plan (0 when everything is full)."""
        return max((self.depth(vid) for vid in self._parent), default=0)

    # ------------------------------------------------------------------ #
    # validation and evaluation
    # ------------------------------------------------------------------ #
    def validate(self, instance: ProblemInstance) -> None:
        """Check the plan is a feasible storage graph for ``instance``.

        A feasible plan (Lemma 1) must

        * cover every version of the instance exactly once,
        * be acyclic with every version reachable from the dummy root, and
        * only use edges whose Δ and Φ costs are revealed in the instance.

        Raises :class:`~repro.exceptions.InvalidStoragePlanError` otherwise.
        """
        missing = [vid for vid in instance.version_ids if vid not in self._parent]
        if missing:
            raise InvalidStoragePlanError(
                f"storage plan does not cover versions: {missing[:5]!r}"
            )
        extra = [vid for vid in self._parent if vid not in instance]
        if extra:
            raise InvalidStoragePlanError(
                f"storage plan mentions unknown versions: {extra[:5]!r}"
            )
        for child, parent in self._parent.items():
            if parent is ROOT:
                continue
            if parent not in instance:
                raise InvalidStoragePlanError(
                    f"version {child!r} is stored as a delta from unknown "
                    f"version {parent!r}"
                )
            if not instance.cost_model.has_delta(parent, child):
                raise InvalidStoragePlanError(
                    f"plan uses unrevealed delta {parent!r} -> {child!r}"
                )
        # Reachability from ROOT (also detects cycles).
        children = self.children_map()
        reached: set[VersionID] = set()
        queue = deque(children.get(ROOT, []))
        while queue:
            vid = queue.popleft()
            if vid in reached:
                continue
            reached.add(vid)
            queue.extend(children.get(vid, []))
        unreachable = [vid for vid in self._parent if vid not in reached]
        if unreachable:
            raise InvalidStoragePlanError(
                "storage plan has versions unreachable from the root (cycle or "
                f"dangling chain): {unreachable[:5]!r}"
            )

    def recreation_costs(self, instance: ProblemInstance) -> dict[VersionID, float]:
        """Per-version recreation costs ``R_i`` under this plan.

        Computed by a single top-down traversal from the root, so the cost of
        each version is the Φ-cost of its materialization chain.
        """
        children = self.children_map()
        costs: dict[VersionID, float] = {}
        queue: deque[tuple[VersionID, float]] = deque()
        for vid in children.get(ROOT, []):
            costs[vid] = instance.materialization_recreation(vid)
            queue.append((vid, costs[vid]))
        while queue:
            vid, cost = queue.popleft()
            for child in children.get(vid, []):
                child_cost = cost + instance.delta_recreation(vid, child)
                costs[child] = child_cost
                queue.append((child, child_cost))
        return costs

    def storage_cost(self, instance: ProblemInstance) -> float:
        """Total storage cost ``C`` of the plan."""
        total = 0.0
        for child, parent in self._parent.items():
            if parent is ROOT:
                total += instance.materialization_storage(child)
            else:
                total += instance.delta_storage(parent, child)
        return total

    def evaluate(self, instance: ProblemInstance, validate: bool = True) -> PlanMetrics:
        """Evaluate every metric of the plan against ``instance``."""
        if validate:
            self.validate(instance)
        recreation = self.recreation_costs(instance)
        weighted = sum(
            instance.access_frequency(vid) * cost for vid, cost in recreation.items()
        )
        return PlanMetrics(
            storage_cost=self.storage_cost(instance),
            recreation_costs=recreation,
            weighted_recreation=float(weighted),
            num_materialized=len(self.materialized_versions()),
        )

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, object]:
        """JSON-serializable representation of the plan.

        Version ids are converted to strings; the dummy root is encoded as
        ``None``.  Intended for persisting plans alongside a repository.
        """
        return {
            "materialized": [str(v) for v in self.materialized_versions()],
            "deltas": [
                {"parent": str(parent), "child": str(child)}
                for parent, child in self.delta_edges()
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize the plan to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StoragePlan versions={len(self)} "
            f"materialized={len(self.materialized_versions())}>"
        )
