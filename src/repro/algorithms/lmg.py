"""LMG — the Local Move Greedy heuristic (Problems 3 and 5).

Section 4.1 of the paper.  LMG applies when the *average* (equivalently the
sum of) recreation cost is bounded or minimized:

* Problem 3 — minimize ``Σ R_i`` subject to a storage budget ``C ≤ β``;
* Problem 5 — minimize ``C`` subject to ``Σ R_i ≤ θ``.

The heuristic starts from the storage-optimal tree (MST for undirected
instances, minimum-cost arborescence for directed ones) and greedily applies
*local moves*: replace the current parent edge of some version ``v`` with the
edge the shortest-path tree would use for ``v``, i.e. trade storage for
recreation.  Each round picks the move with the largest ratio

    ρ = (reduction in sum of recreation costs) / (increase in storage cost)

and stops when the storage budget would be exceeded (Problem 3) or when the
recreation constraint is met (Problem 5).

The implementation keeps the per-round work linear in the number of versions
by maintaining subtree weights (the number of versions — or total access
frequency — below each node), matching the O(|V|²) complexity discussed in
the paper.  Access frequencies are honored transparently: the reduction in
recreation cost is weighted by the frequency of every affected version,
which is exactly the workload-aware variant used in Figure 16.
"""

from __future__ import annotations

import math

from ..core.instance import ROOT, ProblemInstance
from ..core.storage_plan import StoragePlan
from ..core.version import VersionID
from ..exceptions import InfeasibleProblemError
from .mst import minimum_storage_plan
from .shortest_path import shortest_path_tree

__all__ = ["local_move_greedy", "solve_problem_5"]


def local_move_greedy(
    instance: ProblemInstance,
    storage_budget: float,
    *,
    use_workload: bool = True,
    initial_plan: StoragePlan | None = None,
) -> StoragePlan:
    """Problem 3: minimize the sum of recreation costs within a storage budget.

    Parameters
    ----------
    instance:
        The versions and Δ/Φ matrices.
    storage_budget:
        The bound β on the total storage cost.  Must be at least the cost of
        the storage-optimal tree, otherwise no feasible plan exists at all
        and :class:`~repro.exceptions.InfeasibleProblemError` is raised.
    use_workload:
        When true (default) the greedy ratio weights recreation-cost
        reductions by the instance's access frequencies; when false every
        version counts equally even if a workload is attached.
    initial_plan:
        Start from this plan instead of the MST/MCA (used by ablation
        benchmarks).

    Returns
    -------
    StoragePlan
        A feasible plan whose storage cost never exceeds ``storage_budget``.
    """
    plan = (initial_plan.copy() if initial_plan is not None else minimum_storage_plan(instance))
    current_storage = plan.storage_cost(instance)
    if current_storage > storage_budget * (1 + 1e-12) + 1e-9:
        raise InfeasibleProblemError(
            f"storage budget {storage_budget:g} is below the minimum achievable "
            f"storage cost {current_storage:g}"
        )

    spt_parent = shortest_path_tree(instance)
    # Candidate moves: for every version, the edge its SPT parent would use,
    # unless the plan already stores the version that way.
    candidates: set[VersionID] = {
        vid for vid in instance.version_ids if plan.parent(vid) != spt_parent[vid]
    }

    weights = {
        vid: (instance.access_frequency(vid) if use_workload else 1.0)
        for vid in instance.version_ids
    }

    while candidates:
        recreation = plan.recreation_costs(instance)
        subtree_weight = _subtree_weights(plan, weights)
        best_ratio = 0.0
        best_vid: VersionID | None = None
        best_gain = 0.0
        best_cost_increase = 0.0
        for vid in candidates:
            new_parent = spt_parent[vid]
            old_parent = plan.parent(vid)
            if new_parent is not ROOT and _creates_cycle(plan, vid, new_parent):
                continue
            new_recreation = _recreation_through(instance, recreation, new_parent, vid)
            gain_per_unit = recreation[vid] - new_recreation
            if gain_per_unit <= 0:
                continue
            gain = gain_per_unit * subtree_weight[vid]
            cost_increase = _edge_storage(instance, new_parent, vid) - _edge_storage(
                instance, old_parent, vid
            )
            if current_storage + cost_increase > storage_budget * (1 + 1e-12) + 1e-9:
                continue
            ratio = gain / cost_increase if cost_increase > 1e-12 else math.inf
            if ratio > best_ratio:
                best_ratio = ratio
                best_vid = vid
                best_gain = gain
                best_cost_increase = cost_increase
        if best_vid is None or best_gain <= 0:
            break
        plan.assign(best_vid, spt_parent[best_vid])
        current_storage += best_cost_increase
        candidates.discard(best_vid)
    return plan


def solve_problem_5(
    instance: ProblemInstance,
    recreation_threshold: float,
    *,
    use_workload: bool = False,
) -> StoragePlan:
    """Problem 5: minimize storage subject to ``Σ R_i ≤ θ``.

    LMG is run without a storage budget but stops as soon as the sum of
    recreation costs drops below ``recreation_threshold`` — because every
    greedy move strictly decreases the sum of recreation costs while
    increasing storage, stopping at the first feasible point yields the
    smallest storage this greedy trajectory can achieve.
    """
    plan = minimum_storage_plan(instance)
    spt_parent = shortest_path_tree(instance)
    weights = {
        vid: (instance.access_frequency(vid) if use_workload else 1.0)
        for vid in instance.version_ids
    }
    candidates: set[VersionID] = {
        vid for vid in instance.version_ids if plan.parent(vid) != spt_parent[vid]
    }

    def current_sum() -> float:
        recreation = plan.recreation_costs(instance)
        return sum(weights[vid] * cost for vid, cost in recreation.items())

    # Feasibility check: even the shortest-path tree cannot do better than
    # the sum of shortest-path distances.
    spt_plan = StoragePlan()
    for child, parent in spt_parent.items():
        spt_plan.assign(child, parent)
    best_possible = sum(
        weights[vid] * cost
        for vid, cost in spt_plan.recreation_costs(instance).items()
    )
    if best_possible > recreation_threshold * (1 + 1e-12) + 1e-9:
        raise InfeasibleProblemError(
            f"recreation threshold {recreation_threshold:g} is below the minimum "
            f"achievable sum of recreation costs {best_possible:g}"
        )

    while current_sum() > recreation_threshold * (1 + 1e-12) + 1e-9 and candidates:
        recreation = plan.recreation_costs(instance)
        subtree_weight = _subtree_weights(plan, weights)
        best_ratio = 0.0
        best_vid: VersionID | None = None
        for vid in candidates:
            new_parent = spt_parent[vid]
            old_parent = plan.parent(vid)
            if new_parent is not ROOT and _creates_cycle(plan, vid, new_parent):
                continue
            new_recreation = _recreation_through(instance, recreation, new_parent, vid)
            gain_per_unit = recreation[vid] - new_recreation
            if gain_per_unit <= 0:
                continue
            gain = gain_per_unit * subtree_weight[vid]
            cost_increase = _edge_storage(instance, new_parent, vid) - _edge_storage(
                instance, old_parent, vid
            )
            ratio = gain / cost_increase if cost_increase > 1e-12 else math.inf
            if ratio > best_ratio:
                best_ratio = ratio
                best_vid = vid
        if best_vid is None:
            break
        plan.assign(best_vid, spt_parent[best_vid])
        candidates.discard(best_vid)
    return plan


# ---------------------------------------------------------------------- #
# internals
# ---------------------------------------------------------------------- #
def _edge_storage(instance: ProblemInstance, parent: VersionID, child: VersionID) -> float:
    if parent is ROOT:
        return instance.materialization_storage(child)
    return instance.delta_storage(parent, child)


def _creates_cycle(plan: StoragePlan, child: VersionID, new_parent: VersionID) -> bool:
    """True when re-parenting ``child`` under ``new_parent`` would form a cycle.

    The shortest-path tree occasionally stores a version as a delta from one
    of its own descendants in the current plan (possible when Φ is not
    proportional to Δ); such a move must be rejected to keep the plan a tree.
    """
    node = new_parent
    while node is not ROOT:
        if node == child:
            return True
        node = plan.parent(node)
    return False


def _recreation_through(
    instance: ProblemInstance,
    recreation: dict[VersionID, float],
    parent: VersionID,
    child: VersionID,
) -> float:
    """Recreation cost of ``child`` if its parent edge became ``parent -> child``."""
    if parent is ROOT:
        return instance.materialization_recreation(child)
    return recreation[parent] + instance.delta_recreation(parent, child)


def _subtree_weights(
    plan: StoragePlan, weights: dict[VersionID, float]
) -> dict[VersionID, float]:
    """Total access weight of every node's subtree (including itself).

    Replacing the parent edge of ``v`` changes the recreation cost of every
    version in ``v``'s subtree by the same amount, so the gain of a move is
    the per-version gain multiplied by this subtree weight.
    """
    children = plan.children_map()
    totals: dict[VersionID, float] = {}
    # Iterative post-order traversal from the root.
    stack: list[tuple[VersionID, bool]] = [
        (child, False) for child in children.get(ROOT, [])
    ]
    while stack:
        node, processed = stack.pop()
        if processed:
            totals[node] = weights.get(node, 1.0) + sum(
                totals[c] for c in children.get(node, [])
            )
            continue
        stack.append((node, True))
        for child in children.get(node, []):
            stack.append((child, False))
    return totals
