"""LAST — balancing the MST and the shortest-path tree (Section 4.3).

The paper adapts the LAST construction of Khuller, Raghavachari and Young
("Balancing minimum spanning trees and shortest-path trees", Algorithmica
1995) as a baseline for the recreation/storage tradeoff: starting from the
storage-optimal tree, perform a depth-first traversal and, whenever the
accumulated recreation cost of the node being visited exceeds ``α`` times its
shortest-path recreation cost, splice the shortest path to that node into
the tree.

For undirected graphs with Φ = Δ the construction guarantees that

* every node's recreation cost is within ``α`` times its shortest-path cost,
  and
* the total storage cost is within ``1 + 2 / (α - 1)`` times the MST cost.

For directed instances the same procedure is applied (on the minimum-cost
arborescence) without the guarantees, exactly as the paper does.
"""

from __future__ import annotations

from ..core.instance import ROOT, ProblemInstance
from ..core.storage_plan import StoragePlan
from ..core.version import VersionID
from ..exceptions import SolverError
from .mst import minimum_storage_plan
from .shortest_path import shortest_path_tree

__all__ = ["last_plan"]


def last_plan(
    instance: ProblemInstance,
    alpha: float = 2.0,
    *,
    initial_plan: StoragePlan | None = None,
) -> StoragePlan:
    """Build a LAST-balanced storage plan.

    Parameters
    ----------
    instance:
        The versions and Δ/Φ matrices.
    alpha:
        The balance parameter (> 1).  Small values favor recreation cost
        (the result approaches the shortest-path tree), large values favor
        storage (the result approaches the MST / arborescence).
    initial_plan:
        Start the traversal from this plan instead of the storage-optimal
        tree (used by ablation benchmarks).

    Returns
    -------
    StoragePlan
        A plan in which every version's recreation cost is at most
        ``alpha`` times its shortest-path recreation cost.
    """
    if alpha <= 1.0:
        raise SolverError(f"LAST requires alpha > 1, got {alpha}")

    base = initial_plan.copy() if initial_plan is not None else minimum_storage_plan(instance)
    spt_parent = shortest_path_tree(instance)

    # Shortest-path recreation cost of every version (through the SPT).
    spt_plan = StoragePlan()
    for child, parent in spt_parent.items():
        spt_plan.assign(child, parent)
    shortest = spt_plan.recreation_costs(instance)

    plan = base.copy()
    children = base.children_map()
    distance: dict[VersionID, float] = {}

    # Iterative DFS over the base tree, mirroring Algorithm 3: relax the
    # child's distance through the tree edge being traversed, then splice in
    # the shortest path when the relaxed distance exceeds alpha times the
    # shortest-path distance.
    stack: list[tuple[object, VersionID]] = [
        (ROOT, child) for child in reversed(children.get(ROOT, []))
    ]
    while stack:
        parent_node, node = stack.pop()
        parent_distance = 0.0 if parent_node is ROOT else distance[parent_node]
        if parent_node is ROOT:
            edge_cost = instance.materialization_recreation(node)
        else:
            edge_cost = instance.delta_recreation(parent_node, node)
        relaxed = parent_distance + edge_cost
        current = distance.get(node)
        if current is None or relaxed < current:
            distance[node] = relaxed
            plan.assign(node, parent_node)
        if distance[node] > alpha * shortest[node] + 1e-12:
            _splice_shortest_path(instance, plan, spt_parent, shortest, distance, node)
        for child in reversed(children.get(node, [])):
            stack.append((node, child))
    return plan


def _splice_shortest_path(
    instance: ProblemInstance,
    plan: StoragePlan,
    spt_parent: dict[VersionID, VersionID],
    shortest: dict[VersionID, float],
    distance: dict[VersionID, float],
    node: VersionID,
) -> None:
    """Replace the path to ``node`` with its shortest path from the root.

    Walks up the shortest-path tree from ``node`` re-parenting every vertex
    on the way whose recorded distance improves; this keeps the plan a tree
    and realizes the shortest-path recreation cost for ``node``.
    """
    chain: list[VersionID] = []
    current: VersionID = node
    while current is not ROOT:
        chain.append(current)
        current = spt_parent[current]
    # Process from the root side down so parents are settled before children.
    for vertex in reversed(chain):
        parent = spt_parent[vertex]
        plan.assign(vertex, parent)
        distance[vertex] = shortest[vertex]
