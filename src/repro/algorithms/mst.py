"""Minimum spanning trees (Problem 1, undirected case).

Lemma 2 of the paper: the optimal storage graph for Problem 1 (minimize the
total storage cost with no recreation constraint) is a minimum spanning tree
of the augmented graph rooted at the dummy vertex ``V0``, using the Δ
weights.  For directed instances the analogous structure is the minimum-cost
arborescence computed in :mod:`repro.algorithms.arborescence`.

Prim's algorithm is implemented from scratch here; it operates on generic
adjacency structures so it can be unit-tested against :mod:`networkx`
oracles, and :func:`minimum_storage_plan` adapts it to
:class:`~repro.core.instance.ProblemInstance`.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from ..core.instance import ROOT, ProblemInstance
from ..core.storage_plan import StoragePlan
from ..exceptions import SolverError
from .priority_queue import AddressablePriorityQueue

__all__ = [
    "prim_minimum_spanning_tree",
    "minimum_spanning_plan_undirected",
    "minimum_storage_plan",
]

Node = Hashable
Adjacency = Mapping[Node, Mapping[Node, float]]


def prim_minimum_spanning_tree(
    nodes: Iterable[Node], adjacency: Adjacency, root: Node
) -> dict[Node, Node]:
    """Prim's MST on an undirected graph, returned as a parent map.

    Parameters
    ----------
    nodes:
        All vertices of the graph.
    adjacency:
        ``adjacency[u][v]`` is the weight of the undirected edge ``{u, v}``.
        The mapping must be symmetric (both orientations present).
    root:
        The vertex the resulting tree is rooted at (its parent is omitted
        from the returned map).

    Returns
    -------
    dict
        ``child -> parent`` for every vertex except the root.

    Raises
    ------
    SolverError
        If the graph is disconnected (some vertex is unreachable).
    """
    nodes = list(nodes)
    if root not in set(nodes):
        raise SolverError(f"root {root!r} is not one of the graph nodes")
    in_tree: set[Node] = set()
    parent: dict[Node, Node] = {}
    best_edge: dict[Node, Node] = {}
    queue: AddressablePriorityQueue[Node] = AddressablePriorityQueue()
    queue.push(root, 0.0)
    while queue:
        node, _ = queue.pop()
        in_tree.add(node)
        if node != root:
            parent[node] = best_edge[node]
        for neighbor, weight in adjacency.get(node, {}).items():
            if neighbor in in_tree:
                continue
            if neighbor not in queue or weight < queue.priority(neighbor):  # type: ignore[operator]
                best_edge[neighbor] = node
                queue.push(neighbor, weight)
    missing = [n for n in nodes if n not in in_tree]
    if missing:
        raise SolverError(
            f"graph is disconnected: {len(missing)} nodes unreachable from {root!r}"
        )
    return parent


def _augmented_undirected_adjacency(
    instance: ProblemInstance,
) -> tuple[list[Node], dict[Node, dict[Node, float]]]:
    """Adjacency of the augmented graph treating every delta as undirected.

    The dummy root connects to each version with its materialization cost;
    each revealed delta contributes an undirected edge whose weight is the
    smaller of the two directed Δ entries (they are equal for genuinely
    undirected cost models).
    """
    adjacency: dict[Node, dict[Node, float]] = {ROOT: {}}
    for vid in instance.version_ids:
        weight = instance.materialization_storage(vid)
        adjacency[ROOT][vid] = weight
        adjacency.setdefault(vid, {})[ROOT] = weight
    for (source, target), weight in instance.cost_model.delta.off_diagonal_items():
        if source not in instance or target not in instance:
            continue
        current = adjacency.setdefault(source, {}).get(target)
        if current is None or weight < current:
            adjacency[source][target] = weight
            adjacency.setdefault(target, {})[source] = weight
    nodes = [ROOT] + list(instance.version_ids)
    return nodes, adjacency


def minimum_spanning_plan_undirected(instance: ProblemInstance) -> StoragePlan:
    """Minimum spanning tree of the augmented graph as a storage plan.

    Applicable to undirected instances (Scenario 1); it can also be used on
    directed instances as a heuristic by symmetrizing each delta with the
    cheaper direction, but :func:`minimum_storage_plan` prefers the exact
    arborescence in that case.
    """
    nodes, adjacency = _augmented_undirected_adjacency(instance)
    parent = prim_minimum_spanning_tree(nodes, adjacency, ROOT)
    plan = StoragePlan()
    for child, par in parent.items():
        plan.assign(child, par)
    _orient_from_root(plan, instance)
    return plan


def _orient_from_root(plan: StoragePlan, instance: ProblemInstance) -> None:
    """Fix edge orientations so every delta edge is a revealed Δ entry.

    Prim's algorithm on the symmetrized graph may produce a parent edge
    ``u -> v`` where only the ``v -> u`` delta was revealed (or where the
    opposite direction is cheaper).  Because the tree is undirected this can
    be repaired by re-rooting the traversal at ROOT and always walking
    "away" from the root; the Δ entry for the walked direction is then the
    one the plan uses.  For undirected cost models both entries exist and
    are equal, so this is a no-op.
    """
    if not instance.directed:
        return
    # Build undirected adjacency of the chosen tree.
    neighbors: dict[object, set[object]] = {}
    for child in plan:
        parent = plan.parent(child)
        neighbors.setdefault(child, set()).add(parent)
        neighbors.setdefault(parent, set()).add(child)
    # BFS from ROOT re-assigning parents along the traversal direction.
    visited = {ROOT}
    frontier = [ROOT]
    while frontier:
        node = frontier.pop()
        for neighbor in neighbors.get(node, ()):  # deterministic enough for tests
            if neighbor in visited:
                continue
            visited.add(neighbor)
            if node is ROOT or instance.cost_model.has_delta(node, neighbor):
                plan.assign(neighbor, node)
            else:
                # The walked direction was never revealed: fall back to
                # materializing the child so the plan stays feasible.
                plan.materialize(neighbor)
            frontier.append(neighbor)


def minimum_storage_plan(instance: ProblemInstance) -> StoragePlan:
    """Solve Problem 1: the storage plan with minimum total storage cost.

    Dispatches to the minimum-cost arborescence for directed instances and
    to Prim's MST for undirected ones.
    """
    if instance.directed:
        from .arborescence import minimum_arborescence_plan

        return minimum_arborescence_plan(instance)
    return minimum_spanning_plan_undirected(instance)
