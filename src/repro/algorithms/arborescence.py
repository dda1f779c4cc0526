"""Minimum-cost arborescence (Edmonds / Chu–Liu) for directed instances.

For directed cost models, Problem 1 (minimize total storage) is solved by a
minimum-cost arborescence of the augmented graph rooted at the dummy vertex
``V0`` — the paper calls this the MCA solution and uses it as the storage
lower bound throughout the evaluation (Figures 12–15).

The implementation below is the classic recursive contraction algorithm:
pick the cheapest incoming edge of every vertex; if the selection is acyclic
it is optimal, otherwise contract a cycle, adjust the weights of edges
entering it and recurse.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from ..core.instance import ROOT, ProblemInstance
from ..core.storage_plan import StoragePlan
from ..exceptions import SolverError

__all__ = ["minimum_arborescence", "minimum_arborescence_plan"]

Node = Hashable


class _Edge:
    """Internal edge record; ``base`` points to the previous contraction level."""

    __slots__ = ("u", "v", "w", "base")

    def __init__(self, u: Node, v: Node, w: float, base: "_Edge | None" = None) -> None:
        self.u = u
        self.v = v
        self.w = w
        self.base = base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Edge({self.u!r} -> {self.v!r}, w={self.w})"


class _SuperNode:
    """Placeholder vertex created when a cycle is contracted."""

    __slots__ = ("label",)

    def __init__(self, label: int) -> None:
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<cycle#{self.label}>"


def minimum_arborescence(
    nodes: Iterable[Node],
    edges: Sequence[tuple[Node, Node, float]],
    root: Node,
) -> dict[Node, Node]:
    """Compute a minimum-cost spanning arborescence rooted at ``root``.

    Parameters
    ----------
    nodes:
        All vertices, including the root.
    edges:
        ``(u, v, weight)`` triples.  Self-loops and edges entering the root
        are ignored.  Parallel edges are allowed; the cheapest useful one is
        picked automatically.
    root:
        The arborescence root.

    Returns
    -------
    dict
        ``child -> parent`` for every vertex except the root.

    Raises
    ------
    SolverError
        If some vertex has no incoming edge reachable from the root.
    """
    node_list = list(dict.fromkeys(nodes))
    if root not in node_list:
        raise SolverError(f"root {root!r} is not one of the graph nodes")
    internal_edges = [
        _Edge(u, v, float(w))
        for u, v, w in edges
        if u != v and v != root
    ]
    chosen = _solve(node_list, internal_edges, root, _counter=[0])
    parent: dict[Node, Node] = {}
    for edge in chosen:
        original = edge
        while original.base is not None:
            original = original.base
        parent[original.v] = original.u
    missing = [n for n in node_list if n != root and n not in parent]
    if missing:
        raise SolverError(
            f"no arborescence rooted at {root!r}: vertices {missing[:5]!r} are unreachable"
        )
    return parent


def _solve(
    nodes: list[Node], edges: list[_Edge], root: Node, _counter: list[int]
) -> list[_Edge]:
    """Recursive Chu–Liu/Edmonds step returning the chosen edge objects."""
    min_in: dict[Node, _Edge] = {}
    for edge in edges:
        best = min_in.get(edge.v)
        if best is None or edge.w < best.w:
            min_in[edge.v] = edge
    for node in nodes:
        if node != root and node not in min_in:
            raise SolverError(f"vertex {node!r} has no incoming edge")

    cycle = _find_cycle(nodes, min_in, root)
    if cycle is None:
        return list(min_in.values())

    cycle_set = set(cycle)
    _counter[0] += 1
    supernode = _SuperNode(_counter[0])
    contracted_nodes = [n for n in nodes if n not in cycle_set] + [supernode]
    contracted_edges: list[_Edge] = []
    for edge in edges:
        in_u, in_v = edge.u in cycle_set, edge.v in cycle_set
        if in_u and in_v:
            continue
        if in_v:
            adjusted = edge.w - min_in[edge.v].w
            contracted_edges.append(_Edge(edge.u, supernode, adjusted, base=edge))
        elif in_u:
            contracted_edges.append(_Edge(supernode, edge.v, edge.w, base=edge))
        else:
            contracted_edges.append(_Edge(edge.u, edge.v, edge.w, base=edge))

    chosen = _solve(contracted_nodes, contracted_edges, root, _counter)

    result: list[_Edge] = []
    entering_cycle_at: Node | None = None
    for edge in chosen:
        base = edge.base
        if base is None:  # pragma: no cover - defensive, bases always set here
            raise SolverError("internal error: contracted edge lost its origin")
        result.append(base)
        if edge.v is supernode:
            entering_cycle_at = base.v
    if entering_cycle_at is None:
        raise SolverError(
            "internal error: contracted cycle received no incoming edge"
        )
    for node in cycle:
        if node != entering_cycle_at:
            result.append(min_in[node])
    return result


def _find_cycle(
    nodes: list[Node], min_in: dict[Node, _Edge], root: Node
) -> list[Node] | None:
    """Find one cycle in the parent selection, or ``None`` when acyclic."""
    color: dict[Node, int] = {}
    for start in nodes:
        if start == root or color.get(start) == 2:
            continue
        path: list[Node] = []
        node: Node = start
        while True:
            if node == root or color.get(node) == 2:
                break
            if color.get(node) == 1:
                # Found a node already on the current path: extract the cycle.
                index = path.index(node)
                for visited in path:
                    color[visited] = 2
                return path[index:]
            color[node] = 1
            path.append(node)
            node = min_in[node].u
        for visited in path:
            color[visited] = 2
    return None


def minimum_arborescence_plan(instance: ProblemInstance) -> StoragePlan:
    """Problem 1 on a directed instance: the minimum-cost arborescence plan."""
    nodes: list[Node] = [ROOT] + list(instance.version_ids)
    edges: list[tuple[Node, Node, float]] = []
    for vid in instance.version_ids:
        edges.append((ROOT, vid, instance.materialization_storage(vid)))
    for (source, target), weight in instance.cost_model.delta.off_diagonal_items():
        if source in instance and target in instance:
            edges.append((source, target, weight))
    parent = minimum_arborescence(nodes, edges, ROOT)
    plan = StoragePlan()
    for child, par in parent.items():
        plan.assign(child, par)
    return plan
