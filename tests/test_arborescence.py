"""Tests for Edmonds' minimum-cost arborescence, cross-checked against networkx."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.algorithms.arborescence import minimum_arborescence, minimum_arborescence_plan
from repro.core.instance import ROOT
from repro.exceptions import SolverError

from tests.helpers import build_chain_instance, build_random_instance


def random_rooted_digraph(num_nodes: int, seed: int) -> list[tuple[int, int, float]]:
    """Random digraph in which every node is reachable from node 0."""
    rng = random.Random(seed)
    edges: list[tuple[int, int, float]] = []
    for node in range(1, num_nodes):
        parent = rng.randrange(node)
        edges.append((parent, node, rng.uniform(1, 100)))
    for _ in range(num_nodes * 3):
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v and v != 0:
            edges.append((u, v, rng.uniform(1, 100)))
    return edges


def arborescence_weight(parent, edges) -> float:
    """Weight of a parent map, taking the cheapest of any parallel edges."""
    best: dict = {}
    for u, v, w in edges:
        best[u, v] = min(w, best.get((u, v), w))
    return sum(best[p, c] for c, p in parent.items())


def networkx_arborescence_weight(num_nodes: int, edges, root=0) -> float:
    graph = nx.DiGraph()
    graph.add_nodes_from(range(num_nodes))
    for u, v, w in edges:
        if graph.has_edge(u, v):
            if w < graph[u][v]["weight"]:
                graph[u][v]["weight"] = w
        else:
            graph.add_edge(u, v, weight=w)
    arborescence = nx.minimum_spanning_arborescence(graph)
    return sum(data["weight"] for _, _, data in arborescence.edges(data=True))


class TestEdmonds:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_matches_networkx_weight(self, seed):
        num_nodes = 25
        edges = random_rooted_digraph(num_nodes, seed)
        parent = minimum_arborescence(range(num_nodes), edges, root=0)
        ours = arborescence_weight(parent, edges)
        expected = networkx_arborescence_weight(num_nodes, edges)
        assert ours == pytest.approx(expected, rel=1e-9)

    def test_result_is_spanning_and_acyclic(self):
        edges = random_rooted_digraph(30, 11)
        parent = minimum_arborescence(range(30), edges, root=0)
        assert set(parent) == set(range(1, 30))
        # Walking up from any node terminates at the root.
        for node in range(1, 30):
            seen = set()
            current = node
            while current != 0:
                assert current not in seen
                seen.add(current)
                current = parent[current]

    def test_simple_cycle_contraction(self):
        # Classic case: a 2-cycle that must be broken optimally.
        edges = [
            (0, 1, 10.0),
            (0, 2, 10.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
        ]
        parent = minimum_arborescence([0, 1, 2], edges, root=0)
        weight = arborescence_weight(parent, edges)
        assert weight == pytest.approx(11.0)

    def test_nested_cycles(self):
        edges = [
            (0, 1, 100.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 1, 1.0),
            (0, 3, 50.0),
            (2, 1, 2.0),
        ]
        parent = minimum_arborescence([0, 1, 2, 3], edges, root=0)
        expected = networkx_arborescence_weight(4, edges)
        assert arborescence_weight(parent, edges) == pytest.approx(expected)

    def test_unreachable_vertex_raises(self):
        with pytest.raises(SolverError):
            minimum_arborescence([0, 1, 2], [(0, 1, 1.0)], root=0)

    def test_unknown_root_raises(self):
        with pytest.raises(SolverError):
            minimum_arborescence([0, 1], [(0, 1, 1.0)], root=5)

    def test_parallel_edges_use_cheapest(self):
        edges = [(0, 1, 10.0), (0, 1, 3.0)]
        parent = minimum_arborescence([0, 1], edges, root=0)
        assert arborescence_weight(parent, edges) == pytest.approx(3.0)

    def test_edges_into_root_ignored(self):
        edges = [(0, 1, 5.0), (1, 0, 1.0)]
        parent = minimum_arborescence([0, 1], edges, root=0)
        assert parent == {1: 0}


class TestArborescencePlan:
    def test_chain_instance(self):
        instance = build_chain_instance(5, full_size=100, delta_size=10, directed=True)
        plan = minimum_arborescence_plan(instance)
        plan.validate(instance)
        assert plan.storage_cost(instance) == pytest.approx(140)
        assert len(plan.materialized_versions()) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_networkx_on_instances(self, seed):
        instance = build_random_instance(20, seed=seed, directed=True)
        plan = minimum_arborescence_plan(instance)
        plan.validate(instance)

        graph = nx.DiGraph()
        graph.add_node("R")
        for vid in instance.version_ids:
            graph.add_edge("R", vid, weight=instance.materialization_storage(vid))
        for (u, v), w in instance.cost_model.delta.off_diagonal_items():
            if graph.has_edge(u, v):
                if w < graph[u][v]["weight"]:
                    graph[u][v]["weight"] = w
            else:
                graph.add_edge(u, v, weight=w)
        expected = sum(
            data["weight"]
            for _, _, data in nx.minimum_spanning_arborescence(graph).edges(data=True)
        )
        assert plan.storage_cost(instance) == pytest.approx(expected, rel=1e-9)

    def test_plan_never_beats_lower_bound_of_cheapest_in_edges(self, small_lc):
        instance = small_lc.instance
        plan = minimum_arborescence_plan(instance)
        cheapest: dict = {}
        for edge in instance.edges(include_root=True):
            cheapest[edge.target] = min(edge.storage, cheapest.get(edge.target, edge.storage))
        lower_bound = sum(cheapest[vid] for vid in instance.version_ids)
        assert plan.storage_cost(instance) >= lower_bound - 1e-6
