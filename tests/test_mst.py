"""Tests for Prim's MST construction, cross-checked against networkx."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.algorithms.mst import (
    minimum_spanning_plan_undirected,
    minimum_storage_plan,
    prim_minimum_spanning_tree,
)
from repro import CostModel, ProblemInstance, Version
from repro.core.instance import ROOT
from repro.exceptions import SolverError

from tests.helpers import build_chain_instance, build_random_instance


def random_connected_graph(num_nodes: int, seed: int) -> dict:
    """Random connected undirected graph as a nested adjacency dict."""
    rng = random.Random(seed)
    adjacency: dict = {i: {} for i in range(num_nodes)}
    # Spanning backbone guarantees connectivity.
    for node in range(1, num_nodes):
        other = rng.randrange(node)
        weight = rng.uniform(1, 100)
        adjacency[node][other] = weight
        adjacency[other][node] = weight
    # Extra random edges.
    for _ in range(num_nodes * 2):
        a, b = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if a == b:
            continue
        weight = rng.uniform(1, 100)
        adjacency[a][b] = weight
        adjacency[b][a] = weight
    return adjacency


def to_networkx(adjacency: dict) -> nx.Graph:
    graph = nx.Graph()
    for u, row in adjacency.items():
        graph.add_node(u)
        for v, weight in row.items():
            graph.add_edge(u, v, weight=weight)
    return graph


class TestPrim:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_networkx_total_weight(self, seed):
        adjacency = random_connected_graph(30, seed)
        parent = prim_minimum_spanning_tree(adjacency.keys(), adjacency, root=0)
        ours = sum(adjacency[p][c] for c, p in parent.items())
        reference = to_networkx(adjacency)
        expected = sum(
            data["weight"] for _, _, data in nx.minimum_spanning_edges(reference, data=True)
        )
        assert ours == pytest.approx(expected)

    def test_parent_map_is_spanning(self):
        adjacency = random_connected_graph(20, 7)
        parent = prim_minimum_spanning_tree(adjacency.keys(), adjacency, root=0)
        assert set(parent) == set(range(1, 20))

    def test_disconnected_graph_raises(self):
        adjacency = {0: {1: 1.0}, 1: {0: 1.0}, 2: {}}
        with pytest.raises(SolverError):
            prim_minimum_spanning_tree([0, 1, 2], adjacency, root=0)

    def test_unknown_root_raises(self):
        with pytest.raises(SolverError):
            prim_minimum_spanning_tree([0], {0: {}}, root=99)

    def test_single_node(self):
        assert prim_minimum_spanning_tree([0], {0: {}}, root=0) == {}


class TestMinimumStoragePlan:
    def test_chain_instance_undirected(self):
        instance = build_chain_instance(5, full_size=100, delta_size=10, directed=False)
        plan = minimum_spanning_plan_undirected(instance)
        plan.validate(instance)
        # Optimal: materialize one version (100) + 4 deltas (40).
        assert plan.storage_cost(instance) == pytest.approx(140)
        assert len(plan.materialized_versions()) == 1

    def test_dispatch_directed_uses_arborescence(self):
        instance = build_chain_instance(5, full_size=100, delta_size=10, directed=True)
        plan = minimum_storage_plan(instance)
        plan.validate(instance)
        assert plan.storage_cost(instance) == pytest.approx(140)

    def test_plan_storage_not_above_materialize_all(self, small_dc):
        instance = small_dc.instance
        plan = minimum_storage_plan(instance)
        plan.validate(instance)
        total_full = sum(
            instance.materialization_storage(vid) for vid in instance.version_ids
        )
        assert plan.storage_cost(instance) <= total_full + 1e-6

    def test_undirected_matches_networkx_on_random_instances(self):
        instance = build_random_instance(20, seed=4, directed=False, proportional=True)
        plan = minimum_spanning_plan_undirected(instance)
        plan.validate(instance)

        graph = nx.Graph()
        graph.add_node("ROOT")
        for vid in instance.version_ids:
            graph.add_edge("ROOT", vid, weight=instance.materialization_storage(vid))
        for (u, v), w in instance.cost_model.delta.off_diagonal_items():
            if graph.has_edge(u, v):
                if w < graph[u][v]["weight"]:
                    graph[u][v]["weight"] = w
            else:
                graph.add_edge(u, v, weight=w)
        expected = sum(
            data["weight"] for _, _, data in nx.minimum_spanning_edges(graph, data=True)
        )
        assert plan.storage_cost(instance) == pytest.approx(expected, rel=1e-9)


class TestUndirectedHeuristicOnDirectedInstances:
    """Prim on the symmetrized graph, re-oriented away from the root."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_delta_edge_is_a_revealed_entry(self, seed):
        instance = build_random_instance(20, seed=seed, directed=True)
        plan = minimum_spanning_plan_undirected(instance)
        plan.validate(instance)
        for vid in instance.version_ids:
            parent = plan.parent(vid)
            if parent is not ROOT:
                assert instance.cost_model.has_delta(parent, vid)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_never_beats_the_exact_arborescence(self, seed):
        instance = build_random_instance(20, seed=seed, directed=True)
        heuristic = minimum_spanning_plan_undirected(instance)
        exact = minimum_storage_plan(instance)
        assert heuristic.storage_cost(instance) >= exact.storage_cost(instance) - 1e-6

    def test_unrevealed_direction_falls_back_to_materialization(self):
        # Only B -> A was revealed.  The symmetrized tree is ROOT-A-B, so
        # walking away from the root would need the missing A -> B delta.
        model = CostModel(directed=True, phi_equals_delta=True)
        model.set_materialization("A", 100)
        model.set_materialization("B", 200)
        model.set_delta("B", "A", 5)
        instance = ProblemInstance([Version("A", size=100), Version("B", size=200)], model)
        plan = minimum_spanning_plan_undirected(instance)
        plan.validate(instance)
        assert plan.parent("A") is ROOT
        assert plan.parent("B") is ROOT
        assert plan.storage_cost(instance) == pytest.approx(300)
        # The exact arborescence uses the revealed direction instead.
        assert minimum_storage_plan(instance).storage_cost(instance) == pytest.approx(205)
