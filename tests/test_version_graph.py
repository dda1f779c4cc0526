"""Unit tests for :mod:`repro.core.version_graph`."""

from __future__ import annotations

import pytest

from repro.core.version import Version
from repro.core.version_graph import VersionGraph
from repro.exceptions import DuplicateVersionError, VersionNotFoundError


def build_diamond() -> VersionGraph:
    """v0 branches into v1/v2 which merge into v3."""
    graph = VersionGraph()
    graph.add("v0", size=10)
    graph.add("v1", size=11, parents=["v0"])
    graph.add("v2", size=12, parents=["v0"])
    graph.add("v3", size=13, parents=["v1", "v2"])
    return graph


class TestConstruction:
    def test_add_and_lookup(self):
        graph = VersionGraph()
        graph.add("v0", size=5)
        assert "v0" in graph
        assert graph.version("v0").size == 5

    def test_duplicate_rejected(self):
        graph = VersionGraph()
        graph.add("v0", size=1)
        with pytest.raises(DuplicateVersionError):
            graph.add("v0", size=2)

    def test_missing_parent_rejected(self):
        graph = VersionGraph()
        with pytest.raises(VersionNotFoundError):
            graph.add("v1", size=1, parents=["v0"])

    def test_constructor_accepts_iterable(self):
        graph = VersionGraph([Version("a", size=1), Version("b", size=2, parents=("a",))])
        assert len(graph) == 2

    def test_lookup_missing_version_raises(self):
        graph = VersionGraph()
        with pytest.raises(VersionNotFoundError):
            graph.version("missing")


class TestTopology:
    def test_roots_and_leaves(self):
        graph = build_diamond()
        assert graph.roots() == ["v0"]
        assert graph.leaves() == ["v3"]

    def test_merges(self):
        graph = build_diamond()
        assert graph.merges() == ["v3"]

    def test_parents_children(self):
        graph = build_diamond()
        assert set(graph.children("v0")) == {"v1", "v2"}
        assert graph.parents("v3") == ["v1", "v2"]

    def test_edges_and_count(self):
        graph = build_diamond()
        edges = set(graph.edges())
        assert edges == {("v0", "v1"), ("v0", "v2"), ("v1", "v3"), ("v2", "v3")}
        assert graph.number_of_edges() == 4

    def test_topological_order_respects_parents(self):
        graph = build_diamond()
        order = graph.topological_order()
        assert order.index("v0") < order.index("v1")
        assert order.index("v1") < order.index("v3")
        assert order.index("v2") < order.index("v3")
        assert len(order) == 4

    def test_ancestors_descendants(self):
        graph = build_diamond()
        assert graph.ancestors("v3") == {"v0", "v1", "v2"}
        assert graph.ancestors("v0") == set()

class TestTraversals:
    def test_hop_distance_ignores_direction(self):
        graph = build_diamond()
        distances = graph.undirected_hop_distance("v1")
        assert distances["v0"] == 1
        assert distances["v3"] == 1
        assert distances["v2"] == 2

    def test_hop_distance_respects_limit(self):
        graph = build_diamond()
        distances = graph.undirected_hop_distance("v1", max_hops=1)
        assert "v2" not in distances
        assert distances["v0"] == 1

    def test_bfs_subgraph_size_and_validity(self):
        graph = build_diamond()
        sub = graph.bfs_subgraph("v0", 3)
        assert len(sub) == 3
        assert "v0" in sub
        # Every retained parent edge must reference a retained version.
        for parent, child in sub.edges():
            assert parent in sub and child in sub

    def test_bfs_subgraph_full_graph(self):
        graph = build_diamond()
        sub = graph.bfs_subgraph("v0", 100)
        assert len(sub) == len(graph)

    def test_bfs_subgraph_drops_external_parents(self):
        graph = VersionGraph()
        graph.add("a", size=1)
        graph.add("b", size=1, parents=["a"])
        graph.add("c", size=1, parents=["b"])
        sub = graph.bfs_subgraph("c", 1)
        assert sub.version("c").parents == ()

    def test_iteration_and_lists(self):
        graph = build_diamond()
        assert list(iter(graph)) == graph.version_ids
        assert [v.version_id for v in graph.versions] == graph.version_ids
