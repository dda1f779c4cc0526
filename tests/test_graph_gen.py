"""Tests for the synthetic version-graph generator."""

from __future__ import annotations

import pytest

from repro.datagen.graph_gen import (
    VersionGraphConfig,
    flat_history_graph,
    generate_version_graph,
    linear_chain_graph,
)


class TestConfigValidation:
    def test_defaults_valid(self):
        VersionGraphConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_commits": 0},
            {"branch_interval": 0},
            {"branch_probability": 1.5},
            {"branch_limit": 0},
            {"branch_length": 0},
            {"merge_probability": -0.1},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            VersionGraphConfig(**kwargs)


class TestGeneratedStructure:
    def test_exact_number_of_commits(self):
        for count in (1, 10, 137):
            graph = generate_version_graph(VersionGraphConfig(num_commits=count, seed=1))
            assert len(graph) == count

    def test_single_root(self):
        graph = generate_version_graph(VersionGraphConfig(num_commits=200, seed=2))
        assert len(graph.roots()) == 1

    def test_graph_is_acyclic_and_connected_to_root(self):
        graph = generate_version_graph(VersionGraphConfig(num_commits=150, seed=3))
        order = graph.topological_order()
        assert len(order) == 150
        root = graph.roots()[0]
        for vid in graph.version_ids:
            assert vid == root or root in graph.ancestors(vid)

    def test_deterministic_for_fixed_seed(self):
        config = VersionGraphConfig(num_commits=80, seed=42)
        first = generate_version_graph(config)
        second = generate_version_graph(config)
        assert first.edges() == second.edges()

    def test_different_seeds_differ(self):
        base = VersionGraphConfig(num_commits=80, branch_probability=0.8, seed=1)
        other = VersionGraphConfig(num_commits=80, branch_probability=0.8, seed=2)
        assert generate_version_graph(base).edges() != generate_version_graph(other).edges()

    def test_branching_produces_merges_and_branches(self):
        config = VersionGraphConfig(
            num_commits=300,
            branch_interval=2,
            branch_probability=0.9,
            branch_limit=3,
            branch_length=4,
            merge_probability=0.9,
            seed=5,
        )
        graph = generate_version_graph(config)
        # A heavily branched history must contain versions with >1 child and
        # merge versions with 2 parents.
        assert len(graph.merges()) > 0
        assert any(len(graph.children(vid)) > 1 for vid in graph.version_ids)

    def test_zero_branch_probability_yields_pure_chain(self):
        config = VersionGraphConfig(num_commits=50, branch_probability=0.0, seed=0)
        graph = generate_version_graph(config)
        assert len(graph.merges()) == 0
        assert all(len(graph.parents(vid)) <= 1 for vid in graph.version_ids)
        assert len(graph.leaves()) == 1


class TestPresets:
    def test_flat_history_is_bushier_than_linear_chain(self):
        flat = flat_history_graph(200, seed=1)
        chain = linear_chain_graph(200, seed=1)
        flat_branchiness = sum(
            1 for vid in flat.version_ids if len(flat.children(vid)) > 1
        )
        chain_branchiness = sum(
            1 for vid in chain.version_ids if len(chain.children(vid)) > 1
        )
        assert flat_branchiness > chain_branchiness

    def test_linear_chain_mostly_single_parent(self):
        chain = linear_chain_graph(150, seed=2)
        multi_parent = sum(1 for vid in chain.version_ids if len(chain.parents(vid)) > 1)
        assert multi_parent <= 0.1 * len(chain)
