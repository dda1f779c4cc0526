"""Tests for the Δ/Φ cost generators and reveal policies."""

from __future__ import annotations

import pytest

from repro.datagen.cost_gen import SyntheticCostConfig, reveal_pairs, synthetic_costs
from repro.datagen.graph_gen import linear_chain_graph


@pytest.fixture(scope="module")
def small_graph():
    return linear_chain_graph(25, seed=11)


class TestRevealPairs:
    def test_none_reveals_only_version_graph_edges(self, small_graph):
        pairs = reveal_pairs(small_graph, None)
        assert set(pairs) == set(small_graph.edges())

    def test_zero_reveals_all_ordered_pairs(self, small_graph):
        pairs = reveal_pairs(small_graph, 0)
        n = len(small_graph)
        assert len(pairs) == n * (n - 1)

    def test_khop_reveals_more_with_larger_k(self, small_graph):
        one_hop = set(reveal_pairs(small_graph, 1))
        three_hop = set(reveal_pairs(small_graph, 3))
        assert one_hop <= three_hop
        assert len(three_hop) > len(one_hop)

    def test_khop_pairs_are_ordered_and_distinct(self, small_graph):
        pairs = reveal_pairs(small_graph, 2)
        assert all(a != b for a, b in pairs)
        # Undirected hop distance is symmetric, so each pair appears both ways.
        assert all((b, a) in set(pairs) for a, b in pairs)


class TestSyntheticCosts:
    def test_every_version_has_materialization_cost(self, small_graph):
        model = synthetic_costs(small_graph, SyntheticCostConfig(seed=1), hop_limit=2)
        for vid in small_graph.version_ids:
            assert model.delta.get(vid, vid) is not None
            assert model.phi.get(vid, vid) is not None

    def test_deltas_never_exceed_materialization(self, small_graph):
        model = synthetic_costs(small_graph, SyntheticCostConfig(seed=2), hop_limit=3)
        for (source, target), storage in model.delta.off_diagonal_items():
            assert storage <= model.delta[target, target] + 1e-9

    def test_proportional_mode_shares_phi(self, small_graph):
        model = synthetic_costs(
            small_graph, SyntheticCostConfig(seed=3, proportional=True), hop_limit=2
        )
        assert model.phi is model.delta
        assert model.scenario == 2

    def test_independent_mode_scales_phi(self, small_graph):
        config = SyntheticCostConfig(seed=4, recreation_multiplier=5.0, recreation_noise=0.0)
        model = synthetic_costs(small_graph, config, hop_limit=2)
        for (source, target), storage in model.delta.off_diagonal_items():
            assert model.phi[source, target] == pytest.approx(5.0 * storage)

    def test_undirected_mode_symmetric(self, small_graph):
        config = SyntheticCostConfig(seed=5, directed=False, proportional=True)
        model = synthetic_costs(small_graph, config, hop_limit=2)
        assert not model.directed
        for (source, target), storage in model.delta.off_diagonal_items():
            assert model.delta[target, source] == pytest.approx(storage)

    def test_directed_mode_reveals_reverse_edges(self, small_graph):
        model = synthetic_costs(small_graph, SyntheticCostConfig(seed=6), hop_limit=None)
        for source, target in small_graph.edges():
            assert model.has_delta(source, target)
            assert model.has_delta(target, source)

    def test_deterministic_for_seed(self, small_graph):
        a = synthetic_costs(small_graph, SyntheticCostConfig(seed=7), hop_limit=2)
        b = synthetic_costs(small_graph, SyntheticCostConfig(seed=7), hop_limit=2)
        assert dict(a.delta.items()) == dict(b.delta.items())

    def test_distance_growth_makes_far_deltas_larger(self, small_graph):
        config = SyntheticCostConfig(
            seed=8, delta_fraction_spread=0.0, distance_growth=1.0, directed=True
        )
        model = synthetic_costs(small_graph, config, hop_limit=4)
        order = small_graph.topological_order()
        # Compare a 1-hop delta with a 4-hop delta from the same source.
        source = order[0]
        near = model.delta.get(source, order[1])
        far = model.delta.get(source, order[4])
        if near is not None and far is not None:
            assert far > near
