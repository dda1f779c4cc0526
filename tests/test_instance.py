"""Unit tests for :mod:`repro.core.instance`."""

from __future__ import annotations

import pytest

from repro.core.instance import ROOT, ProblemInstance
from repro.core.matrices import CostModel
from repro.core.version import Version
from repro.exceptions import InvalidCostError, VersionNotFoundError

from tests.helpers import build_chain_instance, build_figure1_instance


class TestRootSentinel:
    def test_root_is_singleton(self):
        from repro.core.instance import _DummyRoot

        assert _DummyRoot() is ROOT

    def test_root_repr(self):
        assert repr(ROOT) == "ROOT"


class TestConstruction:
    def test_materialization_filled_from_version_size(self):
        model = CostModel()
        instance = ProblemInstance([Version("a", size=10.0)], model)
        assert instance.materialization_storage("a") == 10.0

    def test_missing_materialization_cost_rejected(self):
        model = CostModel()
        with pytest.raises(InvalidCostError):
            ProblemInstance([Version("a", size=0.0)], model)

    def test_empty_instance_rejected(self):
        with pytest.raises(InvalidCostError):
            ProblemInstance([], CostModel())

    def test_plain_ids_need_diagonal_entries(self):
        model = CostModel()
        model.set_materialization("a", 5.0)
        instance = ProblemInstance(["a"], model)
        assert instance.materialization_storage("a") == 5.0

    def test_unknown_frequency_version_rejected(self):
        model = CostModel()
        model.set_materialization("a", 5.0)
        with pytest.raises(VersionNotFoundError):
            ProblemInstance(["a"], model, access_frequencies={"b": 1.0})

    def test_negative_frequency_rejected(self):
        model = CostModel()
        model.set_materialization("a", 5.0)
        with pytest.raises(InvalidCostError):
            ProblemInstance(["a"], model, access_frequencies={"a": -1.0})


class TestAccessors:
    def test_len_contains_ids(self, figure1_instance):
        assert len(figure1_instance) == 5
        assert "V1" in figure1_instance
        assert "V9" not in figure1_instance
        assert set(figure1_instance.version_ids) == {"V1", "V2", "V3", "V4", "V5"}

    def test_scenario_and_directed(self, figure1_instance):
        assert figure1_instance.directed
        assert figure1_instance.scenario == 3

    def test_cost_lookups(self, figure1_instance):
        assert figure1_instance.materialization_storage("V1") == 10000
        assert figure1_instance.materialization_recreation("V1") == 10000
        assert figure1_instance.delta_storage("V1", "V3") == 1000
        assert figure1_instance.delta_recreation("V1", "V3") == 3000

    def test_edge_costs_root(self, figure1_instance):
        storage, recreation = figure1_instance.edge_costs(ROOT, "V2")
        assert (storage, recreation) == (10100, 10100)

    def test_access_frequency_defaults_to_one(self, figure1_instance):
        assert figure1_instance.access_frequency("V1") == 1.0
        assert not figure1_instance.has_workload

    def test_with_access_frequencies(self, figure1_instance):
        weighted = figure1_instance.with_access_frequencies({"V1": 5.0})
        assert weighted.access_frequency("V1") == 5.0
        assert weighted.access_frequency("V2") == 1.0
        assert weighted.has_workload
        # original untouched
        assert not figure1_instance.has_workload

    def test_version_lookup_error(self, figure1_instance):
        with pytest.raises(VersionNotFoundError):
            figure1_instance.version("nope")


class TestGraphViews:
    def test_edges_include_root_edges(self, figure1_instance):
        edges = list(figure1_instance.edges())
        root_edges = [e for e in edges if e.source is ROOT]
        assert len(root_edges) == 5
        delta_edges = [e for e in edges if e.source is not ROOT]
        assert len(delta_edges) == 9

    def test_edges_can_exclude_root(self, figure1_instance):
        edges = list(figure1_instance.edges(include_root=False))
        assert all(e.source is not ROOT for e in edges)

    def test_out_edges_from_root(self, figure1_instance):
        edges = figure1_instance.out_edges(ROOT)
        assert {e.target for e in edges} == set(figure1_instance.version_ids)

    def test_out_edges_from_version(self, figure1_instance):
        targets = {e.target for e in figure1_instance.out_edges("V2")}
        assert targets == {"V4", "V5", "V1"}

    def test_in_edges_always_contain_root(self, figure1_instance):
        sources = {e.source for e in figure1_instance.edges() if e.target == "V4"}
        assert ROOT in sources
        assert "V2" in sources and "V5" in sources

    def test_neighbors(self, figure1_instance):
        assert set(figure1_instance.neighbors("V3")) == {"V5", "V2"}

class TestSummary:
    def test_summary_fields(self, figure1_instance):
        summary = figure1_instance.summary()
        assert summary["num_versions"] == 5
        assert summary["num_deltas"] == 9
        assert summary["average_version_size"] == pytest.approx(
            (10000 + 10100 + 9700 + 9800 + 10120) / 5
        )

    def test_chain_instance_summary(self):
        instance = build_chain_instance(4)
        summary = instance.summary()
        assert summary["num_versions"] == 4
        # directed chain reveals both orientations of each of the 3 edges
        assert summary["num_deltas"] == 6


class TestUndirectedInstance:
    def test_symmetric_deltas_visible_both_ways(self):
        instance = build_chain_instance(3, directed=False)
        assert instance.delta_storage("v0", "v1") == instance.delta_storage("v1", "v0")
        assert not instance.directed
        assert instance.scenario == 1

    def test_figure1_known_values_match_paper(self):
        instance = build_figure1_instance()
        # Figure 1(iii): single-root chain storage = 11450
        chain_cost = 10000 + 200 + 1000 + 50 + 200
        assert chain_cost == 11450
        # recreating V5 through V1 -> V3 -> V5 costs 13550 in the paper
        assert (
            instance.materialization_recreation("V1")
            + instance.delta_recreation("V1", "V3")
            + instance.delta_recreation("V3", "V5")
        ) == 13550
