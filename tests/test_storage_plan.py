"""Unit tests for :mod:`repro.core.storage_plan`."""

from __future__ import annotations

import pytest

from repro.core.instance import ROOT
from repro.core.storage_plan import StoragePlan
from repro.exceptions import InvalidStoragePlanError, VersionNotFoundError

from tests.helpers import build_chain_instance, build_figure1_instance


def figure1_plan_iv() -> StoragePlan:
    """The storage graph of Figure 1(iv): V1, V3 materialized."""
    plan = StoragePlan()
    plan.materialize("V1")
    plan.assign("V2", "V1")
    plan.materialize("V3")
    plan.assign("V4", "V2")
    plan.assign("V5", "V3")
    return plan


class TestConstruction:
    def test_assign_and_parent(self):
        plan = StoragePlan()
        plan.assign("b", "a")
        plan.materialize("a")
        assert plan.parent("b") == "a"
        assert plan.parent("a") is ROOT

    def test_assign_none_means_materialize(self):
        plan = StoragePlan()
        plan.assign("a", None)
        assert plan.is_materialized("a")

    def test_self_parent_rejected(self):
        plan = StoragePlan()
        with pytest.raises(InvalidStoragePlanError):
            plan.assign("a", "a")

    def test_remove(self):
        plan = StoragePlan()
        plan.materialize("a")
        plan.remove("a")
        assert "a" not in plan
        plan.remove("a")  # idempotent

    def test_copy_independent(self):
        plan = StoragePlan()
        plan.materialize("a")
        clone = plan.copy()
        clone.assign("a", "b")
        assert plan.is_materialized("a")

    def test_materialize_all(self):
        plan = StoragePlan.materialize_all(["a", "b", "c"])
        assert len(plan) == 3
        assert set(plan.materialized_versions()) == {"a", "b", "c"}

    def test_unknown_version_parent_lookup(self):
        plan = StoragePlan()
        with pytest.raises(VersionNotFoundError):
            plan.parent("missing")


class TestInspection:
    def test_materialized_and_delta_edges(self):
        plan = figure1_plan_iv()
        assert set(plan.materialized_versions()) == {"V1", "V3"}
        assert set(plan.delta_edges()) == {("V1", "V2"), ("V2", "V4"), ("V3", "V5")}

    def test_children_map(self):
        plan = figure1_plan_iv()
        children = plan.children_map()
        assert set(children[ROOT]) == {"V1", "V3"}
        assert children["V2"] == ["V4"]

    def test_chain_to_root(self):
        plan = figure1_plan_iv()
        assert plan.chain_to_root("V4") == ["V1", "V2", "V4"]
        assert plan.chain_to_root("V1") == ["V1"]

    def test_depths(self):
        plan = figure1_plan_iv()
        assert plan.depth("V1") == 0
        assert plan.depth("V4") == 2
        assert plan.max_depth() == 2

    def test_cycle_detection_in_chain(self):
        plan = StoragePlan()
        plan.assign("a", "b")
        plan.assign("b", "a")
        with pytest.raises(InvalidStoragePlanError):
            plan.chain_to_root("a")


class TestValidation:
    def test_valid_plan_passes(self, figure1_instance):
        figure1_plan_iv().validate(figure1_instance)

    def test_missing_version_detected(self, figure1_instance):
        plan = figure1_plan_iv()
        plan.remove("V4")
        with pytest.raises(InvalidStoragePlanError):
            plan.validate(figure1_instance)

    def test_extra_version_detected(self, figure1_instance):
        plan = figure1_plan_iv()
        plan.materialize("V99")
        with pytest.raises(InvalidStoragePlanError):
            plan.validate(figure1_instance)

    def test_unrevealed_delta_detected(self, figure1_instance):
        plan = figure1_plan_iv()
        plan.assign("V4", "V3")  # no delta V3 -> V4 revealed
        with pytest.raises(InvalidStoragePlanError):
            plan.validate(figure1_instance)

    def test_cycle_detected(self, figure1_instance):
        plan = StoragePlan()
        plan.materialize("V1")
        plan.assign("V2", "V4")
        plan.assign("V4", "V2")
        plan.materialize("V3")
        plan.materialize("V5")
        with pytest.raises(InvalidStoragePlanError):
            plan.validate(figure1_instance)

    def test_delta_from_unknown_version_detected(self, figure1_instance):
        plan = figure1_plan_iv()
        plan.assign("V4", "V77")
        with pytest.raises(InvalidStoragePlanError):
            plan.validate(figure1_instance)


class TestEvaluation:
    def test_storage_cost_matches_paper_example(self, figure1_instance):
        # Figure 1(iv): 10000 + 200 + 9700 + 50 + 200 = 20150
        plan = figure1_plan_iv()
        assert plan.storage_cost(figure1_instance) == pytest.approx(20150)

    def test_recreation_costs(self, figure1_instance):
        plan = figure1_plan_iv()
        recreation = plan.recreation_costs(figure1_instance)
        assert recreation["V1"] == 10000
        assert recreation["V2"] == 10200
        assert recreation["V3"] == 9700
        assert recreation["V4"] == 10600
        assert recreation["V5"] == 10250

    def test_evaluate_aggregates(self, figure1_instance):
        metrics = figure1_plan_iv().evaluate(figure1_instance)
        assert metrics.storage_cost == pytest.approx(20150)
        assert metrics.sum_recreation == pytest.approx(10000 + 10200 + 9700 + 10600 + 10250)
        assert metrics.max_recreation == pytest.approx(10600)
        assert metrics.num_materialized == 2
        assert metrics.as_dict()["storage_cost"] == pytest.approx(20150)

    def test_weighted_recreation_uses_frequencies(self, figure1_instance):
        weighted = figure1_instance.with_access_frequencies({"V4": 10.0})
        metrics = figure1_plan_iv().evaluate(weighted)
        expected = 10000 + 10200 + 9700 + 10.0 * 10600 + 10250
        assert metrics.weighted_recreation == pytest.approx(expected)

    def test_store_everything_chain(self):
        instance = build_chain_instance(4, full_size=100, delta_size=10)
        plan = StoragePlan.materialize_all(instance.version_ids)
        metrics = plan.evaluate(instance)
        assert metrics.storage_cost == pytest.approx(400)
        assert metrics.max_recreation == pytest.approx(100)

    def test_single_chain_costs(self):
        instance = build_chain_instance(4, full_size=100, delta_size=10)
        plan = StoragePlan()
        plan.materialize("v0")
        plan.assign("v1", "v0")
        plan.assign("v2", "v1")
        plan.assign("v3", "v2")
        metrics = plan.evaluate(instance)
        assert metrics.storage_cost == pytest.approx(100 + 30)
        assert metrics.max_recreation == pytest.approx(130)
        assert metrics.sum_recreation == pytest.approx(100 + 110 + 120 + 130)


class TestSerialization:
    def test_to_dict_shape(self):
        plan = figure1_plan_iv()
        payload = plan.to_dict()
        assert sorted(payload["materialized"]) == ["V1", "V3"]
        assert {"parent": "V1", "child": "V2"} in payload["deltas"]
