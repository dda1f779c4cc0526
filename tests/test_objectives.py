"""Tests for the objective values of a plan, as ``StoragePlan.evaluate`` reports them."""

from __future__ import annotations

import pytest

from repro.core.objectives import Objective
from repro.core.storage_plan import StoragePlan

from tests.helpers import build_figure1_instance


@pytest.fixture
def plan_and_instance():
    instance = build_figure1_instance()
    plan = StoragePlan()
    plan.materialize("V1")
    plan.assign("V2", "V1")
    plan.materialize("V3")
    plan.assign("V4", "V2")
    plan.assign("V5", "V3")
    return plan, instance


class TestObjectiveFunctions:
    def test_total_storage(self, plan_and_instance):
        plan, instance = plan_and_instance
        assert plan.evaluate(instance).storage_cost == pytest.approx(20150)

    def test_sum_recreation(self, plan_and_instance):
        plan, instance = plan_and_instance
        assert plan.evaluate(instance).sum_recreation == pytest.approx(50750)

    def test_max_recreation(self, plan_and_instance):
        plan, instance = plan_and_instance
        assert plan.evaluate(instance).max_recreation == pytest.approx(10600)

    def test_weighted_matches_sum_without_workload(self, plan_and_instance):
        plan, instance = plan_and_instance
        metrics = plan.evaluate(instance)
        assert metrics.weighted_recreation == pytest.approx(metrics.sum_recreation)

    def test_weighted_uses_frequencies(self, plan_and_instance):
        plan, instance = plan_and_instance
        weighted = instance.with_access_frequencies({"V5": 3.0})
        expected = plan.evaluate(instance).sum_recreation + 2.0 * 10250
        assert plan.evaluate(weighted).weighted_recreation == pytest.approx(expected)

    def test_objective_enum_str(self):
        assert str(Objective.SUM_RECREATION) == "sum_recreation"
