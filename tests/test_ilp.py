"""Tests for the exact ILP / branch-and-bound solvers (Problems 5 and 6)."""

from __future__ import annotations

import pytest

from repro.algorithms.ilp import (
    branch_and_bound_max_recreation,
    solve_ilp_max_recreation,
    solve_ilp_sum_recreation,
)
from repro.algorithms.mp import minimum_feasible_threshold, modified_prim
from repro.algorithms.mst import minimum_storage_plan
from repro.algorithms.shortest_path import shortest_path_plan
from repro.exceptions import InfeasibleProblemError, SolverError

from tests.helpers import build_figure1_instance, build_random_instance


@pytest.fixture(scope="module")
def tiny_instance():
    return build_random_instance(8, seed=21, directed=True, hop_limit=0)


class TestIlpMaxRecreation:
    def test_optimal_never_worse_than_mp(self, tiny_instance):
        instance = tiny_instance
        minimum = minimum_feasible_threshold(instance)
        for factor in (1.0, 1.5, 2.5):
            theta = factor * minimum
            ilp_plan = solve_ilp_max_recreation(instance, theta)
            mp_plan = modified_prim(instance, theta, strict=False)
            assert ilp_plan.storage_cost(instance) <= mp_plan.storage_cost(instance) + 1e-6
            assert ilp_plan.evaluate(instance).max_recreation <= theta + 1e-6

    def test_matches_branch_and_bound(self, tiny_instance):
        instance = tiny_instance
        theta = 1.5 * minimum_feasible_threshold(instance)
        milp = solve_ilp_max_recreation(instance, theta)
        bnb = branch_and_bound_max_recreation(instance, theta)
        assert milp.storage_cost(instance) == pytest.approx(
            bnb.storage_cost(instance), rel=1e-6
        )

    def test_loose_threshold_equals_mca(self, tiny_instance):
        instance = tiny_instance
        mca_cost = minimum_storage_plan(instance).storage_cost(instance)
        theta = 1000 * minimum_feasible_threshold(instance)
        plan = solve_ilp_max_recreation(instance, theta)
        assert plan.storage_cost(instance) == pytest.approx(mca_cost, rel=1e-6)

    def test_infeasible_threshold_raises(self, tiny_instance):
        instance = tiny_instance
        with pytest.raises(InfeasibleProblemError):
            solve_ilp_max_recreation(instance, 0.1 * minimum_feasible_threshold(instance))

    def test_figure1_example_optimum(self):
        instance = build_figure1_instance()
        theta = 13000.0
        plan = solve_ilp_max_recreation(instance, theta)
        metrics = plan.evaluate(instance)
        assert metrics.max_recreation <= theta + 1e-6
        # MP on the same instance cannot beat the exact optimum.
        mp_plan = modified_prim(instance, theta)
        assert metrics.storage_cost <= mp_plan.storage_cost(instance) + 1e-6


class TestIlpSumRecreation:
    def test_threshold_respected(self, tiny_instance):
        instance = tiny_instance
        spt_sum = shortest_path_plan(instance).evaluate(instance).sum_recreation
        mca_sum = minimum_storage_plan(instance).evaluate(instance).sum_recreation
        theta = 0.5 * (spt_sum + mca_sum)
        plan = solve_ilp_sum_recreation(instance, theta)
        metrics = plan.evaluate(instance)
        assert metrics.sum_recreation <= theta + 1e-6

    def test_never_worse_than_lmg(self, tiny_instance):
        from repro.algorithms.lmg import solve_problem_5

        instance = tiny_instance
        spt_sum = shortest_path_plan(instance).evaluate(instance).sum_recreation
        theta = 1.5 * spt_sum
        ilp_plan = solve_ilp_sum_recreation(instance, theta)
        lmg_plan = solve_problem_5(instance, theta)
        assert ilp_plan.storage_cost(instance) <= lmg_plan.storage_cost(instance) + 1e-6


class TestBranchAndBound:
    def test_rejects_large_instances(self):
        instance = build_random_instance(25, seed=1)
        with pytest.raises(SolverError):
            branch_and_bound_max_recreation(instance, 1e12, max_versions=12)

    def test_infeasible_raises(self):
        instance = build_random_instance(6, seed=3, hop_limit=0)
        with pytest.raises(InfeasibleProblemError):
            branch_and_bound_max_recreation(instance, 1.0)

    def test_figure1_matches_milp(self):
        instance = build_figure1_instance()
        for theta in (11000.0, 13000.0, 20000.0):
            milp = solve_ilp_max_recreation(instance, theta)
            bnb = branch_and_bound_max_recreation(instance, theta)
            assert milp.storage_cost(instance) == pytest.approx(
                bnb.storage_cost(instance), rel=1e-9
            )
