"""Tests for the Local Move Greedy heuristic (Problems 3 and 5)."""

from __future__ import annotations

import pytest

from repro.algorithms.lmg import local_move_greedy, solve_problem_5
from repro.algorithms.mst import minimum_storage_plan
from repro.algorithms.shortest_path import shortest_path_plan
from repro.exceptions import InfeasibleProblemError

from tests.helpers import build_figure1_instance


class TestProblem3:
    def test_budget_respected(self, small_dc):
        instance = small_dc.instance
        mca_cost = minimum_storage_plan(instance).storage_cost(instance)
        for factor in (1.05, 1.5, 3.0):
            budget = factor * mca_cost
            plan = local_move_greedy(instance, budget)
            plan.validate(instance)
            assert plan.storage_cost(instance) <= budget + 1e-6

    def test_budget_below_minimum_is_infeasible(self, small_dc):
        instance = small_dc.instance
        mca_cost = minimum_storage_plan(instance).storage_cost(instance)
        with pytest.raises(InfeasibleProblemError):
            local_move_greedy(instance, 0.5 * mca_cost)

    def test_recreation_improves_monotonically_with_budget(self, small_lc):
        instance = small_lc.instance
        mca_cost = minimum_storage_plan(instance).storage_cost(instance)
        budgets = [mca_cost * factor for factor in (1.0, 1.2, 1.5, 2.0, 4.0)]
        sums = []
        for budget in budgets:
            plan = local_move_greedy(instance, budget)
            sums.append(plan.evaluate(instance).sum_recreation)
        for earlier, later in zip(sums, sums[1:]):
            assert later <= earlier + 1e-6

    def test_never_worse_than_mca_recreation(self, small_dc):
        instance = small_dc.instance
        mca = minimum_storage_plan(instance)
        mca_sum = mca.evaluate(instance).sum_recreation
        plan = local_move_greedy(instance, 1.5 * mca.storage_cost(instance))
        assert plan.evaluate(instance).sum_recreation <= mca_sum + 1e-6

    def test_huge_budget_approaches_spt(self, small_dc):
        instance = small_dc.instance
        spt_sum = shortest_path_plan(instance).evaluate(instance).sum_recreation
        total_full = sum(
            instance.materialization_storage(vid) for vid in instance.version_ids
        )
        plan = local_move_greedy(instance, 10 * total_full)
        lmg_sum = plan.evaluate(instance).sum_recreation
        # The greedy trajectory only swaps towards SPT edges, so with an
        # unlimited budget it should get very close to the SPT optimum.
        assert lmg_sum <= spt_sum * 1.05 + 1e-6

    def test_small_budget_increase_gives_large_recreation_drop(self, small_dc):
        # The headline observation of the paper (Figure 13): a small amount
        # of storage head-room over the MCA minimum (here, enough to
        # materialize a handful of extra versions) already cuts the sum of
        # recreation costs dramatically.
        instance = small_dc.instance
        mca = minimum_storage_plan(instance)
        mca_metrics = mca.evaluate(instance)
        average_size = instance.summary()["average_version_size"]
        budget = mca_metrics.storage_cost + 5 * average_size
        plan = local_move_greedy(instance, budget)
        improved = plan.evaluate(instance).sum_recreation
        assert improved < 0.7 * mca_metrics.sum_recreation

    def test_figure1_tiny_budget_keeps_mca(self):
        instance = build_figure1_instance()
        mca = minimum_storage_plan(instance)
        plan = local_move_greedy(instance, mca.storage_cost(instance))
        assert plan.storage_cost(instance) == pytest.approx(mca.storage_cost(instance))

    def test_initial_plan_override(self, small_lc):
        instance = small_lc.instance
        start = shortest_path_plan(instance)
        plan = local_move_greedy(
            instance, start.storage_cost(instance) * 1.01, initial_plan=start
        )
        plan.validate(instance)

    @pytest.mark.parametrize("factor", [1.1, 2.0])
    def test_budget_respected_on_forks(self, small_bf, factor):
        instance = small_bf.instance
        budget = factor * minimum_storage_plan(instance).storage_cost(instance)
        plan = local_move_greedy(instance, budget)
        plan.validate(instance)
        assert plan.storage_cost(instance) <= budget + 1e-6


class TestWorkloadAwareness:
    def test_workload_aware_beats_oblivious_on_weighted_cost(self, small_dc):
        from repro.datagen import normalize_workload, zipfian_workload

        instance = small_dc.instance
        workload = normalize_workload(
            zipfian_workload(instance.version_ids, exponent=2.0, seed=3)
        )
        weighted = instance.with_access_frequencies(workload)
        mca_cost = minimum_storage_plan(weighted).storage_cost(weighted)
        budget = 1.3 * mca_cost
        aware = local_move_greedy(weighted, budget, use_workload=True)
        oblivious = local_move_greedy(weighted, budget, use_workload=False)
        aware_cost = aware.evaluate(weighted).weighted_recreation
        oblivious_cost = oblivious.evaluate(weighted).weighted_recreation
        assert aware_cost <= oblivious_cost + 1e-6

    def test_uniform_workload_equivalent_to_oblivious(self, small_lc):
        instance = small_lc.instance
        mca_cost = minimum_storage_plan(instance).storage_cost(instance)
        budget = 1.4 * mca_cost
        with_flag = local_move_greedy(instance, budget, use_workload=True)
        without_flag = local_move_greedy(instance, budget, use_workload=False)
        assert {v: with_flag.parent(v) for v in with_flag} == {
            v: without_flag.parent(v) for v in without_flag
        }


class TestProblem5:
    def test_threshold_respected(self, small_dc):
        instance = small_dc.instance
        spt_sum = shortest_path_plan(instance).evaluate(instance).sum_recreation
        mca_sum = minimum_storage_plan(instance).evaluate(instance).sum_recreation
        threshold = (spt_sum + mca_sum) / 2
        plan = solve_problem_5(instance, threshold)
        plan.validate(instance)
        assert plan.evaluate(instance).sum_recreation <= threshold + 1e-6

    def test_loose_threshold_returns_mca(self, small_lc):
        instance = small_lc.instance
        mca = minimum_storage_plan(instance)
        loose = 2.0 * mca.evaluate(instance).sum_recreation
        plan = solve_problem_5(instance, loose)
        assert plan.storage_cost(instance) == pytest.approx(mca.storage_cost(instance))

    def test_impossible_threshold_raises(self, small_lc):
        instance = small_lc.instance
        spt_sum = shortest_path_plan(instance).evaluate(instance).sum_recreation
        with pytest.raises(InfeasibleProblemError):
            solve_problem_5(instance, 0.5 * spt_sum)

    def test_storage_grows_as_threshold_tightens(self, small_dc):
        instance = small_dc.instance
        spt_sum = shortest_path_plan(instance).evaluate(instance).sum_recreation
        mca_sum = minimum_storage_plan(instance).evaluate(instance).sum_recreation
        thresholds = [
            mca_sum,
            0.5 * (mca_sum + spt_sum),
            1.1 * spt_sum,
        ]
        storages = [
            solve_problem_5(instance, theta).storage_cost(instance)
            for theta in thresholds
        ]
        assert storages[0] <= storages[1] + 1e-6 or storages[1] <= storages[2] + 1e-6
        assert storages[-1] >= storages[0] - 1e-6
