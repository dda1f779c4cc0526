"""Tests for the GitH (Git repack) heuristic."""

from __future__ import annotations

import pytest

from repro.algorithms.gith import git_heuristic_plan
from repro.algorithms.mst import minimum_storage_plan
from repro.exceptions import SolverError

from tests.helpers import build_chain_instance


class TestGitHBasics:
    def test_plan_is_valid(self, small_dc):
        plan = git_heuristic_plan(small_dc.instance, window=10, max_depth=10)
        plan.validate(small_dc.instance)

    def test_first_version_by_size_is_materialized(self, small_bf):
        instance = small_bf.instance
        plan = git_heuristic_plan(instance, window=10)
        largest = max(
            instance.version_ids, key=lambda vid: instance.materialization_storage(vid)
        )
        assert plan.is_materialized(largest)

    def test_max_depth_respected(self, small_lc):
        instance = small_lc.instance
        for depth_limit in (1, 3, 5):
            plan = git_heuristic_plan(instance, window=50, max_depth=depth_limit)
            assert plan.max_depth() <= depth_limit

    def test_depth_one_means_all_deltas_off_materialized_versions(self, small_lc):
        instance = small_lc.instance
        plan = git_heuristic_plan(instance, window=50, max_depth=1)
        for vid in instance.version_ids:
            parent = plan.parent(vid)
            if not plan.is_materialized(vid):
                assert plan.is_materialized(parent)

    def test_invalid_parameters_rejected(self, small_dc):
        with pytest.raises(SolverError):
            git_heuristic_plan(small_dc.instance, window=0)
        with pytest.raises(SolverError):
            git_heuristic_plan(small_dc.instance, max_depth=0)

    def test_delta_never_larger_than_materialization(self, small_dc):
        instance = small_dc.instance
        plan = git_heuristic_plan(instance, window=25)
        for vid in instance.version_ids:
            parent = plan.parent(vid)
            if not plan.is_materialized(vid):
                assert instance.delta_storage(parent, vid) < instance.materialization_storage(vid)


class TestGitHQuality:
    def test_beats_materializing_everything(self, small_lc):
        instance = small_lc.instance
        plan = git_heuristic_plan(instance, window=25, max_depth=50)
        total_full = sum(
            instance.materialization_storage(vid) for vid in instance.version_ids
        )
        assert plan.storage_cost(instance) < total_full

    def test_needs_more_storage_than_mca(self, small_dc):
        # GitH is a greedy scan; the optimal arborescence is a lower bound.
        instance = small_dc.instance
        mca_cost = minimum_storage_plan(instance).storage_cost(instance)
        plan = git_heuristic_plan(instance, window=10, max_depth=50)
        assert plan.storage_cost(instance) >= mca_cost - 1e-6

    def test_larger_window_does_not_hurt_storage_much(self, small_dc):
        instance = small_dc.instance
        small_window = git_heuristic_plan(instance, window=2).storage_cost(instance)
        large_window = git_heuristic_plan(instance, window=100).storage_cost(instance)
        # A larger window sees strictly more candidate bases; allow small
        # noise from the depth-bias tie-breaking.
        assert large_window <= small_window * 1.1 + 1e-6

    def test_unlimited_window_flag(self, small_lc):
        instance = small_lc.instance
        unlimited = git_heuristic_plan(instance, window=1, unlimited_window=True)
        bounded = git_heuristic_plan(instance, window=1, unlimited_window=False)
        assert unlimited.storage_cost(instance) <= bounded.storage_cost(instance) + 1e-6

    @pytest.mark.parametrize("window", [5, 10, 20])
    def test_every_window_gives_a_valid_plan_on_forks(self, small_bf, window):
        instance = small_bf.instance
        plan = git_heuristic_plan(instance, window=window)
        plan.validate(instance)
        assert plan.storage_cost(instance) >= (
            minimum_storage_plan(instance).storage_cost(instance) - 1e-6
        )

    def test_chain_instance_single_materialization(self):
        # On a clean chain with small deltas GitH should materialize one
        # version and delta the rest.
        instance = build_chain_instance(6, full_size=100, delta_size=5)
        plan = git_heuristic_plan(instance, window=10, max_depth=50)
        assert len(plan.materialized_versions()) == 1
        assert plan.storage_cost(instance) == pytest.approx(100 + 5 * 5)
