"""Tests for the LAST (balanced MST/SPT) construction."""

from __future__ import annotations

import pytest

from repro.algorithms.last import last_plan
from repro.algorithms.mst import minimum_storage_plan
from repro.algorithms.shortest_path import shortest_path_distances
from repro.exceptions import SolverError

from tests.helpers import build_random_instance


class TestLastGuarantees:
    def test_recreation_within_alpha_of_shortest_path_undirected(self):
        # The Khuller et al. guarantee holds for undirected, Φ = Δ instances.
        instance = build_random_instance(30, seed=2, directed=False, proportional=True)
        alpha = 2.0
        plan = last_plan(instance, alpha)
        plan.validate(instance)
        shortest = shortest_path_distances(instance)
        realized = plan.recreation_costs(instance)
        for vid in instance.version_ids:
            assert realized[vid] <= alpha * shortest[vid] + 1e-6

    def test_storage_within_khuller_bound_undirected(self):
        instance = build_random_instance(30, seed=5, directed=False, proportional=True)
        alpha = 2.0
        mst_cost = minimum_storage_plan(instance).storage_cost(instance)
        plan = last_plan(instance, alpha)
        bound = (1 + 2 / (alpha - 1)) * mst_cost
        assert plan.storage_cost(instance) <= bound + 1e-6

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 4.0])
    def test_alpha_guarantee_across_values(self, alpha):
        instance = build_random_instance(25, seed=8, directed=False, proportional=True)
        plan = last_plan(instance, alpha)
        shortest = shortest_path_distances(instance)
        realized = plan.recreation_costs(instance)
        for vid in instance.version_ids:
            assert realized[vid] <= alpha * shortest[vid] + 1e-6


class TestLastBehaviour:
    def test_invalid_alpha_rejected(self, small_dc):
        with pytest.raises(SolverError):
            last_plan(small_dc.instance, alpha=1.0)

    def test_directed_instances_produce_valid_plans(self, small_dc):
        plan = last_plan(small_dc.instance, alpha=2.0)
        plan.validate(small_dc.instance)

    def test_large_alpha_keeps_mst_storage(self, small_lc):
        instance = small_lc.instance
        mst_cost = minimum_storage_plan(instance).storage_cost(instance)
        plan = last_plan(instance, alpha=1000.0)
        assert plan.storage_cost(instance) == pytest.approx(mst_cost, rel=1e-6)

    def test_small_alpha_tracks_spt_recreation(self, small_dc):
        instance = small_dc.instance
        plan = last_plan(instance, alpha=1.0001)
        shortest = shortest_path_distances(instance)
        realized = plan.recreation_costs(instance)
        # With alpha barely above 1 every version must sit essentially on its
        # shortest path.
        for vid in instance.version_ids:
            assert realized[vid] <= 1.01 * shortest[vid] + 1e-6

    def test_alpha_tradeoff_monotone_in_storage(self, small_dc):
        instance = small_dc.instance
        storages = [
            last_plan(instance, alpha).storage_cost(instance) for alpha in (1.2, 2.0, 5.0)
        ]
        # Larger alpha tolerates longer chains, so storage should not grow.
        assert storages[0] >= storages[-1] - 1e-6

    def test_initial_plan_override(self, small_lc):
        instance = small_lc.instance
        base = minimum_storage_plan(instance)
        plan = last_plan(instance, alpha=2.0, initial_plan=base)
        plan.validate(instance)
        untouched = minimum_storage_plan(instance)
        assert {v: base.parent(v) for v in base} == {v: untouched.parent(v) for v in untouched}
