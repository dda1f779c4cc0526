"""Tests for the Modified Prim heuristic (Problems 4 and 6)."""

from __future__ import annotations

import pytest

from repro.algorithms.mp import (
    minimum_feasible_threshold,
    modified_prim,
    solve_problem_4,
)
from repro.algorithms.mst import minimum_storage_plan
from repro.algorithms.shortest_path import shortest_path_distances
from repro.core import CostModel, ProblemInstance, Version
from repro.exceptions import InfeasibleProblemError

from tests.helpers import build_figure1_instance


def paper_example_graph() -> ProblemInstance:
    """The three-version directed example of Figures 8 and 10 of the paper.

    ``V0`` in the paper's figure is the dummy root, so its outgoing edges are
    the materialization costs of V1–V3; the remaining annotations are the
    revealed deltas.
    """
    model = CostModel(directed=True, phi_equals_delta=False)
    model.set_materialization("V1", 3, 3)
    model.set_materialization("V2", 4, 4)
    model.set_materialization("V3", 4, 4)
    # Delta annotations <storage, recreation> from Figure 8.
    model.set_delta("V1", "V2", 2, 3)
    model.set_delta("V1", "V3", 1, 4)
    model.set_delta("V3", "V2", 1, 2)
    model.set_delta("V2", "V3", 1, 3)
    versions = [Version(v, size=model.delta[v, v]) for v in ("V1", "V2", "V3")]
    return ProblemInstance(versions, model)


class TestMinimumFeasibleThreshold:
    def test_equals_max_shortest_path(self, small_dc):
        instance = small_dc.instance
        distances = shortest_path_distances(instance)
        assert minimum_feasible_threshold(instance) == pytest.approx(max(distances.values()))

    def test_bounded_by_largest_materialization(self, small_lc):
        instance = small_lc.instance
        largest = max(
            instance.materialization_recreation(vid) for vid in instance.version_ids
        )
        assert minimum_feasible_threshold(instance) <= largest + 1e-9


class TestProblem6:
    def test_threshold_respected(self, small_dc):
        instance = small_dc.instance
        minimum = minimum_feasible_threshold(instance)
        for factor in (1.0, 1.5, 3.0):
            plan = modified_prim(instance, factor * minimum)
            plan.validate(instance)
            assert plan.evaluate(instance).max_recreation <= factor * minimum + 1e-6

    def test_infeasible_threshold_raises(self, small_dc):
        instance = small_dc.instance
        minimum = minimum_feasible_threshold(instance)
        with pytest.raises(InfeasibleProblemError):
            modified_prim(instance, 0.5 * minimum)

    def test_non_strict_clamps_instead(self, small_dc):
        instance = small_dc.instance
        minimum = minimum_feasible_threshold(instance)
        plan = modified_prim(instance, 0.5 * minimum, strict=False)
        plan.validate(instance)
        assert plan.evaluate(instance).max_recreation <= minimum + 1e-6

    def test_storage_shrinks_as_threshold_loosens(self, small_lc):
        instance = small_lc.instance
        minimum = minimum_feasible_threshold(instance)
        storages = [
            modified_prim(instance, factor * minimum).storage_cost(instance)
            for factor in (1.0, 2.0, 5.0, 20.0)
        ]
        for tighter, looser in zip(storages, storages[1:]):
            assert looser <= tighter + 1e-6

    def test_loose_threshold_close_to_mca(self, small_dc):
        instance = small_dc.instance
        mca_cost = minimum_storage_plan(instance).storage_cost(instance)
        loose = 100 * minimum_feasible_threshold(instance)
        plan = modified_prim(instance, loose)
        # A greedy heuristic, so allow head-room, but it must stay in the
        # same ballpark as the optimal arborescence.
        assert plan.storage_cost(instance) <= 1.5 * mca_cost

    def test_tight_threshold_materializes_more(self, small_dc):
        instance = small_dc.instance
        minimum = minimum_feasible_threshold(instance)
        tight = modified_prim(instance, minimum)
        loose = modified_prim(instance, 10 * minimum)
        assert len(tight.materialized_versions()) >= len(loose.materialized_versions())

    def test_figure8_example_storage(self):
        # Figure 10(d) of the paper: with threshold 6, V1 and V3 end up
        # materialized (3 + 4) and V2 is stored as the <1,2> delta from V3,
        # for a total storage cost of 8 and V2's recreation cost exactly 6.
        instance = paper_example_graph()
        plan = modified_prim(instance, 6.0)
        plan.validate(instance)
        assert plan.storage_cost(instance) == pytest.approx(8.0)
        assert plan.is_materialized("V1")
        assert plan.is_materialized("V3")
        assert plan.parent("V2") == "V3"
        metrics = plan.evaluate(instance)
        assert metrics.max_recreation == pytest.approx(6.0)

    def test_figure1_example(self):
        instance = build_figure1_instance()
        plan = modified_prim(instance, 13000)
        plan.validate(instance)
        metrics = plan.evaluate(instance)
        assert metrics.max_recreation <= 13000 + 1e-6
        # Must beat storing everything (49720).
        assert metrics.storage_cost < 49720


    def test_stranded_version_is_spliced_in_along_its_shortest_path(self):
        # Greedy growth attaches Y through A (storage 1, recreation 95),
        # which leaves no room under θ = 100 for the Y -> X delta, and X's
        # own materialization (recreation 200) is over θ as well.  X's
        # shortest path ROOT -> Y -> X (recreation 30) is spliced in.
        model = CostModel(directed=True, phi_equals_delta=False)
        model.set_materialization("A", 50, 50)
        model.set_materialization("Y", 100, 10)
        model.set_materialization("X", 200, 200)
        model.set_delta("A", "Y", 1, 45)
        model.set_delta("Y", "X", 5, 20)
        instance = ProblemInstance(
            [Version("A", size=50), Version("Y", size=100), Version("X", size=200)],
            model,
        )
        plan = modified_prim(instance, 100.0)
        plan.validate(instance)
        assert plan.parent("X") == "Y"
        assert plan.is_materialized("Y")
        metrics = plan.evaluate(instance)
        assert metrics.max_recreation <= 100.0
        assert metrics.storage_cost == pytest.approx(155.0)


class TestProblem4:
    def test_budget_respected(self, small_dc):
        instance = small_dc.instance
        mca_cost = minimum_storage_plan(instance).storage_cost(instance)
        budget = 1.5 * mca_cost
        plan = solve_problem_4(instance, budget)
        plan.validate(instance)
        assert plan.storage_cost(instance) <= budget + 1e-6

    def test_max_recreation_improves_with_budget(self, small_dc):
        instance = small_dc.instance
        mca_cost = minimum_storage_plan(instance).storage_cost(instance)
        tight = solve_problem_4(instance, 1.1 * mca_cost).evaluate(instance).max_recreation
        loose = solve_problem_4(instance, 3.0 * mca_cost).evaluate(instance).max_recreation
        assert loose <= tight + 1e-6

    def test_huge_budget_reaches_minimum_threshold(self, small_lc):
        instance = small_lc.instance
        total_full = sum(
            instance.materialization_storage(vid) for vid in instance.version_ids
        )
        plan = solve_problem_4(instance, 10 * total_full)
        minimum = minimum_feasible_threshold(instance)
        assert plan.evaluate(instance).max_recreation <= minimum * 1.05 + 1e-6

    def test_impossible_budget_raises(self, small_dc):
        instance = small_dc.instance
        mca_cost = minimum_storage_plan(instance).storage_cost(instance)
        with pytest.raises(InfeasibleProblemError):
            solve_problem_4(instance, 0.1 * mca_cost)
