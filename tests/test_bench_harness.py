"""Tests for the benchmark harness (sweeps, reference costs, formatting)."""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    SweepPoint,
    SweepSeries,
    budget_grid,
    format_table,
    reference_costs,
    sweep_gith,
    sweep_last,
    sweep_lmg,
    sweep_mp,
)
from repro.algorithms.mst import minimum_storage_plan


class TestReferenceCosts:
    def test_reference_relationships(self, small_dc):
        refs = reference_costs(small_dc.instance)
        assert refs["mca_storage"] <= refs["spt_storage"]
        assert refs["spt_sum_recreation"] <= refs["mca_sum_recreation"]
        assert refs["spt_max_recreation"] <= refs["mca_max_recreation"]

    def test_budget_grid_multiples_of_minimum(self, small_lc):
        instance = small_lc.instance
        minimum = minimum_storage_plan(instance).storage_cost(instance)
        grid = budget_grid(instance, (1.5, 3.0))
        assert grid == pytest.approx([1.5 * minimum, 3.0 * minimum])


class TestSweeps:
    def test_lmg_sweep_points_within_budget(self, small_dc):
        instance = small_dc.instance
        budgets = budget_grid(instance, (1.5, 2.5))
        series = sweep_lmg(instance, budgets)
        assert series.algorithm == "LMG"
        assert len(series.points) == 2
        for point, budget in zip(series.points, budgets):
            assert point.storage_cost <= budget + 1e-6

    def test_lmg_sweep_recreation_decreases(self, small_dc):
        instance = small_dc.instance
        series = sweep_lmg(instance, budget_grid(instance, (1.2, 2.0, 4.0)))
        sums = series.sum_recreations
        assert sums[0] >= sums[-1] - 1e-6

    def test_mp_sweep_max_recreation_tracks_threshold(self, small_lc):
        instance = small_lc.instance
        series = sweep_mp(instance)
        for point in series.points:
            assert point.max_recreation <= point.parameter + 1e-6

    def test_last_sweep_has_one_point_per_alpha(self, small_bf):
        series = sweep_last(small_bf.instance, alphas=(1.5, 2.0))
        assert [point.parameter for point in series.points] == [1.5, 2.0]

    def test_gith_sweep_by_window(self, small_bf):
        series = sweep_gith(small_bf.instance, windows=(5, 20))
        assert [point.parameter for point in series.points] == [5.0, 20.0]

    def test_best_sum_recreation_within_budget(self, small_dc):
        instance = small_dc.instance
        series = sweep_lmg(instance, budget_grid(instance, (1.2, 3.0)))
        huge = series.best_sum_recreation_within(1e18)
        assert huge == min(series.sum_recreations)
        assert series.best_sum_recreation_within(0.0) is None

    def test_series_accessors(self):
        series = SweepSeries(algorithm="X")
        series.points.append(SweepPoint(1.0, 10.0, 100.0, 50.0, 100.0))
        assert series.sum_recreations == [100.0]
        assert series.max_recreations == [50.0]


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["bbbb", 2]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "1.23" in text

    def test_format_table_handles_non_floats(self):
        text = format_table(["k"], [["plain string"], [42]])
        assert "plain string" in text
        assert "42" in text
