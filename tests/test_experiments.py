"""Tests for the per-figure experiment drivers (E1–E8 of repro.bench.experiments).

These run every experiment at a very small scale and assert the *shape*
properties the paper reports, i.e. who wins and in which direction the
curves move — not absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.bench import experiments
from repro.bench.harness import SweepSeries
from repro.datagen import all_scenarios, densely_connected


@pytest.fixture(scope="module")
def datasets():
    return all_scenarios(scale=0.12, seed=1)


class TestFigure12(object):
    def test_properties_for_all_datasets(self, datasets):
        table = experiments.figure12_dataset_properties(datasets)
        assert set(table) == {"DC", "LC", "BF", "LF"}
        for summary in table.values():
            assert summary["mca_storage_cost"] <= summary["spt_storage_cost"]
            assert summary["mca_sum_recreation"] >= summary["spt_sum_recreation"]


class TestSection52(object):
    def test_vcs_comparison_shape(self, datasets):
        comparison = experiments.section52_vcs_comparison(datasets["LF"])
        assert set(comparison) >= {"naive", "gzip", "svn_skip_delta", "gith", "mca"}
        # MCA must be the cheapest storage; naive the most expensive.
        assert comparison["mca"]["storage_cost"] <= comparison["gith"]["storage_cost"] + 1e-6
        assert comparison["mca"]["storage_cost"] < comparison["naive"]["storage_cost"]
        assert comparison["svn_skip_delta"]["storage_cost"] >= comparison["mca"]["storage_cost"] - 1e-6


class TestFigure13And14(object):
    def test_sum_recreation_sweeps(self, datasets):
        result = experiments.figure13_directed_sum_recreation(
            datasets["DC"], budget_factors=(1.5, 2.5), gith_windows=(5, 10)
        )
        refs = result["references"]
        for name in ("LMG", "MP", "LAST", "GitH"):
            series = result[name]
            assert isinstance(series, SweepSeries)
            assert series.points
            for point in series.points:
                # No algorithm can beat the reference bounds.
                assert point.storage_cost >= refs["mca_storage"] - 1e-6
                assert point.sum_recreation >= refs["spt_sum_recreation"] - 1e-6

    def test_lmg_dominates_gith_at_equal_storage(self, datasets):
        result = experiments.figure13_directed_sum_recreation(
            datasets["LC"], budget_factors=(1.5, 2.5, 4.0), gith_windows=(10,)
        )
        gith_point = result["GitH"].points[0]
        lmg_best = result["LMG"].best_sum_recreation_within(gith_point.storage_cost * 1.001)
        if lmg_best is not None:
            assert lmg_best <= gith_point.sum_recreation * 1.05

    def test_max_recreation_sweep(self, datasets):
        result = experiments.figure14_directed_max_recreation(
            datasets["LF"], budget_factors=(1.5, 2.5)
        )
        mp_series = result["MP"]
        assert min(mp_series.max_recreations) <= min(result["LAST"].max_recreations) + 1e-6


class TestFigure15(object):
    def test_undirected_sweeps(self):
        dataset = densely_connected(30, seed=7, directed=False, proportional=True)
        result = experiments.figure15_undirected(dataset, budget_factors=(1.5, 2.5))
        refs = result["references"]
        for name in ("LMG", "MP", "LAST"):
            for point in result[name].points:
                assert point.storage_cost >= refs["mca_storage"] - 1e-6


class TestFigure16(object):
    def test_workload_aware_never_worse(self, datasets):
        result = experiments.figure16_workload_aware(
            datasets["DC"], budget_factors=(1.5, 2.5), seed=3
        )
        for (budget_aware, aware), (budget_oblivious, oblivious) in zip(
            result["LMG-W"], result["LMG"]
        ):
            assert budget_aware == pytest.approx(budget_oblivious)
            assert aware <= oblivious + 1e-6


class TestFigure17(object):
    def test_running_times_reported_per_size(self, datasets):
        rows = experiments.figure17_running_times(datasets["LC"], sizes=(10, 20))
        assert len(rows) == 2
        assert rows[0]["num_versions"] == 10
        assert rows[1]["num_versions"] == 20
        for row in rows:
            for key in ("lmg_seconds", "mp_seconds", "last_seconds"):
                assert row[key] >= 0.0


class TestTable2(object):
    def test_ilp_vs_mp_rows(self):
        dataset = densely_connected(10, seed=5, hop_limit=0)
        instance = dataset.instance
        largest = max(
            instance.materialization_recreation(vid) for vid in instance.version_ids
        )
        rows = experiments.table2_ilp_vs_mp(instance, [largest, 2 * largest])
        assert len(rows) == 2
        for row in rows:
            assert row["ilp_storage"] <= row["mp_storage"] + 1e-6
            assert row["ilp_max_recreation"] <= row["theta"] + 1e-6
            assert row["mp_max_recreation"] <= row["theta"] + 1e-6

    def test_mp_only_mode(self):
        dataset = densely_connected(10, seed=6, hop_limit=0)
        instance = dataset.instance
        largest = max(
            instance.materialization_recreation(vid) for vid in instance.version_ids
        )
        rows = experiments.table2_ilp_vs_mp(instance, [2 * largest], use_milp=False)
        assert "ilp_storage" not in rows[0]
