"""Tests for the naive, SVN skip-delta and gzip baselines."""

from __future__ import annotations

import pytest

from repro.algorithms.mst import minimum_storage_plan
from repro.baselines.gzip_baseline import gzip_cost_report
from repro.baselines.naive import materialize_all_plan
from repro.baselines.svn_skip_delta import skip_delta_parent_index, svn_skip_delta_report

from tests.helpers import build_chain_instance


class TestNaiveBaselines:
    def test_materialize_all(self, small_dc):
        instance = small_dc.instance
        plan = materialize_all_plan(instance)
        plan.validate(instance)
        metrics = plan.evaluate(instance)
        assert metrics.num_materialized == len(instance)
        assert metrics.storage_cost == pytest.approx(
            sum(instance.materialization_storage(vid) for vid in instance.version_ids)
        )

class TestSkipDelta:
    def test_parent_index_rule(self):
        # revision -> revision with lowest set bit cleared
        assert skip_delta_parent_index(0) == -1
        assert skip_delta_parent_index(1) == 0
        assert skip_delta_parent_index(2) == 0
        assert skip_delta_parent_index(3) == 2
        assert skip_delta_parent_index(4) == 0
        assert skip_delta_parent_index(6) == 4
        assert skip_delta_parent_index(7) == 6
        assert skip_delta_parent_index(8) == 0

    def test_chain_length_is_logarithmic(self, small_lc):
        report = svn_skip_delta_report(small_lc.instance)
        assert report.max_chain_length <= len(small_lc.instance).bit_length()

    def test_report_plan_is_valid_when_no_estimation_needed(self):
        instance = build_chain_instance(8, full_size=100, delta_size=5)
        report = svn_skip_delta_report(instance)
        # Skip deltas between non-adjacent revisions get estimated, so the
        # realized storage must be at least the MCA storage.
        mca_cost = minimum_storage_plan(instance).storage_cost(instance)
        assert report.storage_cost >= mca_cost - 1e-6

    def test_skip_delta_uses_more_storage_than_mca(self, small_lc):
        # The paper's Section 5.2 observation: SVN's redundancy costs space.
        instance = small_lc.instance
        report = svn_skip_delta_report(instance)
        mca_cost = minimum_storage_plan(instance).storage_cost(instance)
        assert report.storage_cost >= mca_cost - 1e-6

    def test_report_dict_fields(self, small_bf):
        report = svn_skip_delta_report(small_bf.instance).as_dict()
        for key in ("storage_cost", "sum_recreation", "max_recreation", "max_chain_length"):
            assert key in report


class TestGzipBaseline:
    def test_cost_report_scales_with_ratio(self, small_dc):
        instance = small_dc.instance
        low = gzip_cost_report(instance, compression_ratio=2.0)
        high = gzip_cost_report(instance, compression_ratio=4.0)
        assert high.storage_cost == pytest.approx(low.storage_cost / 2.0)
        assert high.sum_recreation == pytest.approx(low.sum_recreation)

    def test_invalid_ratio_rejected(self, small_dc):
        with pytest.raises(ValueError):
            gzip_cost_report(small_dc.instance, compression_ratio=0.0)

    def test_gzip_stores_more_than_mca_on_near_duplicates(self, small_bf):
        # Independent compression cannot exploit cross-version redundancy.
        instance = small_bf.instance
        report = gzip_cost_report(instance, compression_ratio=3.0)
        mca_cost = minimum_storage_plan(instance).storage_cost(instance)
        assert report.storage_cost > mca_cost
