"""Tests for the access-frequency workload generators."""

from __future__ import annotations

import pytest

from repro.datagen.workload import normalize_workload, sample_accesses, zipfian_workload


IDS = [f"v{i}" for i in range(20)]


class TestZipfian:
    def test_covers_all_versions_with_positive_weights(self):
        workload = zipfian_workload(IDS, seed=1)
        assert set(workload) == set(IDS)
        assert all(weight > 0 for weight in workload.values())

    def test_exponent_controls_skew(self):
        mild = sorted(zipfian_workload(IDS, exponent=1.0, seed=2).values(), reverse=True)
        harsh = sorted(zipfian_workload(IDS, exponent=3.0, seed=2).values(), reverse=True)
        assert harsh[0] / harsh[-1] > mild[0] / mild[-1]

    def test_deterministic_for_seed(self):
        assert zipfian_workload(IDS, seed=5) == zipfian_workload(IDS, seed=5)

    def test_shuffle_false_favors_early_versions(self):
        workload = zipfian_workload(IDS, seed=0, shuffle=False)
        assert workload[IDS[0]] == max(workload.values())

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ValueError):
            zipfian_workload(IDS, exponent=0.0)


class TestNormalizeAndSample:
    def test_normalized_weights_sum_to_count(self):
        workload = normalize_workload(zipfian_workload(IDS, seed=3))
        assert sum(workload.values()) == pytest.approx(len(IDS))

    def test_uniform_is_fixed_point_of_normalization(self):
        workload = normalize_workload({vid: 1.0 for vid in IDS})
        assert all(weight == pytest.approx(1.0) for weight in workload.values())

    def test_normalize_rejects_zero_total(self):
        with pytest.raises(ValueError):
            normalize_workload({"a": 0.0})

    def test_sample_accesses_respects_distribution(self):
        workload = {"hot": 100.0, "cold": 1.0}
        trace = sample_accesses(workload, num_accesses=500, seed=1)
        assert len(trace) == 500
        assert trace.count("hot") > trace.count("cold")

    def test_sample_deterministic_for_seed(self):
        workload = zipfian_workload(IDS, seed=4)
        assert sample_accesses(workload, 50, seed=9) == sample_accesses(workload, 50, seed=9)
