"""Unit tests for :mod:`repro.core.matrices`."""

from __future__ import annotations

import pytest

from repro.core.matrices import CostMatrix, CostModel
from repro.exceptions import InvalidCostError, MissingDeltaError


class TestCostMatrix:
    def test_set_and_get(self):
        matrix = CostMatrix()
        matrix.set("a", "b", 5.0)
        assert matrix["a", "b"] == 5.0
        assert matrix.get("a", "b") == 5.0

    def test_missing_entry_raises(self):
        matrix = CostMatrix()
        with pytest.raises(MissingDeltaError):
            _ = matrix["a", "b"]

    def test_get_default(self):
        matrix = CostMatrix()
        assert matrix.get("a", "b") is None
        assert matrix.get("a", "b", 7.0) == 7.0

    def test_symmetric_mirror(self):
        matrix = CostMatrix(symmetric=True)
        matrix.set("a", "b", 3.0)
        assert matrix["b", "a"] == 3.0

    def test_asymmetric_does_not_mirror(self):
        matrix = CostMatrix(symmetric=False)
        matrix.set("a", "b", 3.0)
        assert matrix.get("b", "a") is None

    def test_diagonal(self):
        matrix = CostMatrix()
        matrix.set_diagonal("a", 10.0)
        assert matrix["a", "a"] == 10.0
        assert ("a", "a") in matrix

    def test_negative_cost_rejected(self):
        matrix = CostMatrix()
        with pytest.raises(InvalidCostError):
            matrix.set("a", "b", -1.0)

    def test_nan_cost_rejected(self):
        matrix = CostMatrix()
        with pytest.raises(InvalidCostError):
            matrix.set("a", "b", float("nan"))

    def test_discard(self):
        matrix = CostMatrix(symmetric=True)
        matrix.set("a", "b", 2.0)
        matrix.discard("a", "b")
        assert matrix.get("a", "b") is None
        assert matrix.get("b", "a") is None
        matrix.discard("x", "y")  # no error on missing

    def test_len_and_num_deltas(self):
        matrix = CostMatrix()
        matrix.set_diagonal("a", 1.0)
        matrix.set("a", "b", 2.0)
        matrix.set("b", "c", 3.0)
        assert len(matrix) == 3
        assert matrix.num_deltas() == 2

    def test_items_and_rows(self):
        matrix = CostMatrix()
        matrix.set("a", "b", 2.0)
        matrix.set("a", "c", 3.0)
        assert matrix.row("a") == {"b": 2.0, "c": 3.0}
        assert dict(matrix.items()) == {("a", "b"): 2.0, ("a", "c"): 3.0}
        assert dict(matrix.off_diagonal_items()) == {("a", "b"): 2.0, ("a", "c"): 3.0}

    def test_version_ids_includes_targets(self):
        matrix = CostMatrix()
        matrix.set("a", "b", 2.0)
        assert matrix.version_ids() == {"a", "b"}

    def test_copy_is_independent(self):
        matrix = CostMatrix()
        matrix.set("a", "b", 2.0)
        clone = matrix.copy()
        clone.set("a", "b", 9.0)
        assert matrix["a", "b"] == 2.0

    def test_update_merges(self):
        base = CostMatrix()
        base.set("a", "b", 1.0)
        other = CostMatrix()
        other.set("b", "c", 2.0)
        base.update(other)
        assert base["b", "c"] == 2.0

    def test_constructor_with_entries(self):
        matrix = CostMatrix({("a", "a"): 1.0, ("a", "b"): 2.0})
        assert matrix["a", "a"] == 1.0
        assert matrix["a", "b"] == 2.0


class TestCostModel:
    def test_scenario_numbers(self):
        assert CostModel(directed=False, phi_equals_delta=True).scenario == 1
        assert CostModel(directed=True, phi_equals_delta=True).scenario == 2
        assert CostModel(directed=True, phi_equals_delta=False).scenario == 3

    def test_proportional_shares_matrix(self):
        model = CostModel(directed=True, phi_equals_delta=True)
        model.set_delta("a", "b", 5.0)
        assert model.phi["a", "b"] == 5.0
        assert model.phi is model.delta

    def test_independent_phi(self):
        model = CostModel(directed=True, phi_equals_delta=False)
        model.set_delta("a", "b", 5.0, 12.0)
        assert model.delta["a", "b"] == 5.0
        assert model.phi["a", "b"] == 12.0

    def test_default_recreation_equals_storage(self):
        model = CostModel(directed=True, phi_equals_delta=False)
        model.set_materialization("a", 100.0)
        model.set_delta("a", "b", 5.0)
        assert model.phi["a", "a"] == 100.0
        assert model.phi["a", "b"] == 5.0

    def test_undirected_model_is_symmetric(self):
        model = CostModel(directed=False, phi_equals_delta=True)
        model.set_delta("a", "b", 5.0)
        assert model.delta["b", "a"] == 5.0

    def test_set_materialization_via_diagonal_guard(self):
        model = CostModel()
        with pytest.raises(InvalidCostError):
            model.set_delta("a", "a", 1.0)

    def test_has_delta_and_revealed_edges(self):
        model = CostModel()
        model.set_delta("a", "b", 1.0, 2.0)
        assert model.has_delta("a", "b")
        assert not model.has_delta("b", "a")
        assert list(model.delta.off_diagonal_items()) == [(("a", "b"), 1.0)]

    def test_copy_independent(self):
        model = CostModel(directed=True, phi_equals_delta=False)
        model.set_materialization("a", 10.0)
        model.set_delta("a", "b", 1.0, 2.0)
        clone = model.copy()
        clone.set_delta("a", "b", 9.0, 9.0)
        assert model.delta["a", "b"] == 1.0
        assert clone.scenario == model.scenario

    def test_copy_proportional_keeps_sharing(self):
        model = CostModel(directed=True, phi_equals_delta=True)
        model.set_delta("a", "b", 1.0)
        clone = model.copy()
        assert clone.phi is clone.delta
