"""Tests for the cell-level tabular delta encoder."""

from __future__ import annotations

import random

import pytest

from repro.delta.cell_diff import CellDiffEncoder
from repro.exceptions import DeltaApplicationError


def random_table(rng: random.Random, rows: int, columns: int) -> list[list[str]]:
    return [[str(rng.randint(0, 99)) for _ in range(columns)] for _ in range(rows)]


def mutate_table(rng: random.Random, table: list[list[str]]) -> list[list[str]]:
    result = [list(row) for row in table]
    for _ in range(rng.randint(1, 5)):
        choice = rng.random()
        if choice < 0.4 and result:
            row = rng.randrange(len(result))
            if result[row]:
                result[row][rng.randrange(len(result[row]))] = f"m{rng.randint(0, 99)}"
        elif choice < 0.6:
            position = rng.randrange(len(result) + 1)
            width = len(result[0]) if result else 3
            result.insert(position, [f"n{rng.randint(0, 99)}" for _ in range(width)])
        elif choice < 0.8 and len(result) > 1:
            del result[rng.randrange(len(result))]
        elif result:
            for row in result:
                row.append(f"c{rng.randint(0, 9)}")
    return result


class TestCellDiff:
    def test_identical_tables_empty_delta(self):
        encoder = CellDiffEncoder()
        table = [["1", "2"], ["3", "4"]]
        delta = encoder.diff(table, table)
        assert delta.storage_cost == 0.0
        assert encoder.apply(table, delta) == table

    def test_single_cell_change(self):
        encoder = CellDiffEncoder()
        source = [["a", "b"], ["c", "d"]]
        target = [["a", "x"], ["c", "d"]]
        delta = encoder.diff(source, target)
        assert delta.metadata["num_operations"] == 1
        assert encoder.apply(source, delta) == target

    def test_row_insertion_and_deletion(self):
        encoder = CellDiffEncoder()
        source = [["1", "1"], ["2", "2"], ["3", "3"]]
        shorter = [["1", "1"], ["2", "2"]]
        longer = source + [["4", "4"]]
        assert encoder.apply(source, encoder.diff(source, shorter)) == shorter
        assert encoder.apply(source, encoder.diff(source, longer)) == longer

    def test_column_addition(self):
        encoder = CellDiffEncoder()
        source = [["a"], ["b"]]
        target = [["a", "x"], ["b", "y"]]
        assert encoder.apply(source, encoder.diff(source, target)) == target

    def test_column_removal(self):
        encoder = CellDiffEncoder()
        source = [["a", "x"], ["b", "y"]]
        target = [["a"], ["b"]]
        assert encoder.apply(source, encoder.diff(source, target)) == target

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip_random(self, seed):
        rng = random.Random(seed)
        encoder = CellDiffEncoder()
        source = random_table(rng, rng.randint(1, 20), rng.randint(1, 6))
        target = mutate_table(rng, source)
        delta = encoder.diff(source, target)
        assert encoder.apply(source, delta) == target

    def test_cost_scales_with_amount_of_change(self):
        encoder = CellDiffEncoder()
        base = [[str(i), str(i)] for i in range(30)]
        one_change = [list(row) for row in base]
        one_change[5][0] = "x"
        many_changes = [[f"y{i}", f"z{i}"] for i in range(30)]
        assert (
            encoder.diff(base, one_change).storage_cost
            < encoder.diff(base, many_changes).storage_cost
        )

    def test_non_string_cells_normalized(self):
        encoder = CellDiffEncoder()
        source = [[1, 2], [3, 4]]
        target = [[1, 2], [3, 5]]
        result = encoder.apply(source, encoder.diff(source, target))
        assert result == [["1", "2"], ["3", "5"]]

    def test_recreation_cost_positive_for_changes(self):
        encoder = CellDiffEncoder()
        delta = encoder.diff([["a"]], [["b"]])
        assert delta.recreation_cost > 0


def test_cell_change_on_a_missing_row_is_rejected():
    encoder = CellDiffEncoder()
    source = [[str(row), "x"] for row in range(5)]
    target = [list(row) for row in source]
    target[4][1] = "changed"
    delta = encoder.diff(source, target)
    assert encoder.apply(source, delta) == target
    with pytest.raises(DeltaApplicationError, match="missing row 4"):
        encoder.apply(source[:2], delta)
