"""Tests for the UNIX-style line diff encoders."""

from __future__ import annotations

import random

import pytest

from repro.delta.line_diff import (
    LineDiffEncoder,
    TwoWayLineDiffEncoder,
    lcs_table,
    line_operations,
)
from repro.exceptions import DeltaApplicationError


def random_lines(rng: random.Random, count: int) -> list[str]:
    return [f"row-{rng.randint(0, 30)}" for _ in range(count)]


def mutate(rng: random.Random, lines: list[str]) -> list[str]:
    result = list(lines)
    for _ in range(rng.randint(1, 6)):
        choice = rng.random()
        if choice < 0.4 and result:
            result[rng.randrange(len(result))] = f"changed-{rng.randint(0, 99)}"
        elif choice < 0.7:
            result.insert(rng.randrange(len(result) + 1), f"new-{rng.randint(0, 99)}")
        elif result:
            del result[rng.randrange(len(result))]
    return result


class TestLcsAndOperations:
    def test_lcs_table_simple(self):
        table = lcs_table(["a", "b", "c"], ["a", "c"])
        assert table[0][0] == 2

    def test_identical_sequences_produce_no_operations(self):
        assert line_operations(["a", "b"], ["a", "b"]) == []

    def test_pure_insertion(self):
        ops = line_operations(["a", "c"], ["a", "b", "c"])
        assert ops == [("insert", 1, ("b",))]

    def test_pure_deletion(self):
        ops = line_operations(["a", "b", "c"], ["a", "c"])
        assert ops == [("delete", 1, ("b",))]

    def test_replacement_groups_into_hunks(self):
        ops = line_operations(["a", "x", "y", "d"], ["a", "p", "q", "d"])
        kinds = [kind for kind, _, _ in ops]
        assert kinds == ["delete", "insert"]
        assert ops[0][2] == ("x", "y")
        assert ops[1][2] == ("p", "q")

    def test_empty_to_full(self):
        ops = line_operations([], ["a", "b"])
        assert ops == [("insert", 0, ("a", "b"))]

    def test_full_to_empty(self):
        ops = line_operations(["a", "b"], [])
        assert ops == [("delete", 0, ("a", "b"))]


class TestOneWayEncoder:
    @pytest.mark.parametrize("seed", range(8))
    def test_roundtrip_random(self, seed):
        rng = random.Random(seed)
        encoder = LineDiffEncoder()
        source = random_lines(rng, rng.randint(0, 60))
        target = mutate(rng, source)
        delta = encoder.diff(source, target)
        assert encoder.apply(source, delta) == target

    def test_accepts_strings(self):
        encoder = LineDiffEncoder()
        delta = encoder.diff("a\nb\nc", "a\nx\nc")
        assert encoder.apply("a\nb\nc", delta) == ["a", "x", "c"]

    def test_storage_cost_grows_with_changes(self):
        encoder = LineDiffEncoder()
        base = [f"line {i}" for i in range(50)]
        small_change = list(base)
        small_change[10] = "modified"
        big_change = [f"other {i}" for i in range(50)]
        assert (
            encoder.diff(base, small_change).storage_cost
            < encoder.diff(base, big_change).storage_cost
        )

    def test_identical_payloads_have_tiny_delta(self):
        encoder = LineDiffEncoder()
        base = [f"line {i}" for i in range(100)]
        delta = encoder.diff(base, list(base))
        assert delta.storage_cost == 0.0
        assert delta.metadata["num_hunks"] == 0

    def test_recreation_factor_scales_phi(self):
        base = [f"line {i}" for i in range(20)]
        target = base[:10] + ["x"] + base[10:]
        cheap = LineDiffEncoder(recreation_factor=1.0).diff(base, target)
        costly = LineDiffEncoder(recreation_factor=5.0).diff(base, target)
        assert costly.recreation_cost == pytest.approx(5.0 * cheap.recreation_cost)

    def test_wrong_encoder_rejected(self):
        one_way = LineDiffEncoder()
        two_way = TwoWayLineDiffEncoder()
        delta = two_way.diff(["a"], ["b"])
        with pytest.raises(DeltaApplicationError):
            one_way.apply(["a"], delta)

class TestTwoWayEncoder:
    @pytest.mark.parametrize("seed", range(8))
    def test_forward_and_reverse_roundtrip(self, seed):
        rng = random.Random(100 + seed)
        encoder = TwoWayLineDiffEncoder()
        source = random_lines(rng, rng.randint(0, 50))
        target = mutate(rng, source)
        delta = encoder.diff(source, target)
        assert encoder.apply(source, delta) == target
        assert encoder.apply_reverse(target, delta) == source

    def test_symmetric_flag(self):
        delta = TwoWayLineDiffEncoder().diff(["a"], ["b"])
        assert delta.symmetric
        assert not LineDiffEncoder().diff(["a"], ["b"]).symmetric

    def test_two_way_costs_at_least_one_way(self):
        source = [f"line {i}" for i in range(40)]
        target = source[:10] + ["x", "y"] + source[20:]
        one_way = LineDiffEncoder().diff(source, target)
        two_way = TwoWayLineDiffEncoder().diff(source, target)
        assert two_way.storage_cost >= one_way.storage_cost

    def test_apply_to_wrong_base_detected(self):
        encoder = TwoWayLineDiffEncoder()
        delta = encoder.diff(["a", "b", "c"], ["a", "c"])
        with pytest.raises(DeltaApplicationError):
            encoder.apply(["a", "x", "c"], delta)

    def test_materialize_costs_track_payload_size(self):
        encoder = TwoWayLineDiffEncoder()
        materialized = encoder.materialize(["abc", "defg"])
        # payload_size charges each line's length plus one separator byte.
        assert materialized.storage_cost == pytest.approx((3 + 1) + (4 + 1))


class TestWrongBase:
    """Deltas replayed onto a payload shorter than their base fail loudly."""

    @pytest.mark.parametrize("encoder", [LineDiffEncoder(), TwoWayLineDiffEncoder()])
    def test_insert_past_the_end_of_the_payload(self, encoder):
        source = [f"line {i}" for i in range(10)]
        delta = encoder.diff(source, source[:8] + ["x"] + source[8:])
        with pytest.raises(DeltaApplicationError, match="does not fit"):
            encoder.apply(["line 0", "line 1"], delta)

    @pytest.mark.parametrize("encoder", [LineDiffEncoder(), TwoWayLineDiffEncoder()])
    def test_delete_past_the_end_of_the_payload(self, encoder):
        delta = encoder.diff(["a", "b", "c", "d"], ["a"])
        with pytest.raises(DeltaApplicationError, match="extends past"):
            encoder.apply(["a", "b"], delta)
