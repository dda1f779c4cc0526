"""Unit tests for the addressable priority queue."""

from __future__ import annotations

import random

import pytest

from repro.algorithms.priority_queue import AddressablePriorityQueue


class TestBasicOperations:
    def test_push_pop_order(self):
        queue = AddressablePriorityQueue()
        queue.push("b", 2)
        queue.push("a", 1)
        queue.push("c", 3)
        assert queue.pop() == ("a", 1)
        assert queue.pop() == ("b", 2)
        assert queue.pop() == ("c", 3)

    def test_len_bool_contains(self):
        queue = AddressablePriorityQueue()
        assert not queue
        queue.push("x", 1)
        assert queue
        assert len(queue) == 1
        assert "x" in queue
        assert "y" not in queue

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            AddressablePriorityQueue().pop()

    def test_priority_lookup(self):
        queue = AddressablePriorityQueue()
        queue.push("a", 7)
        assert queue.priority("a") == 7
        with pytest.raises(KeyError):
            queue.priority("missing")

    def test_ties_broken_by_insertion_order(self):
        queue = AddressablePriorityQueue()
        queue.push("first", 1)
        queue.push("second", 1)
        assert queue.pop()[0] == "first"
        assert queue.pop()[0] == "second"


class TestUpdates:
    def test_decrease_key(self):
        queue = AddressablePriorityQueue()
        queue.push("a", 10)
        queue.push("b", 5)
        queue.push("a", 1)
        assert queue.pop() == ("a", 1)

    def test_increase_key(self):
        queue = AddressablePriorityQueue()
        queue.push("a", 1)
        queue.push("b", 5)
        queue.push("a", 10)
        assert queue.pop() == ("b", 5)
        assert queue.pop() == ("a", 10)

    def test_discard(self):
        queue = AddressablePriorityQueue()
        queue.push("a", 1)
        queue.push("b", 2)
        queue.discard("a")
        assert "a" not in queue
        assert queue.pop() == ("b", 2)
        queue.discard("nonexistent")  # no error

    def test_iteration_lists_members(self):
        queue = AddressablePriorityQueue()
        for name, priority in [("a", 3), ("b", 1), ("c", 2)]:
            queue.push(name, priority)
        assert set(queue) == {"a", "b", "c"}


class TestRandomizedAgainstSorting:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_heap_sort_equivalence(self, seed):
        rng = random.Random(seed)
        items = {f"item{i}": rng.random() for i in range(200)}
        queue = AddressablePriorityQueue()
        for key, priority in items.items():
            queue.push(key, priority)
        # Randomly update half the priorities.
        for key in rng.sample(list(items), 100):
            items[key] = rng.random()
            queue.push(key, items[key])
        drained = []
        while queue:
            drained.append(queue.pop())
        priorities = [priority for _, priority in drained]
        assert priorities == sorted(priorities)
        assert {key for key, _ in drained} == set(items)

    def test_interleaved_pop_push(self):
        rng = random.Random(7)
        queue = AddressablePriorityQueue()
        reference: dict[str, float] = {}
        for step in range(500):
            action = rng.random()
            if action < 0.6 or not reference:
                key = f"k{step}"
                priority = rng.random()
                queue.push(key, priority)
                reference[key] = priority
            elif action < 0.8:
                key = rng.choice(list(reference))
                priority = rng.random()
                queue.push(key, priority)
                reference[key] = priority
            else:
                key, priority = queue.pop()
                expected_key = min(reference, key=lambda k: reference[k])
                assert priority == reference[expected_key]
                del reference[key]
        while queue:
            key, priority = queue.pop()
            assert reference.pop(key) == priority
        assert not reference
