"""An addressable binary-heap priority queue with decrease-key.

Prim's algorithm, Dijkstra's algorithm and the paper's Modified Prim variant
all need a priority queue that supports updating the priority of an element
already in the queue.  The standard library ``heapq`` does not, so this
module implements a small indexed binary heap from scratch (part of the
"build the substrate" requirement).

Keys may be arbitrary comparable values; ties are broken by insertion order
so the queues behave deterministically, which keeps all experiments
reproducible.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterator, TypeVar

__all__ = ["AddressablePriorityQueue"]

T = TypeVar("T", bound=Hashable)


class AddressablePriorityQueue(Generic[T]):
    """Min-heap keyed by a comparable priority, addressable by item.

    Operations
    ----------
    push(item, priority)
        Insert a new item or update an existing one (either direction).
    pop()
        Remove and return ``(item, priority)`` with the smallest priority.
    priority(item)
        Current priority of ``item`` (raises ``KeyError`` when absent).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[object, int, T]] = []  # (priority, tiebreak, item)
        self._position: dict[T, int] = {}
        self._counter = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __contains__(self, item: T) -> bool:
        return item in self._position

    def __iter__(self) -> Iterator[T]:
        return iter(list(self._position))

    def priority(self, item: T) -> object:
        """Return the current priority of ``item``."""
        index = self._position[item]
        return self._heap[index][0]

    def push(self, item: T, priority: object) -> None:
        """Insert ``item`` or change its priority (up or down)."""
        if item in self._position:
            index = self._position[item]
            old_priority, tiebreak, _ = self._heap[index]
            self._heap[index] = (priority, tiebreak, item)
            if priority < old_priority:  # type: ignore[operator]
                self._sift_up(index)
            else:
                self._sift_down(index)
            return
        self._counter += 1
        self._heap.append((priority, self._counter, item))
        index = len(self._heap) - 1
        self._position[item] = index
        self._sift_up(index)

    def pop(self) -> tuple[T, object]:
        """Remove and return the ``(item, priority)`` with smallest priority."""
        if not self._heap:
            raise IndexError("pop from an empty priority queue")
        priority, _, item = self._heap[0]
        last = self._heap.pop()
        del self._position[item]
        if self._heap:
            self._heap[0] = last
            self._position[last[2]] = 0
            self._sift_down(0)
        return item, priority

    def discard(self, item: T) -> None:
        """Remove ``item`` if present (no error when absent)."""
        index = self._position.pop(item, None)
        if index is None:
            return
        last = self._heap.pop()
        if index < len(self._heap):
            self._heap[index] = last
            self._position[last[2]] = index
            self._sift_down(index)
            self._sift_up(index)

    # ------------------------------------------------------------------ #
    # heap mechanics
    # ------------------------------------------------------------------ #
    def _less(self, a: int, b: int) -> bool:
        pa, ta, _ = self._heap[a]
        pb, tb, _ = self._heap[b]
        if pa == pb:
            return ta < tb
        return pa < pb  # type: ignore[operator]

    def _swap(self, a: int, b: int) -> None:
        self._heap[a], self._heap[b] = self._heap[b], self._heap[a]
        self._position[self._heap[a][2]] = a
        self._position[self._heap[b][2]] = b

    def _sift_up(self, index: int) -> None:
        while index > 0:
            parent = (index - 1) // 2
            if self._less(index, parent):
                self._swap(index, parent)
                index = parent
            else:
                break

    def _sift_down(self, index: int) -> None:
        size = len(self._heap)
        while True:
            left = 2 * index + 1
            right = left + 1
            smallest = index
            if left < size and self._less(left, smallest):
                smallest = left
            if right < size and self._less(right, smallest):
                smallest = right
            if smallest == index:
                return
            self._swap(index, smallest)
            index = smallest
