"""Set partition enumeration via restricted growth strings."""
from __future__ import annotations

from typing import Iterator, List, Sequence, TypeVar

T = TypeVar("T")


def set_partitions(elements: Sequence[T]) -> Iterator[List[List[T]]]:
    """Yield every partition of `elements` into nonempty blocks.

    Blocks appear in order of their smallest element, so each partition
    is produced exactly once.  The empty sequence yields one empty
    partition.
    """
    n = len(elements)
    if n == 0:
        yield []
        return
    # code[i] = block index of element i; code[0] = 0 and
    # code[i] <= max(code[:i]) + 1
    code = [0] * n

    def emit() -> List[List[T]]:
        k = max(code) + 1
        blocks: List[List[T]] = [[] for _ in range(k)]
        for i, c in enumerate(code):
            blocks[c].append(elements[i])
        return blocks

    def rec(i: int, top: int) -> Iterator[List[List[T]]]:
        if i == n:
            yield emit()
            return
        for c in range(top + 2):
            code[i] = c
            yield from rec(i + 1, max(top, c))

    yield from rec(1, 0)
