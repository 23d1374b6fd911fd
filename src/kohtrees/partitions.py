"""Integer partitions and the statistics the tree expansions consume."""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator


class Partition:
    """A weakly decreasing tuple of positive parts; () is the empty one.

    >>> Partition((4, 3, 1, 1)).conjugate()
    Partition([4, 2, 2, 1])
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()) -> None:
        ps = tuple(parts)
        for i, p in enumerate(ps):
            if type(p) is not int or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
            if i and ps[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {ps}")
        self.parts = ps

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def conjugate(self) -> Partition:
        """Transpose of the diagram: column lengths become parts."""
        if not self.parts:
            return Partition()
        return Partition(tuple(sum(1 for p in self.parts if p >= j)
                               for j in range(1, self.parts[0] + 1)))

    def mult(self, j: int) -> int:
        """Number of parts equal to j; j must be at least 1.

        >>> Partition((4, 4, 3, 2, 2, 2)).mult(2)
        3
        """
        if j < 1:
            raise ValueError(f"row length must be at least 1, got {j}")
        return sum(1 for p in self.parts if p == j)

    def distinct_parts(self) -> tuple[int, ...]:
        """The distinct part sizes, ascending."""
        return tuple(sorted(set(self.parts)))

    def b_stat(self) -> int:
        """Row-weighted sum: 0*parts[0] + 1*parts[1] + 2*parts[2] + ...

        >>> Partition((4, 3, 1, 1)).b_stat()
        8
        """
        return sum(i * p for i, p in enumerate(self.parts))

    def q_stat(self, j: int) -> int:
        """Sum of the first j conjugate parts, i.e. sum of min(part, j)."""
        if j < 0:
            raise ValueError(f"column count must be nonnegative, got {j}")
        return sum(min(p, j) for p in self.parts)


@functools.cache
def _bounded(n: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    rows: list[tuple[int, ...]] = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _bounded(n - first, first):
            rows.append((first,) + rest)
    return tuple(rows)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in lexicographically decreasing order.

    >>> [p.parts for p in enumerate_partitions(4)]
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative number: {n}")
    return [Partition(t) for t in _bounded(n, n)]


@functools.cache
def count_in_rectangle(n: int, k: int, r: int) -> int:
    """Number of partitions of r with at most k parts, each at most n.

    Same recurrence that builds q_binomial, implemented independently on
    scalar counts: split on whether the partition has k parts.  Box
    complement (the symmetry of Gaussian coefficients) first folds r past
    the middle onto nk - r, so the recurrence runs only on the lower half
    of each box: a call past the middle is one cache entry that goes
    straight on to its mirror.  A k = 1 chain with 2r <= n never takes
    the fold: the states it reaches are (n - i, 1, r - i), which keep
    2r <= n, and (n - i, 0, r - i).

    >>> count_in_rectangle(2, 2, 2)
    2
    """
    if r < 0 or n < 0 or k < 0 or r > n * k:
        return 0
    if 2 * r > n * k:
        r = n * k - r
    if r == 0:
        return 1
    return count_in_rectangle(n, k - 1, r) + count_in_rectangle(n - 1, k, r - k)
