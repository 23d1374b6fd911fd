"""Integer partitions, the statistics the tree expansions consume, and the
counts of partitions in a box that the rectangle difference reads, from
the product formula of the Gaussian binomial."""

from __future__ import annotations

import functools
import math
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
def _partition_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    # each partition from the one before it: lower the last part above 1
    # by one, then refill what it and the trailing 1s held with parts as
    # large as the lowered one allows
    if n == 0:
        return ((),)
    rows = []
    parts = [n]
    while True:
        rows.append(tuple(parts))
        rest = 0
        while parts and parts[-1] == 1:
            parts.pop()
            rest += 1
        if not parts:
            return tuple(rows)
        parts[-1] -= 1
        top = parts[-1]
        rest += 1
        while rest > top:
            parts.append(top)
            rest -= top
        parts.append(rest)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in lexicographically decreasing order.

    >>> [p.parts for p in enumerate_partitions(4)]
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative number: {n}")
    return [Partition(t) for t in _partition_tuples(n)]


def rectangle_counts(n: int, k: int, top: int) -> list[int]:
    """Numbers of partitions of 0..top with at most k parts, each at most n.

    These are the coefficients of q^0..q^top in the Gaussian binomial
    [n + k choose k]_q, read from its product formula: with m = min(n, k)
    and N = max(n, k), the product over i = 1..m of
    (1 - q^(N + i)) / (1 - q^i), on one row of counts packed one slot per
    size 0..top into one int.  A factor with i > top is 1 up to q^top.
    For each i the row is first divided by 1 - q^i, that is multiplied
    by (1 + q^i)(1 + q^(2i))(1 + q^(4i))... while the exponent is at most
    top, and then multiplied by 1 - q^(N + i) when N + i <= top.  Each
    factor is one shift, cut at top, and one add or subtract:
    sum over i <= min(m, top) of floor(log2(top / i)) + 2 operations, with
    no recursion.  Dividing first keeps every slot nonnegative: before
    the subtraction a slot holds a sum of distinct coefficients of
    [N + i - 1 choose i - 1]_q, at most C(N + i - 1, i - 1), and after it
    a coefficient of [N + i choose i]_q.  So a slot as wide as
    C(n + k, k) never carries into the next one or borrows from it.
    This shares nothing with the q-Pascal recurrence of q_binomial, so
    each checks the other.

    >>> rectangle_counts(2, 2, 4)
    [1, 1, 2, 1, 1]
    """
    if top < 0:
        return []
    width = (math.comb(n + k, k).bit_length() + 7) // 8
    step = 8 * width
    mask = (1 << step * (top + 1)) - 1
    big = max(n, k)
    row = 1
    for i in range(1, min(n, k, top) + 1):
        power = i
        while power <= top:
            row += (row << step * power) & mask
            power *= 2
        if big + i <= top:
            row -= (row << step * (big + i)) & mask
    packed = row.to_bytes(width * (top + 1), "little")
    return [int.from_bytes(packed[i:i + width], "little")
            for i in range(0, len(packed), width)]


@functools.cache
def count_in_rectangle(n: int, k: int, r: int) -> int:
    """Number of partitions of r with at most k parts, each at most n.

    Box complement (the symmetry of Gaussian coefficients) first folds r
    past the middle onto nk - r, so the row that rectangle_counts builds
    runs only to the lower half of the box.  A query that needs several
    r of one box reads them from one rectangle_counts row instead.

    >>> count_in_rectangle(2, 2, 2)
    2
    """
    if r < 0 or n < 0 or k < 0 or r > n * k:
        return 0
    r = min(r, n * k - r)
    return rectangle_counts(n, k, r)[r]
