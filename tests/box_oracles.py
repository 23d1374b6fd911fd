"""Reference counts of partitions in a box, independent of the library's."""

import functools


@functools.cache
def plain_box_count(n, k, r):
    """Partitions of r with at most k parts, each at most n: the plain
    recurrence on whether the partition has k parts, with no fold.  It
    recurses about r / k + k frames deep, so it serves small boxes."""
    if r < 0 or n < 0 or k < 0 or r > n * k:
        return 0
    if r == 0:
        return 1
    return plain_box_count(n, k - 1, r) + plain_box_count(n - 1, k, r - k)


def three_part_count(n, r):
    """Partitions of r with at most three parts, each at most n, counted
    directly: for each smallest part c, the middle part b runs from
    max(c, r - c - n) to (r - c) / 2."""
    return sum(max(0, (r - c) // 2 - max(c, r - c - n) + 1)
               for c in range(r // 3 + 1))
