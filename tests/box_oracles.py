"""Reference counts of partitions in a box, independent of the library's."""

import functools
import math


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


def parts_by_size_row(n, k, top):
    """Partitions of 0..top with at most k parts, each at most n, with
    parts added by size, bottom up, on one row of counts per number of
    parts c: rows[c] holds the partitions with exactly c parts, packed
    one slot per size into one int.  Part j joins a partition with c - 1
    parts as rows[c] += rows[c - 1] << j slots, cut at top; taking c in
    ascending order lets part j repeat.  Every slot counts a subset of
    the C(n + k, k) partitions in the box, so a slot that wide never
    carries.  No product formula and no recursion, so it checks the
    library's row on boxes of any shape."""
    if top < 0:
        return []
    width = (math.comb(n + k, k).bit_length() + 7) // 8
    step = 8 * width
    mask = (1 << step * (top + 1)) - 1
    rows = [1] + [0] * min(k, top)
    for j in range(1, min(n, top) + 1):
        shift = step * j
        for c in range(1, min(k, top - j + 1) + 1):
            rows[c] += (rows[c - 1] << shift) & mask
    packed = sum(rows).to_bytes(width * (top + 1), "little")
    return [int.from_bytes(packed[i:i + width], "little")
            for i in range(0, len(packed), width)]
