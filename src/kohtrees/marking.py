"""Markings: picking single coefficients out of products of q-integers.

A marking of a leaf sequence (a_1, ..., a_t) is a weakly increasing
vector k_1 <= ... <= k_t with k_1 = 0 whose steps obey

    k_{i+1} - k_i  <=  min(a_1 + ... + a_i - 2 k_i,  a_{i+1}).

The number of markings ending at k_t = k equals c_k - c_{k-1}, where
c_r is the coefficient of q^r in the product of the [a_i + 1]_q, valid
up to the symmetry center k <= (a_1 + ... + a_t) / 2.  Summed over the
leaf sequences of an expansion tree family, with each tree's target
shifted by its power of q, the counts give one coefficient difference
of the family's polynomial.  marked_counts gives the terms of that sum,
tree by tree, for every r of a range; the coefficients module checks
the range and adds them up.

One DP counts markings.  It reads the leaves in order and keeps the
number of markings ending at each value 0..top, top capped by half the
prefix sum read so far, since a marking value never exceeds it.  A
state v moves to every value of one interval, so a step adds its ways
over those intervals through a difference array and one running sum.

- count_markings(a, target) counts one final value: it runs the DP over
  all leaves but the last with top = target, then sums the values the
  last step can leave at target.  A target past half the leaf sum
  counts 0 before any table is allocated.
- marked_counts reads a range of r from one table per tree.  A tree's
  target at r is r minus its power shift, so the table run up to the
  last r's target, shifted by that power, lines up with the range.  For
  a single r (a coefficient query or a marked listing) it calls
  count_markings, whose table stops at the one target and leaves out
  the last leaf.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from .errors import PreconditionViolationError


def _check_leaves(a: Sequence[int]) -> None:
    if not a:
        raise PreconditionViolationError("marking needs a nonempty leaf sequence")
    if min(a) < 0:
        raise PreconditionViolationError(f"leaf labels must be nonnegative, got {tuple(a)}")


def _value_counts(a: Sequence[int], top: int) -> list[int]:
    """Number of markings of a ending at each value 0..min(top, sum(a) // 2),
    or at 0 alone for a single leaf; values past the end count 0.

    >>> _value_counts((1, 1, 1, 1), 5)
    [1, 3, 2]
    """
    _check_leaves(a)
    if top < 0:
        return []
    # dp[v]: markings of the leaves read so far whose last value is v
    dp = [1]
    prefix = a[0]
    for nxt in a[1:]:
        # no step reaches past half the new prefix sum
        hi = min(top, (prefix + nxt) // 2)
        diff = [0] * (hi + 2)
        for v, ways in enumerate(dp):
            if ways:
                diff[v] += ways
                diff[min(v + min(prefix - 2 * v, nxt), hi) + 1] -= ways
        diff.pop()
        dp = list(itertools.accumulate(diff))
        prefix += nxt
    return dp


def count_markings(a: Sequence[int], target: int) -> int:
    """Number of markings of a with final value target.

    Infeasible targets (negative, past half the leaf sum, unreachable,
    or nonzero with a single leaf) simply count 0.

    >>> count_markings((1, 1, 1, 1), 1)
    3
    """
    _check_leaves(a)
    if target < 0 or 2 * target > sum(a):
        return 0
    if len(a) == 1:
        return int(target == 0)
    dp = _value_counts(a[:-1], target)
    prefix = sum(a) - a[-1]
    # the last step must land on target: v >= target - a_last and
    # target - v <= prefix - 2v
    return sum(dp[max(0, target - a[-1]):max(0, prefix - target + 1)])


def enumerate_markings(a: Sequence[int], target: int) -> tuple[tuple[int, ...], ...]:
    """All markings with final value target, lexicographically increasing."""
    _check_leaves(a)
    if target < 0:
        return ()
    t = len(a)
    found: list[tuple[int, ...]] = []

    def extend(ks: list[int], prefix: int) -> None:
        i = len(ks)
        if i == t:
            if ks[-1] == target:
                found.append(tuple(ks))
            return
        v = ks[-1]
        hi = min(v + min(prefix - 2 * v, a[i]), target)
        for w in range(v, hi + 1):
            ks.append(w)
            extend(ks, prefix + a[i])
            ks.pop()

    extend([0], a[0])
    return tuple(found)


def marking_target(leaf_sum: int, total: int, r: int) -> int:
    """Final marking value that singles out coefficient r.

    total is the degree a*b of the tree type; the defect total - leaf_sum
    must be even (it is twice the power shift of the tree's term).
    """
    if (total - leaf_sum) % 2:
        raise PreconditionViolationError(
            f"defect {total} - {leaf_sum} is odd; no marking target exists")
    return r - (total - leaf_sum) // 2


def marked_counts(leaf_lists: Iterable[Sequence[int]], total: int,
                  rs: range) -> tuple[tuple[int, ...], ...]:
    """For each r in rs, the number of markings of each tree that select
    coefficient r, trees in order.

    rs is a range of consecutive r with 0 <= r <= total/2, which the
    caller checks.  Each tree contributes the markings of its leaf
    sequence at the tree's own target, r minus its power shift.  With
    more than one r, one value table per tree, padded by the shift, is
    read at every r; with one r, count_markings counts that target alone.
    """
    if len(rs) == 1:
        (r,) = rs
        return (tuple(count_markings(ls, marking_target(sum(ls), total, r))
                      for ls in leaf_lists),)
    rows = []
    for ls in leaf_lists:
        shift = rs[0] - marking_target(sum(ls), total, rs[0])
        row = [0] * shift + _value_counts(ls, rs[-1] - shift)
        # a one-leaf table stops at value 0; the r past it count 0
        row += [0] * (rs[-1] + 1 - len(row))
        rows.append(row[rs[0]:rs[-1] + 1])
    return tuple(zip(*rows)) if rows else tuple(() for _ in rs)
