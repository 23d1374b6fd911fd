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
number of markings ending at each value 0..cap, cut at half the prefix
sum read so far, since a marking value never exceeds it.  A state v
moves to every value of one interval, so a step adds its ways over
those intervals through a difference array and one running sum.

The DP rows live in a prefix table: the rows of the last leaf sequence
it served, one per leaf.  A row depends only on the leaves up to it,
so the next sequence keeps the rows of the prefix it shares with that
one and computes only the rows past it.  Trees come in enumeration
order, where later edges vary fastest, so most of a tree's rows are
already there.  Cutting rows at a cap changes none of the values below
it, so rows capped above a target serve it as long as the last step
stops at the target; a target above the cap raises it and drops every
row.

- count_markings(a, target) counts one final value from the row of all
  leaves but the last, summing the values the last step can leave at
  target.  A target past half the leaf sum counts 0 before any row is
  read.  Without a table it builds a fresh one capped at the target.
- marked_counts owns one table for one call, capped at the call's
  largest r, which no tree's target passes, and drops it on return, so
  no DP state outlives a call or is shared between threads.  For a
  single r (a coefficient query or a marked listing) it calls
  count_markings once per tree with that table.  For a range of r it
  reads each tree's full row from the table: a tree's target at r is r
  minus its power shift, so the row, shifted by that power, lines up
  with the range.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

from .errors import PreconditionViolationError


def _check_leaves(a: Sequence[int]) -> None:
    if not a:
        raise PreconditionViolationError("marking needs a nonempty leaf sequence")
    if min(a) < 0:
        raise PreconditionViolationError(f"leaf labels must be nonnegative, got {tuple(a)}")


class _PrefixTable:
    """The DP rows of the last leaf sequence served, kept for the next one.

    rows[i] counts the markings of leaves[:i + 1] by final value, up to
    min(cap, half that prefix's leaf sum).  A row depends only on its
    prefix and the cap, so a new sequence keeps the rows of its longest
    common prefix with the last one and computes the rest; rows[0], the
    one marking of a single leaf, holds for every sequence.  Values
    below a cap never depend on the values above it, so a row capped at
    cap is exact at every top <= cap; a top above the cap raises the cap
    and drops every row past rows[0].
    """

    __slots__ = ("cap", "leaves", "rows")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.leaves: Sequence[int] = ()
        self.rows = [[1]]

    def row(self, a: Sequence[int], t: int, top: int) -> list[int]:
        """Markings of a[:t] by final value, exact at 0..min(top, half its
        leaf sum) and possibly longer; t >= 1, and the caller must not
        change the list."""
        rows = self.rows
        if t == 1:
            return rows[0]
        if top > self.cap:
            self.cap, self.leaves = top, ()
        # rows[i] stays while a agrees with the last sequence through leaf i
        keep = 0
        for old, new in zip(self.leaves, a):
            if old != new:
                break
            keep += 1
        del rows[max(keep, 1):]
        self.leaves = tuple(a)
        n = len(rows)
        if n >= t:
            return rows[t - 1]
        cap, dp, prefix = self.cap, rows[-1], sum(a[:n])
        for nxt in a[n:t]:
            # no step reaches past half the new prefix sum
            hi = min(cap, (prefix + nxt) // 2)
            diff = [0] * (hi + 2)
            for v, ways in enumerate(dp):
                if ways:
                    diff[v] += ways
                    diff[min(v + min(prefix - 2 * v, nxt), hi) + 1] -= ways
            diff.pop()
            dp = list(itertools.accumulate(diff))
            prefix += nxt
            rows.append(dp)
        return rows[t - 1]


def _value_counts(a: Sequence[int], top: int,
                  table: _PrefixTable | None = None) -> list[int]:
    """Number of markings of a ending at each value 0..min(top, sum(a) // 2),
    or at 0 alone for a single leaf; values past the end count 0.  table,
    when given, serves the row, as for count_markings.

    >>> _value_counts((1, 1, 1, 1), 5)
    [1, 3, 2]
    """
    _check_leaves(a)
    if top < 0:
        return []
    return (table or _PrefixTable(top)).row(a, len(a), top)[:top + 1]


def count_markings(a: Sequence[int], target: int,
                   table: _PrefixTable | None = None) -> int:
    """Number of markings of a with final value target.

    Infeasible targets (negative, past half the leaf sum, unreachable,
    or nonzero with a single leaf) simply count 0.  table, when given,
    serves the DP rows of a's leaves but the last, reusing those of the
    prefix a shares with the sequence it served before.

    >>> count_markings((1, 1, 1, 1), 1)
    3
    """
    _check_leaves(a)
    if target < 0 or 2 * target > sum(a):
        return 0
    if len(a) == 1:
        return int(target == 0)
    dp = (table or _PrefixTable(target)).row(a, len(a) - 1, target)
    prefix = sum(a) - a[-1]
    # the last step must land on target: v >= target - a_last and
    # target - v <= prefix - 2v; the row may run past target
    return sum(dp[max(0, target - a[-1]):max(0, min(target, prefix - target) + 1)])


def enumerate_markings(a: Sequence[int], target: int) -> tuple[tuple[int, ...], ...]:
    """All markings with final value target, lexicographically increasing."""
    _check_leaves(a)
    if target < 0:
        return ()
    t, sums = len(a), list(itertools.accumulate(a))
    if t == 1:
        return ((0,),) if target == 0 else ()
    found: list[tuple[int, ...]] = []
    # a depth-first walk without recursion, since its depth is the leaf
    # count: values[j] yields the values left for ks[j + 1], in order
    ks = [0]
    values: list[Iterator[int]] = []
    while True:
        i = len(ks)
        v = ks[-1]
        hi = min(v + min(sums[i - 1] - 2 * v, a[i]), target)
        if i < t - 1:
            values.append(iter(range(v, hi + 1)))
        elif hi == target:
            # the last value must be the target, and no range passes it
            found.append((*ks, target))
        # step the deepest level that has a value left, dropping those past it
        while values:
            w = next(values[-1], None)
            if w is not None:
                del ks[len(values):]
                ks.append(w)
                break
            values.pop()
        else:
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
    one r, count_markings counts that target alone; with more, one value
    row per tree, padded by the shift, is read at every r.  Either way
    one prefix table, capped at the last r, serves every tree of the call.
    """
    table = _PrefixTable(rs[-1])
    if len(rs) == 1:
        (r,) = rs
        return (tuple(count_markings(ls, marking_target(sum(ls), total, r), table)
                      for ls in leaf_lists),)
    rows = []
    first = rs[0]
    for ls in leaf_lists:
        shift = first - marking_target(sum(ls), total, first)
        # coefficient r reads the tree's value r - shift, and the values
        # off the row (below 0, or past a one-leaf row's 0) count 0
        by_value = _value_counts(ls, rs[-1] - shift, table)
        if shift >= first:
            row = [0] * min(shift - first, len(rs)) + by_value
        else:
            row = by_value[first - shift:]
        row += [0] * (len(rs) - len(row))
        rows.append(row)
    return tuple(zip(*rows)) if rows else tuple(() for _ in rs)
