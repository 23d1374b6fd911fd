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
moves to every value of one interval, so a step (_step) adds its ways
over those intervals through a difference array and one running sum.

The DP rows live in a prefix table, keyed by the leaf prefix they
count and cut at the one cap the table is made with.  A row depends
only on the leaves up to it, so a sequence starts from the row of its
longest prefix in the table and steps only past it.  Trees come in
enumeration order, where later edges vary fastest, so most of a tree's
rows are already there, and a prefix that comes back in a later tree,
adjacent or not, is stepped once.  The table holds proper-prefix rows
only, and a bounded number of values: a row that does not fit drops the
others.  Cutting rows at a cap changes none of the values below it, so
they serve every target up to the cap if the last step stops there.

- count_markings(a, target) counts one final value from the row of all
  leaves but the last, summing the values the last step can leave at
  target.  A target past half the leaf sum counts 0 before any row is
  read.  Without a table it builds a fresh one capped at the target.
- marked_counts owns one table for one call, capped at the call's
  largest r, and drops it on return, so no DP state outlives a call or
  is shared between threads.  A tree's target at r is r minus its power
  shift, so none passes the cap; a leaf sum above the degree, which
  would, raises PreconditionViolationError.  For a single r (a
  coefficient query or a marked listing) it calls count_markings once
  per tree with that table.  For a range of r it finishes each tree
  from the same row with one last step, cut at the tree's top and not
  stored: that row, shifted by the tree's power, lines up with the range.
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


# the most row values a prefix table holds; a row past it starts it over
_TABLE_CELLS = 4096


def _step(dp: list[int], prefix: int, nxt: int, cap: int) -> list[int]:
    """The row of a prefix one leaf nxt longer, from the row dp of a prefix
    whose leaves sum to prefix: every state v moves to each value of
    v..v + min(prefix - 2v, nxt), through a difference array and one
    running sum, cut at cap and at half the new leaf sum, which no
    marking value passes."""
    hi = min(cap, (prefix + nxt) // 2)
    diff = [0] * (hi + 2)
    for v, ways in enumerate(dp):
        if ways:
            diff[v] += ways
            diff[min(v + min(prefix - 2 * v, nxt), hi) + 1] -= ways
    diff.pop()
    return list(itertools.accumulate(diff))


class _PrefixTable:
    """DP rows by leaf prefix, for the leaf sequences of one call.

    rows maps a prefix of two or more leaves to its markings by final
    value, up to min(cap, half its leaf sum); the one marking of a single
    leaf needs no entry.  A row depends only on its prefix and the cap,
    so a sequence starts from the row of its longest stored prefix, and
    a prefix is stepped once however many sequences share it, adjacent
    or not.  The cap is fixed: values below it never depend on the values
    above it, so a row is exact up to it.  The rows hold at most
    _TABLE_CELLS values in all (or one longer row): a row that does not
    fit drops the others first.
    """

    __slots__ = ("cap", "rows", "cells")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.rows: dict[tuple[int, ...], list[int]] = {}
        self.cells = 0

    def row(self, a: Sequence[int], t: int) -> list[int]:
        """Markings of a[:t] by final value, exact at 0..min(cap, half its
        leaf sum); t >= 1, and the caller must not change the list."""
        if t == 1:
            return [1]
        rows = self.rows
        key = tuple(a[:t])
        dp = rows.get(key)
        if dp is not None:
            return dp
        n = t - 1
        while n > 1 and (dp := rows.get(key[:n])) is None:
            n -= 1
        if n == 1:
            dp = [1]
        cap, prefix = self.cap, sum(key[:n])
        for i in range(n, t):
            nxt = key[i]
            dp = _step(dp, prefix, nxt, cap)
            prefix += nxt
            if self.cells + len(dp) > _TABLE_CELLS:
                self.cells = 0
                rows.clear()
            rows[key[:i + 1]] = dp
            self.cells += len(dp)
        return dp


def count_markings(a: Sequence[int], target: int,
                   table: _PrefixTable | None = None) -> int:
    """Number of markings of a with final value target.

    Infeasible targets (negative, past half the leaf sum, unreachable,
    or nonzero with a single leaf) simply count 0.  table, when given,
    serves the DP row of a's leaves but the last, from the rows it holds
    of the longest prefix of a it has seen; its cap must reach target.

    >>> count_markings((1, 1, 1, 1), 1)
    3
    """
    _check_leaves(a)
    prefix = sum(a) - a[-1]
    if target < 0 or 2 * target > prefix + a[-1]:
        return 0
    if len(a) == 1:
        return int(target == 0)
    dp = (table or _PrefixTable(target)).row(a, len(a) - 1)
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
    must be even and nonnegative (it is twice the power shift of the
    tree's term), so the target never passes r.
    """
    if leaf_sum > total:
        raise PreconditionViolationError(
            f"leaf sum {leaf_sum} exceeds the degree {total}; no marking target exists")
    if (total - leaf_sum) % 2:
        raise PreconditionViolationError(
            f"defect {total} - {leaf_sum} is odd; no marking target exists")
    return r - (total - leaf_sum) // 2


def marked_counts(leaf_lists: Iterable[Sequence[int]], total: int,
                  rs: range) -> tuple[tuple[int, ...], ...]:
    """For each r in rs, the number of markings of each tree that select
    coefficient r, trees in order.

    rs is a range of consecutive r with 0 <= r <= total/2, which the
    caller checks; a leaf sum above total raises
    PreconditionViolationError.  Each tree contributes the markings of
    its leaf sequence at the tree's own target, r minus its power shift.
    With one r, count_markings counts that target alone; with more, the
    row of all leaves but the last takes one last step, and that row,
    padded by the shift, is read at every r.  Either way one prefix
    table, capped at the last r, serves every tree of the call.
    """
    table = _PrefixTable(rs[-1])
    if len(rs) == 1:
        (r,) = rs
        return (tuple(count_markings(ls, marking_target(sum(ls), total, r), table)
                      for ls in leaf_lists),)
    rows = []
    first = rs[0]
    for ls in leaf_lists:
        _check_leaves(ls)
        leaf_sum = sum(ls)
        shift = first - marking_target(leaf_sum, total, first)
        top = rs[-1] - shift
        if top < 0:
            by_value = []
        elif len(ls) == 1:
            by_value = [1]
        else:
            by_value = _step(table.row(ls, len(ls) - 1)[:top + 1],
                             leaf_sum - ls[-1], ls[-1], top)
        # coefficient r reads the tree's value r - shift, and the values
        # off the row (below 0, or past its end) count 0
        if shift >= first:
            row = [0] * min(shift - first, len(rs)) + by_value
        else:
            row = by_value[first - shift:]
        row += [0] * (len(rs) - len(row))
        rows.append(row)
    return tuple(zip(*rows)) if rows else tuple(() for _ in rs)
