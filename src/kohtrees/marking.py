"""Markings: picking single coefficients out of products of q-integers.

A marking of a leaf sequence (a_1, ..., a_t) is a weakly increasing
vector k_1 <= ... <= k_t with k_1 = 0 whose steps obey

    k_{i+1} - k_i  <=  min(a_1 + ... + a_i - 2 k_i,  a_{i+1}).

The number of markings ending at k_t = k equals c_k - c_{k-1}, where
c_r is the coefficient of q^r in the product of the [a_i + 1]_q, valid
up to the symmetry center k <= (a_1 + ... + a_t) / 2.  Summed over the
leaf sequences of an expansion tree family, with each tree's target
shifted by its power of q, the counts give one coefficient difference
of the family's polynomial.  A tree's count depends only on its leaf
sequence, so marked_counts reads a leaf table, each distinct sequence
with the number of trees that have it, and gives the weighted sum for
every r of a range; the coefficients module checks the range.
witness_counts gives the terms tree by tree, at one r.

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
adjacent or not, is stepped once.  A leaf table keeps that order, the
order in which the trees first give each sequence.  The table holds
proper-prefix rows only, and a bounded number of values: a row that does
not fit drops the others.  Cutting rows at a cap changes none of the
values below it, so they serve every target up to the cap if the last
step stops there.

Every count owns one table for one call, capped at the call's largest
r, and drops it on return, so no DP state outlives a call or is shared
between threads.  A sequence's target at r is r minus its power shift,
so none passes the cap; a leaf sum above the degree, which would,
raises PreconditionViolationError.  There are two routes:

- At one r (_counts_at) each (sequence, multiplicity) entry counts
  apart: a negative target, its shift past r, counts 0 before any row
  is read, a single leaf counts target == 0, and any other sums the
  window of its head row, all leaves but the last, that the last step
  can leave at the target (_last_step).  marked_counts at one r sums
  these counts, witness_counts lists them with multiplicity 1, and
  count_markings(a, target) is the one entry (a, 1) with no shift, its
  degree a's leaf sum and r the target, after a target past half the
  leaf sum counts 0 at once.
- For a range of r marked_counts finishes each sequence's head row with
  one last step, cut at the sequence's top and not stored: that row,
  shifted by the power and weighted by the multiplicity, adds into the
  totals of the range.
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
_TABLE_CELLS = 16384


def _step(dp: list[int], prefix: int, nxt: int, cap: int) -> list[int]:
    """The row of a prefix one leaf nxt longer, from the row dp of a prefix
    whose leaves sum to prefix: every state v moves to each value of
    v..min(v + nxt, prefix - v), through a difference array and one
    running sum, cut at cap and at half the new leaf sum, which no
    marking value passes.  dp is no longer than the new row, so the
    difference array starts as dp itself, each state's ways already
    added at v."""
    hi = min(cap, (prefix + nxt) // 2)
    diff = dp + [0] * (hi + 2 - len(dp))
    for v, ways in enumerate(dp):
        if ways:
            diff[min(v + nxt, prefix - v, hi) + 1] -= ways
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

    def row(self, prefix: tuple[int, ...]) -> list[int]:
        """Markings of the leaves prefix by final value, exact at
        0..min(cap, half their sum); prefix is a nonempty tuple, and the
        caller must not change the list."""
        if len(prefix) == 1:
            return [1]
        rows = self.rows
        dp = rows.get(prefix)
        if dp is not None:
            return dp
        n = len(prefix) - 1
        while n > 1 and (dp := rows.get(prefix[:n])) is None:
            n -= 1
        if n == 1:
            dp = [1]
        cap, leaf_sum = self.cap, sum(prefix[:n])
        for i in range(n, len(prefix)):
            nxt = prefix[i]
            dp = _step(dp, leaf_sum, nxt, cap)
            leaf_sum += nxt
            if self.cells + len(dp) > _TABLE_CELLS:
                self.cells = 0
                rows.clear()
            rows[prefix[:i + 1]] = dp
            self.cells += len(dp)
        return dp


def _last_step(dp: list[int], prefix: int, last: int, target: int) -> int:
    """The markings that end at target one leaf last past a prefix whose
    leaves sum to prefix, from the prefix's row dp: the last step lands
    on target from each v with v >= target - last and target - v <=
    prefix - 2v.  The row holds every value up to target that a marking
    of the prefix can take, and may run past the window or stop before
    its end."""
    return sum(dp[max(0, target - last):max(0, min(target, prefix - target) + 1)])


def count_markings(a: Sequence[int], target: int) -> int:
    """Number of markings of a with final value target.

    Infeasible targets (negative, past half the leaf sum, unreachable,
    or nonzero with a single leaf) simply count 0.

    >>> count_markings((1, 1, 1, 1), 1)
    3
    """
    _check_leaves(a)
    leaf_sum = sum(a)
    if 2 * target > leaf_sum:
        return 0
    return next(_counts_at([(a, 1)], leaf_sum, target))


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


def _counts_at(leaf_table: Iterable[tuple[Sequence[int], int]], total: int,
               r: int) -> Iterator[int]:
    """For each (leaf sequence, multiplicity) entry of leaf_table in turn,
    the markings of the sequence at its target at r, times its
    multiplicity, through one prefix table capped at r."""
    table = _PrefixTable(r)
    for ls, ways in leaf_table:
        _check_leaves(ls)
        leaf_sum = sum(ls)
        target = marking_target(leaf_sum, total, r)
        if target < 0 or len(ls) == 1:
            yield ways * (target == 0)
        else:
            last = ls[-1]
            yield ways * _last_step(table.row(tuple(ls[:-1])), leaf_sum - last,
                                    last, target)


def marked_counts(leaf_table: Iterable[tuple[Sequence[int], int]], total: int,
                  rs: range) -> tuple[int, ...]:
    """For each r in rs, the number of marked trees that select
    coefficient r: over the (leaf sequence, multiplicity) pairs of
    leaf_table, the markings of the sequence at its own target, r minus
    its power shift, times its multiplicity.

    rs is a range of consecutive r with 0 <= r <= total/2, which the
    caller checks; a leaf sum above total raises
    PreconditionViolationError.  One r sums the entries' counts at it.
    A range takes each sequence's row of all its leaves but the last,
    from one prefix table capped at the last r, one last step, and adds
    the new row, offset by the shift, into every r.
    """
    if len(rs) == 1:
        return (sum(_counts_at(leaf_table, total, rs[0])),)
    table = _PrefixTable(rs[-1])
    totals = [0] * len(rs)
    first = rs[0]
    for ls, ways in leaf_table:
        _check_leaves(ls)
        leaf_sum = sum(ls)
        shift = first - marking_target(leaf_sum, total, first)
        top = rs[-1] - shift
        if top < 0:
            continue
        by_value = [1] if len(ls) == 1 else _step(
            table.row(tuple(ls[:-1]))[:top + 1], leaf_sum - ls[-1], ls[-1], top)
        # coefficient r reads the value r - shift: values below first - shift
        # fall before the range, and the row ends at the range's end
        skip = max(0, first - shift)
        values = by_value[skip:]
        start = shift + skip - first
        end = start + len(values)
        totals[start:end] = [t + ways * v for t, v in zip(totals[start:end], values)]
    return tuple(totals)


def witness_counts(leaf_lists: Iterable[Sequence[int]], total: int,
                   r: int) -> tuple[int, ...]:
    """The number of markings of each leaf sequence that select
    coefficient r, sequences in order: with the trees' sequences, the
    marked-tree count of each tree."""
    return tuple(_counts_at(((ls, 1) for ls in leaf_lists), total, r))
