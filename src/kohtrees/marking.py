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

Two kernels count markings.  Call s = a_1 + ... + a_i - 2 k_i the slack
of a marking after i leaves: it starts at a_1, a leaf a moves it to
every value from |s - a| to s + a in steps of 2, and it ends at
sum(a) - 2 k_t.

- count_markings(a, target) counts one final value.  It keeps, leaf by
  leaf, the number of markings ending at each value 0..target; since a
  state v moves to every value of one interval, a step adds its ways
  over those intervals through a difference array and one running sum.
  A marking value never exceeds half the leaf sum (the slack stays
  nonnegative), so a target past that bound counts 0 before any table
  is allocated.
- slack_counts(a) counts every final value at once, by walking the
  slack.  Its states cover all of 0..sum(a), one parity at a time, and
  a step range-adds them through a stride-2 difference array and one
  running sum.

A tree's markings select coefficient r exactly when their final slack
is total - 2r, whatever the tree's power shift, so one slack walk per
tree answers every r.  marked_counts walks the slack when it is asked
for more than one r (the verify sweeps) and calls count_markings, whose
table stops at the target, for a single r (a coefficient query or a
marked listing), where the whole walk costs several times more.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from .errors import ParityViolationError, PreconditionViolationError


def _check_leaves(a: Sequence[int]) -> None:
    if not a:
        raise PreconditionViolationError("marking needs a nonempty leaf sequence")
    if min(a) < 0:
        raise PreconditionViolationError(f"leaf labels must be nonnegative, got {tuple(a)}")


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
    # dp[v]: markings of the leaves read so far whose last value is v
    dp = [1]
    prefix = a[0]
    for nxt in a[1:-1]:
        # no step reaches past half the new prefix sum
        top = min(target, (prefix + nxt) // 2)
        diff = [0] * (top + 2)
        for v, ways in enumerate(dp):
            if ways:
                diff[v] += ways
                diff[min(v + min(prefix - 2 * v, nxt), top) + 1] -= ways
        diff.pop()
        dp = list(itertools.accumulate(diff))
        prefix += nxt
    # the last step must land on target: v >= target - a_last and
    # target - v <= prefix - 2v
    return sum(dp[max(0, target - a[-1]):max(0, prefix - target + 1)])


def slack_counts(a: Sequence[int]) -> list[int]:
    """Number of markings of a at each final slack s = sum(a) - 2 k_t,
    listed for s = 0..sum(a); slacks of the other parity count 0.

    The count at slack sum(a) - 2t is count_markings(a, t).

    >>> slack_counts((1, 1, 1, 1))
    [2, 0, 3, 0, 1]
    """
    _check_leaves(a)
    # ways[j]: markings of the leaves read so far with slack parity + 2j
    prefix = a[0]
    parity = prefix % 2
    ways = [0] * (prefix // 2) + [1]
    for nxt in a[1:]:
        # slack s = parity + 2j moves to |s - nxt| .. s + nxt, whose
        # halves (rounded down) index the new states
        size = (prefix + nxt) // 2 + 1
        diff = [0] * (size + 1)
        for j, w in enumerate(ways):
            if w:
                s = parity + 2 * j
                diff[abs(s - nxt) // 2] += w
                diff[(s + nxt) // 2 + 1] -= w
        diff.pop()
        ways = list(itertools.accumulate(diff))
        prefix += nxt
        parity = prefix % 2
    out = [0] * (prefix + 1)
    out[parity::2] = ways
    return out


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
        raise ParityViolationError(
            f"defect {total} - {leaf_sum} is odd; no marking target exists")
    return r - (total - leaf_sum) // 2


def marked_counts(leaf_lists: Iterable[Sequence[int]], total: int,
                  rs: range) -> tuple[tuple[int, ...], ...]:
    """For each r in rs, the number of markings of each tree that select
    coefficient r, trees in order.

    Valid for 0 <= r <= total/2, a range the caller checks.  Each tree
    contributes the markings of its leaf sequence at the tree's own
    target, whose final slack is total - 2r.  With more than one r,
    each leaf sequence is walked once by slack_counts and read at every
    r; with one r, count_markings counts that target alone.
    """
    if len(rs) == 1:
        (r,) = rs
        return (tuple(count_markings(ls, marking_target(sum(ls), total, r))
                      for ls in leaf_lists),)
    slacks = [total - 2 * r for r in rs]
    rows = []
    for ls in leaf_lists:
        leaf_sum = sum(ls)
        marking_target(leaf_sum, total, 0)  # an odd defect has no target
        by_slack = slack_counts(ls)
        # slacks past the leaf sum, of trees far below the degree, count 0
        rows.append([by_slack[s] if s <= leaf_sum else 0 for s in slacks])
    return tuple(zip(*rows)) if rows else tuple(() for _ in rs)
