"""Markings: picking single coefficients out of products of q-integers.

A marking of a leaf sequence (a_1, ..., a_t) is a weakly increasing
vector k_1 <= ... <= k_t with k_1 = 0 whose steps obey

    k_{i+1} - k_i  <=  min(a_1 + ... + a_i - 2 k_i,  a_{i+1}).

The number of markings ending at k_t = k equals c_k - c_{k-1}, where
c_r is the coefficient of q^r in the product of the [a_i + 1]_q, valid
up to the symmetry center k <= (a_1 + ... + a_t) / 2.  Summed over the
trees of a family, with each tree's target shifted by its power of q,
the counts give one coefficient difference of the family's polynomial.

The slack of a marking after i leaves, s = a_1 + ... + a_i - 2 k_i,
moves at the next leaf a to s + a - 2d for each 0 <= d <= min(s, a):
the sl2 Clebsch-Gordan rule, V_s (x) V_a the sum of V_(s+a-2d) over
those d (Sylvester 1878; Proctor, Amer. Math. Monthly 89, 1982).  So
one step, koh.tensor, counts every marking.  A vector x of degree dx
holds at entry i the number of copies of V_(dx-2i): for a leaf
sequence, its markings that end at i.  A vector holds its entries up to
a cap (or to half its degree, past which every entry is 0) and is exact
there: entry j of a tensor reads only entries i and l with i + l <= j.

witness_counts folds each leaf sequence through tensor, one leaf (the
vector [1] of degree a) at a time, and count_markings is its case of one
sequence.  witness_counts keeps the rows of the previous sequence, so a
sequence steps only past the prefix it shares with that one: trees come
in enumeration order, where later edges vary fastest, so neighbours
share most of their leaves.

This module holds the markings of leaf sequences only: the listings
with --r and JSON witnesses load it.  A coefficient query counts its
(tree, marking) pairs with the marked vectors of koh, which sit next to
the step, and loads none of it.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

from .errors import PreconditionViolationError
from .koh import tensor


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
    leaf_sum = sum(a)
    if 2 * target > leaf_sum:
        return 0
    return witness_counts([a], leaf_sum, target)[0]


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


def witness_counts(leaf_lists: Iterable[Sequence[int]], total: int,
                   r: int) -> tuple[int, ...]:
    """The number of markings of each leaf sequence that select
    coefficient r, sequences in order: with the trees' sequences, the
    marked-tree count of each tree.

    Every row is cut at r, which no target passes.  rows[j] holds the
    markings of the first j + 1 leaves of the last sequence folded (one
    leaf's row is [1], whatever the leaf), so a sequence keeps the rows
    of the prefix it shares with that one and folds only the leaves past
    it.  A sequence whose target is negative counts 0 and folds nothing.
    """
    counts = []
    last: Sequence[int] = ()
    rows = [[1]]
    for ls in leaf_lists:
        _check_leaves(ls)
        target = marking_target(sum(ls), total, r)
        if target < 0:
            counts.append(0)
            continue
        shared = 0
        while shared < min(len(last), len(ls)) and last[shared] == ls[shared]:
            shared += 1
        del rows[max(shared, 1):]
        row, degree = rows[-1], sum(ls[:len(rows)])
        for a in ls[len(rows):]:
            row = tensor(row, degree, [1], a, r)
            degree += a
            rows.append(row)
        last = ls
        counts.append(row[target] if target < len(row) else 0)
    return tuple(counts)
