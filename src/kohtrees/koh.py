"""Trees that expand a Gaussian binomial into shifted products of q-integers,
counted and marked type by type without building a tree.

Every node carries a label (mu, a, b) with mu a partition of b.  A node
with b == 1 is a leaf and must look like ((1), a, 1).  A node with
b >= 2 has exactly one child per distinct row length j of mu; the child
along edge j carries

    a' = (a + 2) j - 2 (mu.q_stat(j)),    b' = mu.mult(j).

Branches where a' would go negative produce no trees at all.  Summing
q^(sigma/2) times the product of [leaf + 1]_q over all trees of type
(n, k) recovers q_binomial(n, k); sigma is nk minus the leaf sum.

_productions(n, k) states this rule once for a type: the partitions of
k whose child widths are all nonnegative, each with its child types from
_child_types, the per-node rule.  Counting, building, the marked vector
and the closed form read it; counts, tree tuples and marked vectors are
filled bottom up over the types below the ones asked for (_fill), never
by recursing down a chain of types.  count_trees and marked_vector serve
both families: a GOH configuration with its child types is a production
too.

The coefficient routes count (tree, marking) pairs without building a
tree.  A type's marked vector holds at entry r the number of pairs that
select coefficient r; a label's pairs are the Clebsch-Gordan tensor of
its child types' vectors (tensor), moved along by the label's own power
shift, so a type's vector sums those over its labels, each label's last
step adding straight into the type's one difference array.  Vectors are
cut at a cap, exact below it: a type is filled only up to the largest
cap a parent label reads, and a label whose shift passes its type's cap
is skipped.  The budget still counts every tree of the type.

This module holds only what a coefficient query runs.  The tree nodes,
the tree builder, the leaf-term sums and the closed form live in trees,
which enumerate_koh_trees, koh_term and koh_rhs_closed import when they
run; marking holds the markings of one leaf sequence.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections.abc import Callable, Sequence

from .errors import (DEFAULT_TREE_BUDGET, BudgetExceededError,
                     PreconditionViolationError)
from .partitions import Partition


def _check_type(n: int, k: int) -> None:
    if n < 0 or k < 1:
        raise PreconditionViolationError(
            f"tree type needs n >= 0 and k >= 1, got ({n}, {k})")


def _child_types(mu: Partition, a: int) -> list[tuple[int, tuple[int, int]]]:
    """(edge j, child type) along each distinct row j of mu, in edge order,
    for a node labeled (mu, a, |mu|); a child width may come out negative.

    This is the child rule, stated once, in one pass over the runs of
    equal parts, smallest first: mult(j) is the length of the run of j's,
    and q_stat(j) is the sum of the smaller parts plus j times the number
    of parts at least j.
    """
    parts = mu.parts
    out = []
    below = 0           # the sum of the parts smaller than j
    end = len(parts)    # parts[:end] are the parts at least j
    while end:
        j = parts[end - 1]
        start = parts.index(j)
        out.append((j, ((a + 2) * j - 2 * (below + j * end), end - start)))
        below += j * (end - start)
        end = start
    return out


@functools.cache
def _productions(n: int, k: int) -> tuple[tuple[Partition, list], ...]:
    """(mu, child types) for every mu of k, in canonical order, whose child
    widths are all nonnegative: the root labels of the type (n, k).

    Parts are placed largest first.  Once part j is placed as the m-th,
    every later part is at most j, so q_stat(j) is already m j plus the
    size left to place after j, and the width along edge j is final.  A
    prefix whose width is negative is dropped before it is extended; the
    width falls with j, so each level stops at its first such part.
    """
    found = []
    # prefixes still to extend, the next one on top: a depth-first walk
    # with no recursion and no self-referencing closure
    todo: list[tuple[tuple[int, ...], int]] = [((), k)]
    while todo:
        parts, rest = todo.pop()
        if not rest:
            mu = Partition(parts)
            found.append((mu, _child_types(mu, n)))
            continue
        m = len(parts) + 1
        longer = []
        for j in range(min(rest, parts[-1] if parts else rest), 0, -1):
            # (n + 2) j - 2 q_stat(j) < 0, whatever parts follow
            if (n + 2) * j < 2 * (m * j + rest - j):
                break
            longer.append((parts + (j,), rest - j))
        todo.extend(reversed(longer))
    return tuple(found)


def count_trees(productions: Sequence[tuple[object, list]]) -> int:
    """Number of trees over a production list: for each label, the
    product of the KOH tree counts at its child types."""
    return sum(math.prod(count_koh_trees(*ctype) for _, ctype in types)
               for _, types in productions)


def _add_tensor(diff: list[int], shift: int, x: Sequence[int], dx: int,
                y: Sequence[int], dy: int, top: int) -> None:
    """Add V(x) (x) V(y), moved along by shift, into the difference array
    diff, up to entry top: each pair (i, l) adds x[i] y[l] to entries
    shift + i + l .. shift + i + l + min(dx - 2i, dy - 2l).  This is the
    one Clebsch-Gordan step; the shift sits in each row's base index, and
    the outer loop runs over the shorter vector."""
    if len(y) < len(x):
        x, dx, y, dy = y, dy, x, dx
    room = top - shift
    ys = [(l, w, dy - 2 * l) for l, w in enumerate(y[:room + 1]) if w]
    for i, v in enumerate(x[:room + 1]):
        if v:
            left = dx - 2 * i
            base = shift + i
            for l, w, other in ys:
                lo = base + l
                if lo > top:
                    break
                ways = v * w
                diff[lo] += ways
                # the last entry, lo + min(left, other), cut at top
                hi = lo + (left if left < other else other)
                diff[(hi if hi < top else top) + 1] -= ways


def tensor(x: Sequence[int], dx: int, y: Sequence[int], dy: int, cap: int) -> list[int]:
    """V(x) (x) V(y), V(x) the sum of x[i] copies of V_(dx-2i), as a
    vector of degree dx + dy up to entry min(cap, (dx + dy) // 2), through
    _add_tensor and one running sum.  No entry lies past half a degree.

    >>> tensor([1], 2, [1], 2, 2)
    [1, 1, 1]
    """
    top = min(cap, (dx + dy) // 2)
    diff = [0] * (top + 2)
    _add_tensor(diff, 0, x, dx, y, dy, top)
    diff.pop()
    return list(itertools.accumulate(diff))


def _label_sum(productions: Sequence[tuple[object, list]], total: int,
               top: int) -> list[int]:
    """The marked vector of a production list up to entry top, read from
    its child types' vectors in _MARKED, each of which must reach the cap
    its labels read.

    A label's first child vector is read directly, its middle children
    fold through tensor, and its last step adds straight into one
    difference array at the label's own shift; a label with one child
    adds that vector there.  A label whose shift passes top is skipped.
    """
    marked = _MARKED
    diff = [0] * (top + 2)
    for _, types in productions:
        degrees = [a * b for _, (a, b) in types]
        own = (total - sum(degrees)) // 2
        if own > top:
            continue
        vector, degree = marked[types[0][1]], degrees[0]
        if len(types) == 1:
            for r, count in enumerate(vector[:top - own + 1], own):
                diff[r] += count
                diff[r + 1] -= count
            continue
        for (_, ctype), cdegree in zip(types[1:-1], degrees[1:-1]):
            vector = tensor(vector, degree, marked[ctype], cdegree, top - own)
            degree += cdegree
        _add_tensor(diff, own, vector, degree, marked[types[-1][1]], degrees[-1], top)
    diff.pop()
    return list(itertools.accumulate(diff))


def marked_vector(productions: Sequence[tuple[object, list]], total: int,
                  cap: int) -> list[int]:
    """For each r up to min(cap, total // 2), the number of (tree, marking)
    pairs over a production list that select coefficient r; total is the
    trees' degree.  Entry j reads only child entries up to j, so cutting
    the vectors at the cap changes no entry below it.

    A label's own power shift is (total - the sum of its child degrees)
    / 2: its pairs are the tensor of its child types' vectors, moved
    along by that shift.  Each child type is filled first (_fill) up to
    the cap its labels read, the cap minus the label's shift, and a label
    whose shift passes the cap reads none.

    >>> marked_vector(_productions(2, 2), 4, 2)
    [1, 0, 1]
    """
    top = min(cap, total // 2)
    wanted: dict[tuple[int, int], int] = {}
    for _, types in productions:
        need = top - (total - sum(a * b for _, (a, b) in types)) // 2
        if need >= 0:
            for _, ctype in types:
                if wanted.get(ctype, -1) < need:
                    wanted[ctype] = need
    _fill(_MARKED, _marked_type, wanted)
    return _label_sum(productions, total, top)


def _fill(table: dict, value: Callable[[int, int, int | None], object],
          wanted: dict[tuple[int, int], int | None]) -> None:
    """Set table[t] = value(*t, cap) for every type t that wanted names or
    that their labels reach, where the table lacks t or, with a cap,
    holds a vector of t that stops short of it; children before parents.

    wanted maps each type asked for to its cap, or to None: then every
    label is read, and a type the table holds is kept with its children.
    With caps, a child type's cap is the largest that a parent label
    reads, the parent's cap (cut at half its degree) minus the label's
    own shift, and a label whose shift passes its type's cap reaches no
    type: entry j of a tensor reads only entries i and l with i + l <= j.

    A child type has a smaller b, or the same b and a smaller a (only
    mu = (1^b) keeps b, with a' = a + 2 - 2b).  So the types are taken
    in descending (b, a), every parent before its children, which makes
    a type's cap final when it is taken, and filled in the reverse
    order.  Taking them in that order instead of recursing keeps the
    stack flat on thin types: (a, 2) has a chain of about a/2 levels.
    """
    caps = dict(wanted)
    heap = [(-b, -a) for a, b in caps]
    heapq.heapify(heap)
    taken = []
    while heap:
        b, a = heapq.heappop(heap)
        a, b = -a, -b
        cap = caps[a, b]
        held = table.get((a, b))
        if held is not None and (cap is None or len(held) > min(cap, a * b // 2)):
            continue
        taken.append((a, b))
        if b == 1:
            continue
        top = None if cap is None else min(cap, a * b // 2)
        for _, types in _productions(a, b):
            need = None
            if top is not None:
                need = top - (a * b - sum(x * y for _, (x, y) in types)) // 2
                if need < 0:
                    continue
            for _, ctype in types:
                if ctype not in caps:
                    caps[ctype] = need
                    heapq.heappush(heap, (-ctype[1], -ctype[0]))
                elif need is not None and caps[ctype] < need:
                    caps[ctype] = need
    for a, b in reversed(taken):
        table[a, b] = value(a, b, caps[a, b])


# tree counts by type, each type filled once, and marked vectors by type,
# each exact up to its last entry and filled again when a larger cap asks
# for more; trees.py keeps the tree tuples
_COUNTS: dict[tuple[int, int], int] = {}
_MARKED: dict[tuple[int, int], list[int]] = {}


def _count_type(n: int, k: int, cap: None) -> int:
    return 1 if k == 1 else count_trees(_productions(n, k))


def _marked_type(n: int, k: int, cap: int) -> list[int]:
    if k == 1:
        return [1] + [0] * min(cap, n // 2)
    return _label_sum(_productions(n, k), n * k, min(cap, n * k // 2))


def count_koh_trees(n: int, k: int) -> int:
    """Number of trees of type (n, k), computed without materializing them."""
    _check_type(n, k)
    if (n, k) not in _COUNTS:
        _fill(_COUNTS, _count_type, {(n, k): None})
    return _COUNTS[n, k]


def _check_budget(total: int, what: str, max_trees: int) -> None:
    """Raise BudgetExceededError when total trees, named by what, exceed
    max_trees."""
    if total > max_trees:
        raise BudgetExceededError(
            f"{total} trees {what} exceed the budget {max_trees}")


def enumerate_koh_trees(n: int, k: int,
                        max_trees: int = DEFAULT_TREE_BUDGET) -> tuple[KohTree, ...]:
    """All trees of type (n, k) in a fixed canonical order.

    Root partitions run lexicographically decreasing and subtree choices
    at later edges vary fastest, so the order is deterministic.  Results
    are cached and subtrees are shared, which is safe because trees are
    immutable.  The (cheap) count is checked first: more than max_trees
    trees raise BudgetExceededError before anything is built.
    """
    _check_type(n, k)
    _check_budget(count_koh_trees(n, k), f"of type ({n}, {k})", max_trees)
    from .trees import _tree_table
    return _tree_table(n, k)


def koh_marked_vector(n: int, k: int, cap: int,
                      max_trees: int = DEFAULT_TREE_BUDGET) -> list[int]:
    """The marked vector of the type (n, k), at least up to min(cap, nk //
    2), after the budget check enumerate_koh_trees makes, with no tree
    built.  The vector is cached: the caller must not change it.

    >>> koh_marked_vector(2, 2, 2)
    [1, 0, 1]
    """
    _check_budget(count_koh_trees(n, k), f"of type ({n}, {k})", max_trees)
    _fill(_MARKED, _marked_type, {(n, k): cap})
    return _MARKED[n, k]


def leaves(tree) -> tuple[int, ...]:
    """Leaf labels in depth-first order, children taken in edge order.

    Works on a tree of either family: a GohTree is an inner node whose
    children are KOH subtrees.  The tuple is the one stored when the
    tree was built.
    """
    return tree.leaf_values


def koh_term(tree: KohTree) -> QPoly:
    """q^(sigma/2) times the product of [leaf + 1]_q over the leaves."""
    from .trees import leaf_term_sum
    return leaf_term_sum(tree.degree, ((leaves(tree), 1),))


def koh_rhs_closed(n: int, k: int) -> QPoly:
    """Closed-form partition sum equal to q_binomial(n, k).

    For each partition lam of k: q^(2 b_stat) times the product over the
    distinct row lengths of q_binomial at the child type.  Partitions
    with a negative child width are left out, matching the pruned trees.
    """
    if n < 0 or k < 0:
        raise PreconditionViolationError(
            f"closed form needs n >= 0 and k >= 0, got ({n}, {k})")
    from .trees import closed_form
    return closed_form(_productions(n, k), lambda lam: 2 * lam.b_stat())
