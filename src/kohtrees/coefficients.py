"""Two-row Kronecker and plethysm coefficients, two independent ways.

Both coefficient families sit inside a symmetric unimodal polynomial:
the Gaussian binomial for Kronecker, a principal Schur specialization
for plethysm.  The coefficient indexed by r is the difference between
the q^r and q^(r-1) coefficients, and it also counts marked expansion
trees whose marking total works out to r.  Running both routes and
comparing them catches implementation drift in either one.  The marked
route reads the family's leaf table, each distinct leaf tuple with its
number of trees, and builds no tree; only a report's witness_counts,
read on demand, does.  A tree whose power shift passes r has no marking
at r, so a single r joins only the tuples whose shift is at most r; the
tree budget still counts every tree of the family.

The Kronecker difference route counts partitions in a box and needs
nothing else, so the koh, marking, qpoly and goh modules load inside the
functions that use them, and this module holds only what a coefficient
query runs: a query compiles only the routes it runs.  The GOH family
(goh_family), the general plethysm reduction and the tableau oracle's
strip pass live in goh, the ratio of q-integers behind hook content in
qpoly, the marked tree listing in render and the verify cell check
(check_identities) in workers.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

from .errors import (DEFAULT_TREE_BUDGET, CrossCheckFailedError,
                     PreconditionViolationError, _Value)
from .partitions import Partition, rectangle_counts

METHOD_MARKED = "marked_trees"
METHOD_DIFFERENCE = "difference_formula"
METHOD_BOTH = "both"


class CoefficientReport(_Value):
    """A computed coefficient plus how it was obtained.

    witness_counts lists the marked-tree count per expansion tree, in
    enumeration order, when the marked route ran, else None; given as a
    function, it runs on first read (__getattr__ runs only while the
    slot is unset).
    """

    __slots__ = ("_value", "_method", "_witness_counts", "_witnesses")
    _fields = ("value", "method", "witness_counts")

    def __init__(self, value: int, method: str, witness_counts=None) -> None:
        self._value = value
        self._method = method
        if callable(witness_counts):
            self._witnesses = witness_counts
        else:
            self._witness_counts = witness_counts

    def __getattr__(self, name: str):
        if name != "_witness_counts":
            raise AttributeError(name)
        self._witness_counts = counts = self._witnesses()
        return counts


def _check_method(method: str) -> None:
    if method not in (METHOD_MARKED, METHOD_DIFFERENCE, METHOD_BOTH):
        raise PreconditionViolationError(f"unknown method {method!r}")


def hook_content(mu: Partition, k: int) -> QPoly:
    """s_mu(1, q, ..., q^k) as a polynomial in q.

    Shift q^b(mu) times the ratio, over the cells of mu, of
    (1 - q^(k + 1 + col - row)) to (1 - q^hook).  Zero as soon as mu
    has more than k + 1 rows.

    >>> hook_content(Partition((2, 1)), 2).coeffs
    (0, 1, 2, 2, 2, 1)
    """
    from .qpoly import ONE, ZERO, q_int_ratio
    if k < 0:
        raise PreconditionViolationError(f"k must be nonnegative, got {k}")
    if not mu:
        return ONE
    if len(mu) > k + 1:
        return ZERO
    conj = mu.conjugate().parts
    cells = [(i, j) for i, row_len in enumerate(mu.parts, start=1)
             for j in range(1, row_len + 1)]
    # label a stands for [a + 1]_q: cell (i, j) gives [k + 1 + j - i]_q
    # over [hook]_q
    return q_int_ratio([k + j - i for i, j in cells],
                       [mu.parts[i - 1] + conj[j - 1] - i - j for i, j in cells]
                       ).shift(mu.b_stat())


def schur_specialization_oracle(mu: Partition, k: int) -> QPoly:
    """s_mu(1, q, ..., q^k) as the sum of q^|T| over semistandard fillings.

    Fillings use entries 0..k, weakly increasing along rows and strictly
    down columns.  The cells holding entries up to i form a shape lam^i:
    a filling is a chain of shapes inside mu ending at lam^k = mu, each
    step a horizontal strip adding i times its size to |T|.  One pass
    per entry carries every reachable shape with its polynomial; the
    shapes after entry i do not depend on k, so one pass per shape, kept
    for the last few shapes (goh.strip_pass), answers every k.  Its work
    grows with the shapes inside mu, not the fillings, so it takes no
    budget.  Independent of hook content.

    >>> schur_specialization_oracle(Partition((2, 1)), 2).coeffs
    (0, 1, 2, 2, 2, 1)
    """
    if k < 0:
        raise PreconditionViolationError(f"k must be nonnegative, got {k}")
    if not mu:
        from .qpoly import ONE
        return ONE
    from .goh import strip_pass
    return strip_pass(mu.parts).value(k)


class TreeFamily(_Value):
    """One tree family at fixed parameters, as both routes see it.

    trees(max_trees) enumerates the expansion trees and leaf_table(
    max_trees, bound=None) maps their leaf tuples to tree counts, with a
    bound only those of the trees whose power shift is at most bound,
    each the same on every call; total is their degree.  difference(rs)
    gives, for each r of the nonempty ascending range rs, the q^r minus
    q^(r-1) coefficient of the family's polynomial, without trees, by
    the route named in messages.  references() names the polynomials the
    tree terms must sum to, that one first.  where and degree_name word
    the errors.
    """

    __slots__ = ("_where", "_degree_name", "_total", "_trees", "_leaf_table",
                 "_route", "_difference", "_references")
    _fields = ("where", "degree_name", "total", "trees", "leaf_table", "route",
               "difference", "references")

    def __init__(self, where: str, degree_name: str, total: int,
                 trees: Callable[[int], tuple], leaf_table: Callable[..., dict],
                 route: str, difference: Callable[[range], tuple[int, ...]],
                 references: Callable[[], tuple[tuple[str, QPoly], ...]]) -> None:
        self._where = where
        self._degree_name = degree_name
        self._total = total
        self._trees = trees
        self._leaf_table = leaf_table
        self._route = route
        self._difference = difference
        self._references = references


def koh_family(n: int, k: int) -> TreeFamily:
    """The KOH trees of type (n, k), summing to q_binomial(n, k)."""
    # each part imports what it runs
    def trees(budget: int) -> tuple:
        from .koh import enumerate_koh_trees
        return enumerate_koh_trees(n, k, max_trees=budget)

    def leaf_table(budget: int, bound: int | None = None) -> dict:
        from .koh import koh_leaf_table
        return koh_leaf_table(n, k, max_trees=budget, bound=bound)

    def references() -> tuple[tuple[str, QPoly], ...]:
        from .koh import koh_rhs_closed
        from .qpoly import q_binomial
        return (("reference", q_binomial(n, k)),
                ("closed form", koh_rhs_closed(n, k)))

    def difference(rs: range) -> tuple[int, ...]:
        # one row of box counts serves both r and r - 1 of every r
        row = rectangle_counts(n, k, rs[-1])
        return tuple(row[r] - row[r - 1] if r else row[0] for r in rs)

    return TreeFamily(f"n={n}, k={k}", "nk", n * k, trees, leaf_table,
                      "rectangle", difference, references)


def two_row_counts(family: TreeFamily, rs: range, method: str,
                   max_trees: int) -> tuple[int, ...]:
    """The coefficient at every r in rs, as integers: the one route for
    both families.

    The method and every r are checked before the trees are counted.
    The marked route marks each tuple of the family's leaf table at every
    r, weighted by its trees, reading only the tuples whose power shift
    is at most the last r: a tree with a larger shift has no marking at
    any r of rs.  A range up to total // 2 (a verify sweep) drops no
    tree, so it reads the table of every tree, which the family may have
    cached.  The budget still counts every tree of the family.  With
    method both, the marked count must equal the difference at every r,
    which one call gives for the whole range; the first disagreement in
    r order raises CrossCheckFailedError.
    """
    _check_method(method)
    total, name = family.total, family.degree_name
    for r in rs:
        if r < 0 or 2 * r > total:
            raise PreconditionViolationError(
                f"need 0 <= 2r <= {name}, got r={r} with {name}={total}")
    if method == METHOD_DIFFERENCE:
        return family.difference(rs)
    from .marking import marked_counts
    bound = rs[-1] if rs[-1] < total // 2 else None
    counts = marked_counts(family.leaf_table(max_trees, bound).items(), total, rs)
    if method == METHOD_BOTH:
        # one difference call for every r, after the tree count, so that
        # the budget fails first
        for r, count, diff in zip(rs, counts, family.difference(rs)):
            if count != diff:
                raise CrossCheckFailedError(
                    f"marked trees give {count} but the {family.route} "
                    f"difference gives {diff} for {family.where}, r={r}")
    return counts


def two_row(family: TreeFamily, rs: range, method: str,
            max_trees: int) -> tuple[CoefficientReport, ...]:
    """A report of the coefficient at every r in rs, from two_row_counts.

    A marked report's witness_counts builds the trees when read.
    """
    counts = two_row_counts(family, rs, method, max_trees)
    if method == METHOD_DIFFERENCE:
        return tuple(CoefficientReport(count, method) for count in counts)

    def witnesses(r: int) -> tuple[int, ...]:
        from .koh import leaves
        from .marking import witness_counts
        return witness_counts(map(leaves, family.trees(max_trees)), family.total, r)

    return tuple(CoefficientReport(count, method, functools.partial(witnesses, r))
                 for r, count in zip(rs, counts))


def kronecker_two_row(n: int, k: int, r: int, method: str = METHOD_BOTH,
                      max_trees: int = DEFAULT_TREE_BUDGET) -> CoefficientReport:
    """Kronecker coefficient of (nk - r, r) with two copies of the
    k by n rectangle.

    >>> kronecker_two_row(3, 4, 6).value
    1
    """
    if n < 1 or k < 1:
        raise PreconditionViolationError(
            f"rectangle sides must be positive, got n={n}, k={k}")
    return two_row(koh_family(n, k), range(r, r + 1), method, max_trees)[0]


def plethysm_two_row(mu: Partition, k: int, r: int, method: str = METHOD_BOTH,
                     max_trees: int = DEFAULT_TREE_BUDGET) -> CoefficientReport:
    """Coefficient of the two-row Schur function (|mu|k - r, r) in the
    plethysm of mu with a single row of length k.

    >>> plethysm_two_row(Partition((2, 1)), 2, 2).value
    1
    """
    if not mu:
        raise PreconditionViolationError("the outer partition must be nonempty")
    from .goh import goh_family
    return two_row(goh_family(mu, k), range(r, r + 1), method, max_trees)[0]
