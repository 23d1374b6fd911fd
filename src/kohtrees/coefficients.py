"""Two-row Kronecker and plethysm coefficients, two independent ways.

Both coefficient families sit inside a symmetric unimodal polynomial:
the Gaussian binomial for Kronecker, a principal Schur specialization
for plethysm.  The coefficient indexed by r is the difference between
the q^r and q^(r-1) coefficients, and it also counts marked expansion
trees whose marking total works out to r.  Running both routes and
comparing them catches implementation drift in either one.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable

from .errors import (CrossCheckFailedError, BudgetExceededError,
                     PreconditionViolationError)
from .koh import (DEFAULT_TREE_BUDGET, enumerate_koh_trees, koh_rhs_closed,
                  leaf_term_sum, leaves)
from .marking import enumerate_markings, marked_counts, marking_target
from .partitions import Partition, count_in_rectangle
from .qpoly import (ONE, ZERO, QPoly, _Value, pack_width, q_binomial,
                    q_int_product, unpack)

METHOD_MARKED = "marked_trees"
METHOD_DIFFERENCE = "difference_formula"
METHOD_BOTH = "both"


class CoefficientReport(_Value):
    """A computed coefficient plus how it was obtained.

    witness_counts lists the marked-tree count per expansion tree, in
    enumeration order, when the marked route ran; otherwise None.
    """

    __slots__ = ("_value", "_method", "_witness_counts")
    _fields = ("value", "method", "witness_counts")

    def __init__(self, value: int, method: str,
                 witness_counts: tuple[int, ...] | None = None) -> None:
        self._value = value
        self._method = method
        self._witness_counts = witness_counts


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
    if k < 0:
        raise PreconditionViolationError(f"k must be nonnegative, got {k}")
    if not mu:
        return ONE
    if len(mu) > k + 1:
        return ZERO
    conj = mu.conjugate().parts
    cells = [(i, j) for i, row_len in enumerate(mu.parts, start=1)
             for j in range(1, row_len + 1)]
    num = q_int_product(k + j - i for i, j in cells)
    # label a stands for [a + 1]_q: cell (i, j) gives [k + 1 + j - i]_q
    # over [hook]_q
    den = q_int_product(mu.parts[i - 1] + conj[j - 1] - i - j for i, j in cells)
    return num.exact_div(den).shift(mu.b_stat())


def schur_specialization_oracle(mu: Partition, k: int) -> QPoly:
    """s_mu(1, q, ..., q^k) as the sum of q^|T| over semistandard fillings.

    Fillings use entries 0..k, weakly increasing along rows and strictly
    increasing down columns.  The cells holding entries up to i form a
    shape lam^i, so a filling is a chain of shapes inside mu ending at
    lam^k = mu, each step lam^i / lam^(i-1) a horizontal strip adding
    i times its size to |T|.  One pass per entry carries every reachable
    shape with its polynomial, packed at the width of (k+1)^|mu|, which
    bounds the number of fillings.  Its work grows with the number of
    shapes inside mu, not of fillings, so it takes no budget.
    Independent of the hook-content formula.

    >>> schur_specialization_oracle(Partition((2, 1)), 2).coeffs
    (0, 1, 2, 2, 2, 1)
    """
    if k < 0:
        raise PreconditionViolationError(f"k must be nonnegative, got {k}")
    if not mu:
        return ONE
    rows = mu.parts
    width = pack_width((k + 1) ** mu.size)
    shapes = {(0,) * len(rows): 1}
    for i in range(k + 1):
        # k - i strips still to come must fill mu / nu, one cell per column
        # each, so row j of nu reaches at least row j + k - i of mu; at
        # i = k that makes nu = mu
        floor = rows[k - i:] + (0,) * (k - i)
        step = 8 * width * i
        grown: dict[tuple[int, ...], int] = {}
        for lam, value in shapes.items():
            size = sum(lam)
            # a horizontal strip: row j grows up to the old row above it
            tops = (rows[0] + 1, *(min(r, top) + 1 for r, top in zip(rows[1:], lam)))
            for nu in itertools.product(*map(range, map(max, lam, floor), tops)):
                grown[nu] = grown.get(nu, 0) + (value << step * (sum(nu) - size))
        shapes = grown
    return unpack(shapes.get(rows, 0), width)


class TreeFamily(_Value):
    """One tree family at fixed parameters, as both routes see it.

    trees(max_trees) enumerates the expansion trees, the same tuple on
    every call, and total is their degree.  difference(r) is the q^r
    minus q^(r-1) coefficient of the family's polynomial, computed
    without trees by the route named in messages.  references() lists
    named polynomials the tree terms must sum to, that polynomial first.
    where and degree_name word the error messages.
    """

    __slots__ = ("_where", "_degree_name", "_total", "_trees", "_route",
                 "_difference", "_references")
    _fields = ("where", "degree_name", "total", "trees", "route", "difference",
               "references")

    def __init__(self, where: str, degree_name: str, total: int,
                 trees: Callable[[int], tuple], route: str,
                 difference: Callable[[int], int],
                 references: Callable[[], tuple[tuple[str, QPoly], ...]]) -> None:
        self._where = where
        self._degree_name = degree_name
        self._total = total
        self._trees = trees
        self._route = route
        self._difference = difference
        self._references = references


def koh_family(n: int, k: int) -> TreeFamily:
    """The KOH trees of type (n, k), summing to q_binomial(n, k)."""
    return TreeFamily(
        f"n={n}, k={k}", "nk", n * k,
        lambda budget: enumerate_koh_trees(n, k, max_trees=budget), "rectangle",
        lambda r: count_in_rectangle(n, k, r) - count_in_rectangle(n, k, r - 1),
        lambda: (("reference", q_binomial(n, k)),
                 ("closed form", koh_rhs_closed(n, k))))


def goh_family(mu: Partition, k: int) -> TreeFamily:
    """The GOH trees of (mu, k), summing to s_mu(1, q, ..., q^k)."""
    # imported here: a kronecker query never compiles the GOH module
    from .goh import enumerate_goh_trees, goh_rhs_closed
    spec = functools.cache(lambda: hook_content(mu, k))
    return TreeFamily(
        f"mu={mu!r}, k={k}", "|mu|k", mu.size * k,
        functools.cache(lambda budget: enumerate_goh_trees(mu, k, max_trees=budget)),
        "specialization", lambda r: spec().coeff(r) - spec().coeff(r - 1),
        lambda: (("hook content", spec()), ("closed form", goh_rhs_closed(mu, k)),
                 ("tableau oracle", schur_specialization_oracle(mu, k))))


def _two_row(family: TreeFamily, rs: range, method: str,
             max_trees: int) -> tuple[CoefficientReport, ...]:
    """The coefficient at every r in rs: the one route for both families.

    The method and every r are checked before any tree is built.  The
    marked route builds the trees once, reads each leaf tuple once and
    marks it at every r.  With method both, the marked count must equal
    the difference at every r; the first disagreement raises
    CrossCheckFailedError.
    """
    _check_method(method)
    total, name = family.total, family.degree_name
    for r in rs:
        if r < 0 or 2 * r > total:
            raise PreconditionViolationError(
                f"need 0 <= 2r <= {name}, got r={r} with {name}={total}")
    if method == METHOD_DIFFERENCE:
        return tuple(CoefficientReport(family.difference(r), method) for r in rs)
    leaf_tuples = map(leaves, family.trees(max_trees))
    reports = []
    for r, witness in zip(rs, marked_counts(leaf_tuples, total, rs)):
        marked = sum(witness)
        if method == METHOD_BOTH:
            diff = family.difference(r)
            if marked != diff:
                raise CrossCheckFailedError(
                    f"marked trees give {marked} but the {family.route} "
                    f"difference gives {diff} for {family.where}, r={r}")
        reports.append(CoefficientReport(marked, method, witness))
    return tuple(reports)


def check_identities(family: TreeFamily, max_trees: int) -> None:
    """Check one cell of a family both ways, raising CrossCheckFailedError.

    The tree terms must sum to every reference polynomial, then the
    marked count must equal the difference at every r from 0 to half the
    degree.  The trees are read first, so the tree budget, the one budget
    of a cell, fails before any reference is computed.
    """
    total = family.total
    tree_sum = leaf_term_sum(total, [leaves(tree) for tree in family.trees(max_trees)])
    wrong = [f"the {ref} gives {p}"
             for ref, p in family.references() if p != tree_sum]
    if wrong:
        raise CrossCheckFailedError(
            f"tree terms sum to {tree_sum} but {' and '.join(wrong)} "
            f"for {family.where}")
    _two_row(family, range(total // 2 + 1), METHOD_BOTH, max_trees)


def marked_listing(family: TreeFamily, r: int,
                   max_trees: int) -> list[tuple[object, tuple[int, ...]]]:
    """Every (tree, marking) pair selecting coefficient r, in tree order.

    The pairs are counted before any marking is listed; more than
    max_trees of them raise BudgetExceededError.
    """
    (report,) = _two_row(family, range(r, r + 1), METHOD_MARKED, max_trees)
    if report.value > max_trees:
        raise BudgetExceededError(
            f"{report.value} marked trees exceed the budget {max_trees}")
    pairs = []
    for tree, count in zip(family.trees(max_trees), report.witness_counts):
        if count:
            lv = leaves(tree)
            pairs.extend((tree, marks) for marks in enumerate_markings(
                lv, marking_target(sum(lv), family.total, r)))
    return pairs


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
    return _two_row(koh_family(n, k), range(r, r + 1), method, max_trees)[0]


def plethysm_two_row(mu: Partition, k: int, r: int, method: str = METHOD_BOTH,
                     max_trees: int = DEFAULT_TREE_BUDGET) -> CoefficientReport:
    """Coefficient of the two-row Schur function (|mu|k - r, r) in the
    plethysm of mu with a single row of length k.

    >>> plethysm_two_row(Partition((2, 1)), 2, 2).value
    1
    """
    if not mu:
        raise PreconditionViolationError("the outer partition must be nonempty")
    if k < 1:
        raise PreconditionViolationError(f"the row length k must be positive, got {k}")
    return _two_row(goh_family(mu, k), range(r, r + 1), method, max_trees)[0]


def plethysm_two_row_general(lam: Partition, mu: Partition, nu: Partition,
                             method: str = METHOD_DIFFERENCE,
                             max_trees: int = DEFAULT_TREE_BUDGET) -> CoefficientReport:
    """Coefficient of s_lam in the plethysm of mu with nu, for lam with
    at most two rows.

    Reduces to the single-row case: zero when nu has three or more rows
    or when the second row of lam cannot absorb |mu| copies of nu's
    second row; otherwise strip those copies and compute the two-row
    coefficient for the row difference of nu.

    >>> plethysm_two_row_general(Partition((4, 2)), Partition((2,)), Partition((2, 1))).value
    1
    """
    _check_method(method)
    if len(lam) > 2:
        raise PreconditionViolationError(
            f"the target partition must have at most two rows, got {lam!r}")
    if lam.size != mu.size * nu.size:
        raise PreconditionViolationError(
            f"|lam| = {lam.size} must equal |mu| * |nu| = {mu.size * nu.size}")
    if not mu:
        return CoefficientReport(1, method)
    if len(nu) >= 3:
        return CoefficientReport(0, method)
    nu2 = nu[1] if len(nu) >= 2 else 0
    k = (nu[0] if nu else 0) - nu2
    lam2 = lam[1] if len(lam) >= 2 else 0
    if lam2 < mu.size * nu2:
        return CoefficientReport(0, method)
    theta2 = lam2 - mu.size * nu2
    if k == 0:
        theta1 = (lam[0] if lam else 0) - mu.size * nu2
        value = 1 if theta1 == 0 and theta2 == 0 and len(mu) <= 1 else 0
        return CoefficientReport(value, method)
    return plethysm_two_row(mu, k, theta2, method=method, max_trees=max_trees)
