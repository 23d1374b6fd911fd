"""Two-row Kronecker and plethysm coefficients, two independent ways.

Both coefficient families sit inside a symmetric unimodal polynomial:
the Gaussian binomial for Kronecker, a principal Schur specialization
for plethysm.  The coefficient indexed by r is the difference between
the q^r and q^(r-1) coefficients, and it also counts marked expansion
trees whose marking total works out to r.  Running both routes and
comparing them catches implementation drift in either one.  The marked
route reads the family's leaf table, each distinct leaf tuple with its
number of trees, and builds no tree; only a report's witness_counts,
read on demand, does.

The Kronecker difference route counts partitions in a box and needs
nothing else, so the koh, marking, qpoly and goh modules load inside the
functions that use them: a query compiles only the routes it runs.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

from .errors import (DEFAULT_TREE_BUDGET, CrossCheckFailedError,
                     BudgetExceededError, NonExactDivisionError,
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


def _q_int_ratio(tops: list[int], bottoms: list[int]) -> QPoly:
    """The product of the q-integers [a + 1]_q over tops divided by the
    product over bottoms, which must be a polynomial with nonnegative
    coefficients, else NonExactDivisionError.

    One exact division of packed ints at the width of the numerator's
    value at q = 1, which bounds every coefficient involved.  A remainder
    raises, and so does a quotient whose value at q = 1 times the
    denominator's is not the numerator's, as when the polynomial quotient
    has a negative coefficient ([6]_q / ([2]_q [3]_q) = 1 - q + q^2).

    >>> _q_int_ratio([3], [1]).coeffs
    (1, 0, 1)
    """
    from .qpoly import pack_width, packed_q_int, unpack
    num_at_1 = math.prod(a + 1 for a in tops)
    width = pack_width(num_at_1)
    quot, rem = divmod(math.prod(packed_q_int(a, width) for a in tops),
                       math.prod(packed_q_int(a, width) for a in bottoms))
    ratio = unpack(quot, width)
    if rem or sum(ratio.coeffs) * math.prod(a + 1 for a in bottoms) != num_at_1:
        raise NonExactDivisionError(
            f"the q-integers {tops} are not a multiple of the q-integers {bottoms}")
    return ratio


def hook_content(mu: Partition, k: int) -> QPoly:
    """s_mu(1, q, ..., q^k) as a polynomial in q.

    Shift q^b(mu) times the ratio, over the cells of mu, of
    (1 - q^(k + 1 + col - row)) to (1 - q^hook).  Zero as soon as mu
    has more than k + 1 rows.

    >>> hook_content(Partition((2, 1)), 2).coeffs
    (0, 1, 2, 2, 2, 1)
    """
    from .qpoly import ONE, ZERO
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
    return _q_int_ratio([k + j - i for i, j in cells],
                        [mu.parts[i - 1] + conj[j - 1] - i - j for i, j in cells]
                        ).shift(mu.b_stat())


class _StripPass:
    """The horizontal-strip pass for one shape mu, extended on demand.

    state is (width, shapes, values) after the entries 0..i run so far:
    shapes maps each shape inside mu that fillings with those entries
    reach to the sum of q^|T| over them, packed at width, and values[i]
    is s_mu(1, q, ..., q^i).  At most (i+1)^|mu| fillings bound every
    coefficient, so the width grows with i and the shapes are repacked.
    An extension stores its new state in one step, so a concurrent
    caller reads the old state or the new one, whole.
    """

    __slots__ = ("rows", "state")

    def __init__(self, rows: tuple[int, ...]) -> None:
        self.rows = rows
        self.state = (1, {(0,) * len(rows): 1}, ())

    def value(self, k: int) -> QPoly:
        """s_mu(1, q, ..., q^k), running the entries up to k not yet run."""
        from .qpoly import pack, pack_width, unpack
        rows = self.rows
        width, shapes, values = self.state
        for i in range(len(values), k + 1):
            wider = pack_width((i + 1) ** sum(rows))
            if wider != width:
                shapes = {lam: pack(unpack(value, width), wider)
                          for lam, value in shapes.items()}
                width = wider
            step = 8 * width * i
            # the strip of entry i, one row at a time from the bottom: row
            # j grows up to the row above it, which has not grown yet
            for j in reversed(range(len(rows))):
                grown: dict[tuple[int, ...], int] = {}
                cap = rows[j]
                for lam, value in shapes.items():
                    low = lam[j]
                    top = min(cap, lam[j - 1]) if j else cap
                    grown[lam] = grown.get(lam, 0) + value
                    if low < top:
                        head, tail = lam[:j], lam[j + 1:]
                        for part in range(low + 1, top + 1):
                            value <<= step
                            nu = head + (part,) + tail
                            grown[nu] = grown.get(nu, 0) + value
                shapes = grown
            values += (unpack(shapes.get(rows, 0), width),)
            self.state = width, shapes, values
        return values[k]


@functools.lru_cache(maxsize=8)
def _strip_pass(rows: tuple[int, ...]) -> _StripPass:
    return _StripPass(rows)


def schur_specialization_oracle(mu: Partition, k: int) -> QPoly:
    """s_mu(1, q, ..., q^k) as the sum of q^|T| over semistandard fillings.

    Fillings use entries 0..k, weakly increasing along rows and strictly
    down columns.  The cells holding entries up to i form a shape lam^i:
    a filling is a chain of shapes inside mu ending at lam^k = mu, each
    step a horizontal strip adding i times its size to |T|.  One pass
    per entry carries every reachable shape with its polynomial; the
    shapes after entry i do not depend on k, so one pass per shape, kept
    for the last few shapes (_strip_pass), answers every k.  Its work
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
    return _strip_pass(mu.parts).value(k)


class TreeFamily(_Value):
    """One tree family at fixed parameters, as both routes see it.

    trees(max_trees) enumerates the expansion trees and leaf_table(
    max_trees) maps their leaf tuples to tree counts, each the same on
    every call; total is their degree.  difference(rs) gives, for each r
    of the nonempty ascending range rs, the q^r minus q^(r-1) coefficient
    of the family's polynomial, without trees, by the route named in
    messages.  references() names the polynomials the tree terms must
    sum to, that one first.  where and degree_name word the errors.
    """

    __slots__ = ("_where", "_degree_name", "_total", "_trees", "_leaf_table",
                 "_route", "_difference", "_references")
    _fields = ("where", "degree_name", "total", "trees", "leaf_table", "route",
               "difference", "references")

    def __init__(self, where: str, degree_name: str, total: int,
                 trees: Callable[[int], tuple], leaf_table: Callable[[int], dict],
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

    def leaf_table(budget: int) -> dict:
        from .koh import koh_leaf_table
        return koh_leaf_table(n, k, max_trees=budget)

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


def goh_family(mu: Partition, k: int) -> TreeFamily:
    """The GOH trees of (mu, k), summing to s_mu(1, q, ..., q^k)."""
    if k < 1:
        # the one-node tree of k = 0 has no leaf to mark or write a term for
        raise PreconditionViolationError(f"the row length k must be positive, got {k}")
    from .goh import enumerate_goh_trees, goh_leaf_table, goh_rhs_closed
    spec = functools.cache(lambda: hook_content(mu, k))
    return TreeFamily(
        f"mu={mu!r}, k={k}", "|mu|k", mu.size * k,
        functools.cache(lambda budget: enumerate_goh_trees(mu, k, max_trees=budget)),
        functools.cache(lambda budget: goh_leaf_table(mu, k, max_trees=budget)),
        "specialization",
        lambda rs: tuple(spec().coeff(r) - spec().coeff(r - 1) for r in rs),
        lambda: (("hook content", spec()), ("closed form", goh_rhs_closed(mu, k)),
                 ("tableau oracle", schur_specialization_oracle(mu, k))))


def _two_row(family: TreeFamily, rs: range, method: str,
             max_trees: int) -> tuple[CoefficientReport, ...]:
    """The coefficient at every r in rs: the one route for both families.

    The method and every r are checked before the trees are counted.
    The marked route marks each tuple of the family's leaf table at every
    r, weighted by its trees; a report's witness_counts builds the trees
    when read.  With method both, the marked count must equal the
    difference at every r, which one call gives for the whole range; the
    first disagreement in r order raises CrossCheckFailedError.
    """
    _check_method(method)
    total, name = family.total, family.degree_name
    for r in rs:
        if r < 0 or 2 * r > total:
            raise PreconditionViolationError(
                f"need 0 <= 2r <= {name}, got r={r} with {name}={total}")
    if method == METHOD_DIFFERENCE:
        return tuple(CoefficientReport(diff, method)
                     for diff in family.difference(rs))
    from .marking import marked_counts

    def witnesses(r: int) -> tuple[int, ...]:
        from .koh import leaves
        from .marking import witness_counts
        return witness_counts(map(leaves, family.trees(max_trees)), total, r)

    counts = marked_counts(family.leaf_table(max_trees).items(), total, rs)
    reports = tuple(CoefficientReport(count, method, functools.partial(witnesses, r))
                    for r, count in zip(rs, counts))
    if method == METHOD_BOTH:
        # one difference call for every r, after the tree count, so that
        # the budget fails first
        for r, report, diff in zip(rs, reports, family.difference(rs)):
            if report.value != diff:
                raise CrossCheckFailedError(
                    f"marked trees give {report.value} but the {family.route} "
                    f"difference gives {diff} for {family.where}, r={r}")
    return reports


def check_identities(family: TreeFamily, max_trees: int) -> None:
    """Check one cell of a family both ways, raising CrossCheckFailedError.

    The tree terms must sum to every reference polynomial, then the
    marked count must equal the difference at every r from 0 to half the
    degree.  The leaf table is read first, so the tree budget, the one
    budget of a cell, fails before any reference is computed.
    """
    from .koh import leaf_term_sum
    total = family.total
    tree_sum = leaf_term_sum(total, family.leaf_table(max_trees).items())
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
    from .koh import leaves
    from .marking import enumerate_markings, marking_target
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
