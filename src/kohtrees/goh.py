"""Configurations and trees expanding a principal Schur specialization.

A configuration for a partition lam of n with l rows is a chain of
partitions nu^0, ..., nu^l where nu^0 = (1^n), each |nu^i| equals the
sum of the rows of lam strictly below row i (so nu^l is empty), and
the mixed second difference

    P^i_j = Q_j(nu^{i+1}) - 2 Q_j(nu^i) + Q_j(nu^{i-1})

is nonnegative for 1 <= i < l and 1 <= j <= n, with Q_j the sum of the
first j conjugate parts.  A tree for (lam, k) hangs one q-binomial
expansion tree of type (P^i_j, mult_j(nu^i)) on each (i, j) with
mult_j(nu^i) > 0, plus, when m = len(nu^1) < k, one extra unlabeled
subtree of type (n, k - m).  Summing q^(sigma/2) times the product of
[leaf + 1]_q over all trees gives s_lam(1, q, ..., q^k).

_floor states the chain rule once, on cached column-sum vectors:
enumeration keeps a level only at or above it in every column, and
p_stat (so validation) reads P^i_j off it.  _ceiling is what the rule
implies for the levels still to come, and prunes a level from above.
_child_types states the child rule once; counting, enumeration, the
closed form, validation and parsing all read it.  The slot types do not depend on k,
so each configuration keeps them once computed.  A configuration with
its child types has the shape of a KOH production, so counting,
building, the closed form and the child check are the ones koh uses
for its own trees (koh.count_trees, koh.build_trees, koh.closed_form,
koh.check_children).  goh_rhs_closed reads the trees' own chain list,
each slot's KOH trees summed as a q-binomial; hook content and the
tableau oracle are the references independent of both.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .errors import (BudgetExceededError, PreconditionViolationError,
                     StructureViolationError)
from .koh import (DEFAULT_TREE_BUDGET, KohTree, build_trees, check_children,
                  closed_form, count_trees, leaf_term_sum, leaves, payload_int)
from .koh import tree_from_dict as koh_from_dict
from .partitions import Partition, enumerate_partitions
from .qpoly import QPoly, _Value


@functools.cache
def _column_sums(nu: Partition, n: int) -> tuple[int, ...]:
    """(Q_0(nu), ..., Q_n(nu)): Q_j is the sum of the first j conjugate
    parts, so index j reads column j.

    >>> _column_sums(Partition((3, 1)), 4)
    (0, 2, 3, 4, 4)
    """
    conj = nu.conjugate().parts
    return tuple(itertools.accumulate(
        (conj[j] if j < len(conj) else 0 for j in range(n)), initial=0))


@functools.cache
def _floor(lower: Partition, mid: Partition, n: int) -> tuple[int, ...]:
    """2 Q(mid) - Q(lower), column by column.

    This is the chain rule, stated once: the level above mid is
    admissible when its column sums are at least this floor in every
    column, and P_j is its column sum minus floor_j.
    """
    mid_sums = _column_sums(mid, n)
    return tuple(map(operator.sub, map(operator.add, mid_sums, mid_sums),
                     _column_sums(lower, n)))


@functools.cache
def _ceiling(mid: Partition, left: int, n: int) -> tuple[int, ...]:
    """left Q(mid) // (left + 1), column by column.

    The differences Q(nu^i) - Q(nu^{i-1}) only grow with i, since the
    chain rule makes their steps nonnegative, and Q(nu^l) = 0.  So a
    level above mid with left levels still to come satisfies
    (left + 1) Q(nu) <= left Q(mid) in every column: its column sums
    are at most this ceiling.
    """
    return tuple(left * s // (left + 1) for s in _column_sums(mid, n))


@functools.cache
def _level(size: int, n: int) -> tuple[tuple[Partition, tuple[int, ...]], ...]:
    """The partitions of size in canonical order, each with its column sums."""
    return tuple((nu, _column_sums(nu, n)) for nu in enumerate_partitions(size))


class Configuration(_Value):
    """An admissible chain of partitions below a fixed shape.

    slot_types, the labeled child types of a tree over the chain, does
    not depend on k: it is None until _child_types first needs it, then
    kept.  enumerate_configurations caches a shape's configurations, once
    per level-1 bound, so a configuration's slot types are computed once
    per list that holds it.  It takes no part in equality, hashing or
    repr.
    """

    __slots__ = ("_lam", "_nus", "_slot_types")
    _fields = ("lam", "nus")

    def __init__(self, lam: Partition, nus: tuple[Partition, ...]) -> None:
        self._lam = lam
        self._nus = nus
        self._slot_types = None

    def p_stat(self, i: int, j: int) -> int:
        """Mixed second difference at level i, column j.

        Defined for 1 <= i < len(lam) and 1 <= j <= |lam|.
        """
        ell, n = len(self._lam), self._lam.size
        if not (1 <= i < ell) or not (1 <= j <= n):
            raise IndexError(
                f"p_stat index (i={i}, j={j}) outside 1..{ell - 1} x 1..{n}")
        nus = self._nus
        return _column_sums(nus[i + 1], n)[j] - _floor(nus[i - 1], nus[i], n)[j]

    def m_stat(self) -> int:
        """Number of parts of nu^1 (first entry of its conjugate)."""
        return len(self._nus[1])

    def tau_stat(self) -> int:
        """Power shift of the configuration.

        Sum over 1 <= i < len(lam) and columns j up to |lam| of
        alpha^i_j (alpha^i_j - alpha^{i+1}_j), with alpha^i the
        conjugate of nu^i padded with zeros.
        """
        n = self._lam.size
        alphas = [nu.conjugate().parts for nu in self._nus]

        def col(i: int, j: int) -> int:
            row = alphas[i]
            return row[j - 1] if j <= len(row) else 0

        return sum(col(i, j) * (col(i, j) - col(i + 1, j))
                   for i in range(1, len(self._lam))
                   for j in range(1, n + 1))


def _check_shape(lam: Partition) -> None:
    if not lam:
        raise PreconditionViolationError("the shape partition must be nonempty")


def validate_configuration(config: Configuration) -> None:
    """Check chain admissibility, raising StructureViolationError."""
    lam, nus = config.lam, config.nus
    if not lam:
        raise StructureViolationError("the shape partition must be nonempty")
    ell, n = len(lam), lam.size
    if len(nus) != ell + 1:
        raise StructureViolationError(
            f"expected {ell + 1} chain levels, got {len(nus)}")
    if nus[0] != Partition((1,) * n):
        raise StructureViolationError(f"level 0 must be (1^{n}), got {nus[0]!r}")
    for i in range(ell + 1):
        want = sum(lam.parts[i:])
        if nus[i].size != want:
            raise StructureViolationError(
                f"level {i} must have size {want}, got {nus[i]!r}")
    for i in range(1, ell):
        for j in range(1, n + 1):
            if config.p_stat(i, j) < 0:
                raise StructureViolationError(
                    f"negative second difference at (i={i}, j={j})")


def enumerate_configurations(lam: Partition, m_max: int | None = None
                             ) -> tuple[Configuration, ...]:
    """All admissible chains for lam whose level 1 has at most m_max
    parts (all of them when m_max is None), levels filled in canonical
    partition order: the chains, and their order, that filtering all of
    them on m_stat() <= m_max gives.  Each level keeps only the
    partitions whose column sums lie on or above the floor its two lower
    levels set, and on or below the ceiling the level under it sets for
    the levels still to come.

    Level 1 has |lam| - lam_1 cells, so no more parts: every m_max from
    there on asks for all chains, and shares their cache entry.
    """
    _check_shape(lam)
    cells = lam.size - lam.parts[0]
    return _configurations(lam, cells if m_max is None else min(m_max, cells))


@functools.cache
def _configurations(lam: Partition, m_max: int) -> tuple[Configuration, ...]:
    ell, n = len(lam), lam.size
    levels = [_level(sum(lam.parts[i:]), n) for i in range(1, ell + 1)]
    found: list[Configuration] = []
    # chains still to extend, the next one on top: a depth-first walk
    # with no self-referencing closure
    todo: list[tuple[Partition, ...]] = [(Partition((1,) * n),)]
    while todo:
        chain = todo.pop()
        depth = len(chain)
        if depth == ell + 1:
            found.append(Configuration(lam, chain))
            continue
        ceiling = _ceiling(chain[-1], ell - depth, n)
        options = [(nu, sums) for nu, sums in levels[depth - 1]
                   if all(map(operator.le, sums, ceiling))]
        if depth == 1:
            options = [(nu, sums) for nu, sums in options if len(nu) <= m_max]
        else:
            floor = _floor(chain[-2], chain[-1], n)
            options = [(nu, sums) for nu, sums in options
                       if all(map(operator.ge, sums, floor))]
        todo.extend(chain + (nu,) for nu, _ in reversed(options))
    return tuple(found)


class GohTree(_Value):
    """Root configuration with one expansion subtree per child type.

    children holds (edge, subtree) pairs in the order _child_types gives:
    the occupied (i, j) slots lexicographically, then the unlabeled
    subtree under edge None when m_stat < k.  The class attributes, the
    properties and leaf_values (the subtrees' stored leaf tuples joined
    in edge order, set at construction and left out of equality, hashing
    and repr) give the node view KohTree gives, so leaves() and the
    writers take either family.
    """

    __slots__ = ("_config", "_k", "_children", "_leaf_values")
    _fields = ("config", "k", "children")
    family = "goh"
    child_key = "koh"
    is_leaf = False

    def __init__(self, config: Configuration, k: int,
                 children: tuple[tuple[tuple[int, int] | None, KohTree], ...]) -> None:
        self._config = config
        self._k = k
        self._children = children
        values = ()
        for _, child in children:
            values += child._leaf_values
        self._leaf_values = values

    @property
    def lam(self) -> Partition:
        return self._config.lam

    @property
    def degree(self) -> int:
        return self.lam.size * self._k

    def root_fields(self) -> dict:
        return {"lambda": list(self.lam.parts),
                "config": [list(nu.parts) for nu in self.config.nus],
                "k": self.k}


def _child_types(config: Configuration, k: int
                 ) -> list[tuple[tuple[int, int] | None, tuple[int, int]]]:
    """(edge, KOH type) of every subtree of a tree for (config, k), in edge
    order: (P^i_j, mult_j(nu^i)) on each occupied slot (i, j), then
    (|lam|, k - m) under edge None when m = m_stat < k.  Needs m <= k.
    The slot types are kept on the configuration (slot_types)."""
    types = config._slot_types
    if types is None:
        nus = config.nus
        types = config._slot_types = tuple(
            ((i, j), (config.p_stat(i, j), nus[i].mult(j)))
            for i in range(1, len(config.lam)) for j in nus[i].distinct_parts())
    m = config.m_stat()
    if m < k:
        return [*types, (None, (config.lam.size, k - m))]
    return list(types)


def _typed_configurations(lam: Partition, k: int
                          ) -> list[tuple[Configuration, list]]:
    """Each configuration of lam with m_stat <= k, in canonical order,
    with its child types: counting, building and the closed form share
    one list."""
    _check_shape(lam)
    if k < 0:
        raise PreconditionViolationError(f"k must be nonnegative, got {k}")
    return [(config, _child_types(config, k))
            for config in enumerate_configurations(lam, k)]


def goh_rhs_closed(lam: Partition, k: int) -> QPoly:
    """Configuration sum equal to s_lam(1, q, ..., q^k).

    Each chain with m_stat <= k contributes q^tau times the product of
    q_binomial at its child types: (P^i_j, m_j) on each occupied slot,
    and (|lam|, k - m) when m < k (at m = k that factor would be 1).
    """
    return closed_form(_typed_configurations(lam, k), Configuration.tau_stat)


def count_goh_trees(lam: Partition, k: int) -> int:
    """Number of trees for (lam, k), without materializing them."""
    return count_trees(_typed_configurations(lam, k))


def enumerate_goh_trees(lam: Partition, k: int,
                        max_trees: int = DEFAULT_TREE_BUDGET) -> tuple[GohTree, ...]:
    """All trees for (lam, k): configurations in canonical order, then the
    product of subtree choices with later edges varying fastest, so the
    unlabeled subtree varies fastest of all.  The trees are counted first:
    more than max_trees raise BudgetExceededError before any is built."""
    typed = _typed_configurations(lam, k)
    if (total := count_trees(typed)) > max_trees:
        raise BudgetExceededError(
            f"{total} trees for ({lam!r}, {k}) exceed the budget {max_trees}")
    return build_trees(typed, GohTree, k)


def goh_leaves(tree: GohTree) -> tuple[int, ...]:
    """Leaf labels: labeled subtrees in edge order, then the unlabeled one."""
    return leaves(tree)


def goh_term(tree: GohTree) -> QPoly:
    """q^(sigma/2) times the product of [leaf + 1]_q over all leaves."""
    return leaf_term_sum(tree.degree, (goh_leaves(tree),))


def validate_goh_tree(tree: GohTree) -> None:
    """Check the root and every subtree, raising StructureViolationError."""
    validate_configuration(tree.config)
    if tree.k < 0:
        raise StructureViolationError(f"k must be nonnegative, got {tree.k}")
    m = tree.config.m_stat()
    if m > tree.k:
        raise StructureViolationError(
            f"m_stat {m} exceeds k = {tree.k}; no such tree exists")
    check_children(tree, _child_types(tree.config, tree.k))


# --- reading the dict form back ---

def tree_from_dict(data: dict) -> GohTree:
    """Parse the dict form back into a validated tree."""
    try:
        lam = Partition(data["lambda"])
        nus = tuple(Partition(p) for p in data["config"])
        k = payload_int(data["k"], "k")
        children = tuple((None if entry["edge"] is None
                          else tuple(payload_int(x, "edge") for x in entry["edge"]),
                          koh_from_dict(entry["koh"]))
                         for entry in data["children"])
    except StructureViolationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureViolationError(f"malformed tree payload: {exc}") from exc
    tree = GohTree(Configuration(lam, nus), k, children)
    validate_goh_tree(tree)
    return tree
