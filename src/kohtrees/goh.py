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
slot_types reads P^i_j off it.  _under_ceiling keeps what
the rule implies for the levels still to come: a ceiling that prunes a
level from above.

A chain depends only on lam; k keeps the chains whose level 1 has at
most k parts and adds the unlabeled slot.  So the chains are walked
once per (lam, level-1 partition) and kept in blocks, which
enumerate_configurations joins for the level-1 partitions a call asks
for, and each configuration computes its labeled slots (P^i_j,
mult_j(nu^i)) once, on first read (slot_types).  A configuration with
its child types has the shape of a KOH production, and
_typed_configurations caches the production list per (lam, k), as
koh._productions does per type.  So counting, building, the marked
vector and the closed form are the ones koh uses for its own trees
(koh.count_trees, trees.build_trees, koh.marked_vector,
trees.closed_form).  goh_rhs_closed reads the trees' own chain list,
each slot's KOH trees summed as a q-binomial; hook content and the
tableau oracle are the references independent of both.

goh_family is the plethysm family that both coefficient routes read,
with those three references.  The builder, the term sums and the closed
form load from trees where they run, so a plethysm query loads no tree
code; the general plethysm reduction and the tableau oracle's strip
pass live in general.  A kronecker query loads none of this module.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .coefficients import TreeFamily
from .errors import DEFAULT_TREE_BUDGET, PreconditionViolationError, _Value
from .koh import _check_budget, count_trees, leaves, marked_vector
from .partitions import Partition, enumerate_partitions


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
def _level(size: int, n: int) -> tuple[tuple[Partition, tuple[int, ...]], ...]:
    """The partitions of size in canonical order, each with its column sums."""
    return tuple((nu, _column_sums(nu, n)) for nu in enumerate_partitions(size))


@functools.cache
def _under_ceiling(mid: Partition, left: int, size: int, n: int
                   ) -> tuple[tuple[Partition, tuple[int, ...]], ...]:
    """The entries of _level(size, n) whose column sums are at most
    left Q(mid) // (left + 1) in every column.

    The differences Q(nu^i) - Q(nu^{i-1}) only grow with i, since the
    chain rule makes their steps nonnegative, and Q(nu^l) = 0.  So a
    level above mid with left levels still to come satisfies
    (left + 1) Q(nu) <= left Q(mid) in every column.  The ceiling rules
    out most of a level, and many chains share their top level, so the
    survivors are kept per (mid, left, size).
    """
    ceiling = [left * s // (left + 1) for s in _column_sums(mid, n)]
    return tuple((nu, sums) for nu, sums in _level(size, n)
                 if all(map(operator.le, sums, ceiling)))


class Configuration(_Value):
    """An admissible chain of partitions below a fixed shape.

    slot_types holds (slot (i, j), (P^i_j, mult_j(nu^i))) for every
    occupied slot, i ascending and then j: the labeled child types of
    every tree over the chain, whatever k is.  It is computed on first
    read (__getattr__ runs only while the slot is unset), so a chain
    with too few levels for P^i_j still builds, and it takes no part in
    equality, hashing or repr.  _typed_configurations reads it for every k.
    """

    __slots__ = ("_lam", "_nus", "_slot_types")
    _fields = ("lam", "nus")

    def __init__(self, lam: Partition, nus: tuple[Partition, ...]) -> None:
        self._lam = lam
        self._nus = nus

    def __getattr__(self, name: str):
        if name != "_slot_types":
            raise AttributeError(name)
        nus, n = self._nus, self._lam.size
        types = []
        for i in range(1, len(self._lam)):
            # P^i_j is Q_j(nu^(i+1)) minus the floor, both vectors fetched once
            # per level
            upper, floor = _column_sums(nus[i + 1], n), _floor(nus[i - 1], nus[i], n)
            types += [((i, j), (upper[j] - floor[j], nus[i].mult(j)))
                      for j in nus[i].distinct_parts()]
        self._slot_types = types = tuple(types)
        return types

    def m_stat(self) -> int:
        """Number of parts of nu^1 (first entry of its conjugate)."""
        return len(self._nus[1])

    def tau_stat(self) -> int:
        """Power shift of the configuration.

        Sum over 1 <= i < len(lam) and columns j up to |lam| of
        alpha^i_j (alpha^i_j - alpha^{i+1}_j), with alpha^i the
        conjugate of nu^i padded with zeros.  No level has a part above
        |lam|, so the columns past |lam| are zero and the sum runs over
        consecutive conjugates padded to a common length.
        """
        alphas = [nu.conjugate().parts for nu in self._nus[1:]]
        return sum(a * (a - b)
                   for upper, lower in zip(alphas, alphas[1:])
                   for a, b in itertools.zip_longest(upper, lower, fillvalue=0))


def _check_shape(lam: Partition) -> None:
    if not lam:
        raise PreconditionViolationError("the shape partition must be nonempty")


@functools.cache
def _level_one(lam: Partition) -> tuple[Partition, tuple[Partition, ...]]:
    """nu^0 = (1^n) of lam, and the level-1 candidates under its ceiling
    in canonical order."""
    n = lam.size
    root = Partition((1,) * n)
    return root, tuple(nu for nu, _ in _under_ceiling(root, len(lam) - 1,
                                                       n - lam[0], n))


# (lam, level-1 partition) -> the chains below that level 1, in canonical
# order; enumerate_configurations walks each block on its first use
_BLOCKS: dict[tuple[Partition, Partition], tuple[Configuration, ...]] = {}


def _walk(lam: Partition, nu1: Partition) -> tuple[Configuration, ...]:
    """The admissible chains of lam whose level 1 is nu1, depth first,
    levels filled in canonical order.  Each level keeps only the
    partitions whose column sums lie on or above the floor its two lower
    levels set, and on or below the ceiling the level under it sets for
    the levels still to come."""
    ell, n = len(lam), lam.size
    sizes = [sum(lam.parts[i:]) for i in range(ell + 1)]
    found: list[Configuration] = []
    # chains still to extend, the next one on top: a depth-first walk
    # with no self-referencing closure
    todo: list[tuple[Partition, ...]] = [(_level_one(lam)[0], nu1)]
    while todo:
        chain = todo.pop()
        depth = len(chain)
        if depth == ell + 1:
            found.append(Configuration(lam, chain))
            continue
        floor = _floor(chain[-2], chain[-1], n)
        todo.extend(chain + (nu,) for nu, sums in reversed(
                        _under_ceiling(chain[-1], ell - depth, sizes[depth], n))
                    if all(map(operator.ge, sums, floor)))
    return tuple(found)


def enumerate_configurations(lam: Partition, m_max: int | None = None
                             ) -> tuple[Configuration, ...]:
    """All admissible chains for lam whose level 1 has at most m_max
    parts (all of them when m_max is None), levels filled in canonical
    partition order: the chains, and their order, that filtering all of
    them on m_stat() <= m_max gives.

    The walk below each level-1 partition is one block, walked once per
    shape and kept (_BLOCKS); a call joins the blocks of the level-1
    candidates with at most m_max parts, in canonical order.  So a sweep
    over k walks each chain once, and a single query only its own.
    """
    _check_shape(lam)
    found: list[Configuration] = []
    for nu1 in _level_one(lam)[1]:
        if m_max is None or len(nu1) <= m_max:
            block = _BLOCKS.get((lam, nu1))
            if block is None:
                block = _BLOCKS[lam, nu1] = _walk(lam, nu1)
            found.extend(block)
    return tuple(found)


class GohTree(_Value):
    """Root configuration with one expansion subtree per child type.

    children holds (edge, subtree) pairs in the order of the child types
    _typed_configurations gives: the configuration's slot_types, the
    occupied (i, j) slots lexicographically, then the unlabeled
    subtree under edge None when m_stat < k.  The class attributes, the
    properties and leaf_values (the subtrees' stored leaf tuples joined
    in edge order, set at construction and left out of equality, hashing
    and repr) give the node view KohTree gives, so leaves() and the
    writers take either family.  The hash of the fields is stored at
    construction too, from the subtrees' stored hashes, as KohTree's is.
    """

    __slots__ = ("_config", "_k", "_children", "_leaf_values", "_hash")
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
        self._hash = hash((config, k, children))

    def __hash__(self) -> int:
        return self._hash

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


@functools.cache
def _typed_configurations(lam: Partition, k: int
                          ) -> tuple[tuple[Configuration, list], ...]:
    """Each configuration of lam with m_stat <= k, in canonical order,
    with its child types: its slot_types, then (|lam|, k - m) under edge
    None when m = m_stat < k.  Counting, building and the closed form
    share one list, computed once per (lam, k) from the shape's chains,
    which are walked once whatever k asks for them."""
    _check_shape(lam)
    if k < 0:
        raise PreconditionViolationError(f"k must be nonnegative, got {k}")
    n = lam.size
    typed = []
    for config in enumerate_configurations(lam, k):
        m = config.m_stat()
        types = list(config.slot_types)
        if m < k:
            types.append((None, (n, k - m)))
        typed.append((config, types))
    return tuple(typed)


def goh_rhs_closed(lam: Partition, k: int) -> QPoly:
    """Configuration sum equal to s_lam(1, q, ..., q^k).

    Each chain with m_stat <= k contributes q^tau times the product of
    q_binomial at its child types: (P^i_j, m_j) on each occupied slot,
    and (|lam|, k - m) when m < k (at m = k that factor would be 1).
    """
    from .trees import closed_form
    return closed_form(_typed_configurations(lam, k), Configuration.tau_stat)


def _budgeted(lam: Partition, k: int, max_trees: int) -> tuple:
    """The production list of (lam, k), once its trees are counted and
    found within max_trees; more raise BudgetExceededError."""
    typed = _typed_configurations(lam, k)
    _check_budget(count_trees(typed), f"for ({lam!r}, {k})", max_trees)
    return typed


def enumerate_goh_trees(lam: Partition, k: int,
                        max_trees: int = DEFAULT_TREE_BUDGET) -> tuple[GohTree, ...]:
    """All trees for (lam, k): configurations in canonical order, then the
    product of subtree choices with later edges varying fastest, so the
    unlabeled subtree varies fastest of all.  The trees are counted first:
    more than max_trees raise BudgetExceededError before any is built."""
    from .trees import build_trees
    return build_trees(_budgeted(lam, k, max_trees), GohTree, k)


def goh_leaves(tree: GohTree) -> tuple[int, ...]:
    """Leaf labels: labeled subtrees in edge order, then the unlabeled one."""
    return leaves(tree)


def goh_term(tree: GohTree) -> QPoly:
    """q^(sigma/2) times the product of [leaf + 1]_q over all leaves."""
    from .trees import leaf_term_sum
    return leaf_term_sum(tree.degree, ((goh_leaves(tree), 1),))


def goh_family(mu: Partition, k: int) -> TreeFamily:
    """The GOH trees of (mu, k), summing to s_mu(1, q, ..., q^k)."""
    if k < 1:
        # the one-node tree of k = 0 has no leaf to mark or write a term for
        raise PreconditionViolationError(f"the row length k must be positive, got {k}")
    # the references, read from coefficients on each call
    from .coefficients import hook_content, schur_specialization_oracle
    # what the family computes once: hook content under None, the trees
    # under their budget, a marked vector under (budget, cap)
    memo: dict = {}

    def spec() -> QPoly:
        poly = memo.get(None)
        if poly is None:
            poly = memo[None] = hook_content(mu, k)
        return poly

    def trees(budget: int) -> tuple:
        found = memo.get(budget)
        if found is None:
            found = memo[budget] = enumerate_goh_trees(mu, k, max_trees=budget)
        return found

    def marked(budget: int, cap: int) -> list[int]:
        vector = memo.get((budget, cap))
        if vector is None:
            vector = memo[budget, cap] = marked_vector(
                _budgeted(mu, k, budget), mu.size * k, cap)
        return vector

    def difference(rs: range) -> tuple[int, ...]:
        poly = spec()
        return tuple(poly.coeff(r) - poly.coeff(r - 1) for r in rs)

    def references() -> tuple[tuple[str, QPoly], ...]:
        return (("hook content", spec()), ("closed form", goh_rhs_closed(mu, k)),
                ("tableau oracle", schur_specialization_oracle(mu, k)))

    return TreeFamily(f"mu={mu!r}, k={k}", "|mu|k", mu.size * k, trees,
                      marked, "specialization", difference, references)
