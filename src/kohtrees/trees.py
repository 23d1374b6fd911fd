"""Expansion trees built node by node: the KOH tree node, the tree
builder over production lists of either family, the leaf-term sums and
the closed form.

KohTree is one node of a tree of type (n, k) (see koh for the child
rule); tree tuples are filled bottom up per type through koh._fill, as
counts and marked vectors are, and build_trees takes the product of the
children's tuples over any production list, so GOH trees are built here
too.  leaf_term_sum is the one kernel for products of q-integers, and
closed_form sums each label's child types as q-binomials.

Only what reads trees or polynomial references loads this module: the
listings, JSON witnesses, the closed forms and verify.  A coefficient
query counts (tree, marking) pairs in koh and builds no tree.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Collection, Sequence

from .errors import StructureViolationError, _Value
from .koh import _fill, _productions
from .partitions import Partition

_LEAF_MU = Partition((1,))


class KohTree(_Value):
    """Tree node; children are (edge label, subtree) pairs, edges ascending.

    family and child_key name the tree in DOT output and its subtrees in
    the dict form; root_fields() gives the root label in that form.
    leaf_values, the leaf labels in depth-first order, is computed once
    when the node is built, from its children's stored tuples; it takes
    no part in equality, hashing or repr.  The hash of the fields is
    stored the same way, from the children's stored hashes, so hashing a
    tree takes one step whatever its depth.
    """

    __slots__ = ("_mu", "_a", "_b", "_children", "_leaf_values", "_hash")
    _fields = ("mu", "a", "b", "children")
    family = "koh"
    child_key = "tree"

    def __init__(self, mu: Partition, a: int, b: int,
                 children: tuple[tuple[int, KohTree], ...] = ()) -> None:
        self._mu = mu
        self._a = a
        self._b = b
        self._children = children
        if b == 1:
            self._leaf_values = (a,)
        else:
            values = ()
            for _, child in children:
                values += child._leaf_values
            self._leaf_values = values
        self._hash = hash((mu, a, b, children))

    def __hash__(self) -> int:
        return self._hash

    # equality and repr walk the nodes with an explicit stack, so that a
    # chain deeper than the recursion limit, such as the last tree of
    # type (2100, 2), compares and prints; the stored hashes tell most
    # unequal nodes apart at once
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            x, y = todo.pop()
            if x is y:
                continue
            if (x._hash != y._hash or x.__class__ is not y.__class__
                    or (x._mu, x._a, x._b) != (y._mu, y._a, y._b)
                    or len(x._children) != len(y._children)):
                return False
            for (edge, child), (other_edge, other_child) in zip(x._children, y._children):
                if edge != other_edge:
                    return False
                todo.append((child, other_child))
        return True

    def __repr__(self) -> str:
        out, todo = [], [self]
        while todo:
            item = todo.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            kids = item._children
            pieces = [f"{type(item).__qualname__}(mu={item._mu!r}, a={item._a!r}, "
                      f"b={item._b!r}, children=("]
            for i, (edge, child) in enumerate(kids):
                pieces += [f"{', ' if i else ''}({edge!r}, ", child, ")"]
            # a tuple of one pair prints with a trailing comma
            pieces.append(",))" if len(kids) == 1 else "))")
            todo.extend(reversed(pieces))
        return "".join(out)

    @property
    def is_leaf(self) -> bool:
        return self._b == 1

    @property
    def degree(self) -> int:
        return self._a * self._b

    def root_fields(self) -> dict:
        return {"mu": list(self._mu.parts), "a": self._a, "b": self._b}


def build_trees(productions: Sequence[tuple[object, list]],
                node: Callable[..., object], *fixed: object) -> tuple:
    """node(label, *fixed, children) for every label and every choice of
    one KOH subtree per child type, labels in order and later edges
    varying fastest."""
    out = []
    for label, types in productions:
        choices = itertools.product(*[[(edge, t) for t in _tree_table(*ctype)]
                                      for edge, ctype in types])
        out.extend(map(functools.partial(node, label, *fixed), choices))
    return tuple(out)


def closed_form(productions: Sequence[tuple[object, list]],
                shift: Callable[[object], int]) -> QPoly:
    """The sum over labels of q^shift(label) times the product of
    q_binomial at each of the label's child types: the trees' term sum
    with every KOH subtree slot summed in closed form."""
    from .qpoly import q_binomial, sum_of_products
    return sum_of_products(
        (shift(label), [q_binomial(*ctype) for _, ctype in types])
        for label, types in productions)


# tree tuples by type, each type filled once
_TREES: dict[tuple[int, int], tuple[KohTree, ...]] = {}


def _build_type(n: int, k: int, cap: None) -> tuple[KohTree, ...]:
    if k == 1:
        return (KohTree(_LEAF_MU, n, 1),)
    return build_trees(_productions(n, k), KohTree, n, k)


def _tree_table(n: int, k: int) -> tuple[KohTree, ...]:
    """Every tree of type (n, k), from _TREES, first building each type
    below it that the table lacks; the caller checks the budget."""
    if (n, k) not in _TREES:
        _fill(_TREES, _build_type, {(n, k): None})
    return _TREES[n, k]


def leaf_sigma(degree: int, leaf_values: tuple[int, ...]) -> int:
    """The tree degree minus the leaf sum; even and nonnegative on valid
    trees of either family."""
    s = degree - sum(leaf_values)
    if s < 0:
        raise StructureViolationError(
            f"leaf sum {sum(leaf_values)} exceeds the degree {degree}")
    if s % 2:
        raise StructureViolationError(f"odd defect {s} below the degree {degree}")
    return s


def leaf_term_sum(degree: int,
                  pairs: Collection[tuple[tuple[int, ...], int]]) -> QPoly:
    """The sum over the (leaf tuple, multiplicity) pairs of
    the multiplicity times q^(sigma/2) times the product of [a + 1]_q
    over the tuple's labels a, sigma being degree minus the tuple's sum;
    the one kernel for products of q-integers, on packed ints.

    The width comes from the sum at q = 1, the sum over the pairs of the
    multiplicity times the product of the a + 1, so the terms fit it
    whatever they sum to.
    """
    from .qpoly import pack_width, packed_q_int, unpack
    width = pack_width(sum(ways * math.prod(a + 1 for a in lv)
                           for lv, ways in pairs))
    q_ints: dict[int, int] = {}
    total = 0
    for lv, ways in pairs:
        term = ways
        for a in lv:
            if a not in q_ints:
                q_ints[a] = packed_q_int(a, width)
            term *= q_ints[a]
        total += term << (8 * width * (leaf_sigma(degree, lv) // 2))
    return unpack(total, width)
