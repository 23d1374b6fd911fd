"""Trees that expand a Gaussian binomial into shifted products of q-integers.

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
_child_types, the per-node rule (validation reads only that, since a
payload's b is unbounded).  Counting, building and the closed form read
it; counts and tree tuples are filled bottom up over the types below
the one asked for (_fill), never by recursing down a chain of types.
count_trees, build_trees, closed_form and check_children serve both
families: a GOH configuration with its child types is a production too.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Sequence

from .errors import (BudgetExceededError, PreconditionViolationError,
                     StructureViolationError)
from .partitions import Partition
from .qpoly import (QPoly, _Value, pack_width, packed_q_int, q_binomial,
                    sum_of_products, unpack)

_LEAF_MU = Partition((1,))

# the tree budget of both families' enumerators when a caller names none
DEFAULT_TREE_BUDGET = 10 ** 7


class KohTree(_Value):
    """Tree node; children are (edge label, subtree) pairs, edges ascending.

    family and child_key name the tree in DOT output and its subtrees in
    the dict form; root_fields() gives the root label in that form.
    leaf_values, the leaf labels in depth-first order, is computed once
    when the node is built, from its children's stored tuples; it takes
    no part in equality, hashing or repr.
    """

    __slots__ = ("_mu", "_a", "_b", "_children", "_leaf_values")
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

    @property
    def is_leaf(self) -> bool:
        return self._b == 1

    @property
    def degree(self) -> int:
        return self._a * self._b

    def root_fields(self) -> dict:
        return {"mu": list(self._mu.parts), "a": self._a, "b": self._b}


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


def build_trees(productions: Sequence[tuple[object, list]],
                node: Callable[..., object], *fixed: object) -> tuple:
    """node(label, *fixed, children) for every label and every choice of
    one KOH subtree per child type, labels in order and later edges
    varying fastest."""
    out = []
    for label, types in productions:
        slots = [tuple((edge, t) for t in _tree_table(*ctype))
                 for edge, ctype in types]
        out.extend(map(functools.partial(node, label, *fixed),
                       itertools.product(*slots)))
    return tuple(out)


def closed_form(productions: Sequence[tuple[object, list]],
                shift: Callable[[object], int]) -> QPoly:
    """The sum over labels of q^shift(label) times the product of
    q_binomial at each of the label's child types: the trees' term sum
    with every KOH subtree slot summed in closed form."""
    return sum_of_products(
        (shift(label), [q_binomial(*ctype) for _, ctype in types])
        for label, types in productions)


def check_children(tree, types: list) -> None:
    """Check that tree's edges are the edges of its child types, in order,
    and that each subtree is a valid KOH tree of its type, raising
    StructureViolationError."""
    edges = [edge for edge, _ in tree.children]
    if edges != [edge for edge, _ in types]:
        raise StructureViolationError(
            f"edges {edges} do not match the child slots "
            f"{[edge for edge, _ in types]}")
    for (_, child), (_, ctype) in zip(tree.children, types):
        validate_koh_tree(child, expected_type=ctype)


def _fill(table: dict, n: int, k: int, value: Callable[[int, int], object]):
    """table[n, k], first setting table[t] = value(*t) for every type t
    reachable from (n, k) that the table lacks, children before parents.

    A child type has a smaller b, or the same b and a smaller a (only
    mu = (1^b) keeps b, with a' = a + 2 - 2b), so ascending (b, a) puts
    children first.  Filling in that order instead of recursing keeps
    the stack flat on thin types: (a, 2) has a chain of about a/2 levels.
    """
    if (n, k) not in table:
        todo, seen = [(n, k)], {(n, k)}
        for a, b in todo:
            if b > 1:
                for _, types in _productions(a, b):
                    for _, ctype in types:
                        if ctype not in seen and ctype not in table:
                            seen.add(ctype)
                            todo.append(ctype)
        for a, b in sorted(todo, key=lambda t: (t[1], t[0])):
            table[a, b] = value(a, b)
    return table[n, k]


# tree counts and tree tuples by type, each type filled once
_COUNTS: dict[tuple[int, int], int] = {}
_TREES: dict[tuple[int, int], tuple[KohTree, ...]] = {}


def _count_type(n: int, k: int) -> int:
    return 1 if k == 1 else count_trees(_productions(n, k))


def _build_type(n: int, k: int) -> tuple[KohTree, ...]:
    if k == 1:
        return (KohTree(_LEAF_MU, n, 1),)
    return build_trees(_productions(n, k), KohTree, n, k)


def count_koh_trees(n: int, k: int) -> int:
    """Number of trees of type (n, k), computed without materializing them."""
    _check_type(n, k)
    return _fill(_COUNTS, n, k, _count_type)


def _tree_table(n: int, k: int) -> tuple[KohTree, ...]:
    return _fill(_TREES, n, k, _build_type)


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
    if (total := count_koh_trees(n, k)) > max_trees:
        raise BudgetExceededError(
            f"{total} trees of type ({n}, {k}) exceed the budget {max_trees}")
    return _tree_table(n, k)


def leaves(tree) -> tuple[int, ...]:
    """Leaf labels in depth-first order, children taken in edge order.

    Works on a tree of either family: a GohTree is an inner node whose
    children are KOH subtrees.  The tuple is the one stored when the
    tree was built.
    """
    return tree.leaf_values


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


def leaf_term_sum(degree: int, leaf_tuples: Sequence[tuple[int, ...]]) -> QPoly:
    """The sum over leaf_tuples of q^(sigma/2) times the product of
    [a + 1]_q over the tuple's labels a, sigma being degree minus the
    tuple's sum; the one kernel for products of q-integers, on packed ints.

    The width comes from the sum at q = 1, the sum over the tuples of
    the product of their a + 1, so the terms fit it whatever they sum to.
    """
    width = pack_width(sum(math.prod(a + 1 for a in lv) for lv in leaf_tuples))
    q_ints: dict[int, int] = {}
    total = 0
    for lv in leaf_tuples:
        term = 1
        for a in lv:
            if a not in q_ints:
                q_ints[a] = packed_q_int(a, width)
            term *= q_ints[a]
        total += term << (8 * width * (leaf_sigma(degree, lv) // 2))
    return unpack(total, width)


def sigma(tree) -> int:
    """The tree's degree minus its leaf sum, for a tree of either family;
    even and nonnegative on valid trees."""
    return leaf_sigma(tree.degree, leaves(tree))


def koh_term(tree: KohTree) -> QPoly:
    """q^(sigma/2) times the product of [leaf + 1]_q over the leaves."""
    return leaf_term_sum(tree.degree, (leaves(tree),))


def koh_rhs_closed(n: int, k: int) -> QPoly:
    """Closed-form partition sum equal to q_binomial(n, k).

    For each partition lam of k: q^(2 b_stat) times the product over the
    distinct row lengths of q_binomial at the child type.  Partitions
    with a negative child width are left out, matching the pruned trees.
    """
    if n < 0 or k < 0:
        raise PreconditionViolationError(
            f"closed form needs n >= 0 and k >= 0, got ({n}, {k})")
    return closed_form(_productions(n, k), lambda lam: 2 * lam.b_stat())


def validate_koh_tree(tree: KohTree, expected_type: tuple[int, int] | None = None) -> None:
    """Check every structural constraint, raising StructureViolationError.

    Passing expected_type additionally pins down (tree.a, tree.b).
    """
    if expected_type is not None and (tree.a, tree.b) != expected_type:
        raise StructureViolationError(
            f"root type ({tree.a}, {tree.b}) != expected {expected_type}")
    if tree.a < 0 or tree.b < 1:
        raise StructureViolationError(
            f"node type ({tree.a}, {tree.b}) out of range")
    if tree.mu.size != tree.b:
        raise StructureViolationError(
            f"label partition {tree.mu!r} does not sum to b = {tree.b}")
    if tree.is_leaf:
        if tree.mu != _LEAF_MU or tree.children:
            raise StructureViolationError(f"malformed leaf {tree!r}")
        return
    check_children(tree, _child_types(tree.mu, tree.a))


# --- reading the dict form back ---

def payload_int(value, field: str) -> int:
    """A number field of a tree payload, which must be an int and not a
    bool; anything else raises StructureViolationError."""
    if type(value) is not int:
        raise StructureViolationError(
            f"malformed tree payload: {field} must be an integer, got {value!r}")
    return value


def _tree_from_dict(data: dict) -> KohTree:
    try:
        mu = Partition(data["mu"])
        a, b = payload_int(data["a"], "a"), payload_int(data["b"], "b")
        children = tuple((payload_int(entry["edge"], "edge"),
                          _tree_from_dict(entry["tree"]))
                         for entry in data["children"])
    except StructureViolationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureViolationError(f"malformed tree payload: {exc}") from exc
    return KohTree(mu, a, b, children)


def tree_from_dict(data: dict) -> KohTree:
    """Parse the dict form back into a validated tree."""
    tree = _tree_from_dict(data)
    validate_koh_tree(tree)
    return tree
