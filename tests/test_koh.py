import functools
import inspect
import itertools
import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kohtrees import goh, koh, partitions, trees
from kohtrees.coefficients import koh_family
from kohtrees.errors import (BudgetExceededError, PreconditionViolationError,
                             StructureViolationError)
from kohtrees.goh import GohTree, enumerate_goh_trees, goh_family, goh_term
from kohtrees.koh import (count_koh_trees, enumerate_koh_trees, koh_marked_vector,
                          koh_rhs_closed, koh_term, leaves, marked_vector)
from kohtrees.partitions import Partition, enumerate_partitions
from kohtrees.qpoly import ONE, ZERO, q_binomial
from kohtrees.render import tree_to_dict, tree_to_dot
from kohtrees.trees import KohTree, leaf_sigma
from qpoly_oracles import poly_add, q_int
from tree_oracles import koh_tree_from_dict as tree_from_dict, validate_koh_tree


def rule_child_type(mu, a, j):
    """The child type along edge j of a node labeled (mu, a, |mu|), by the
    paper's rule."""
    return (a + 2) * j - 2 * mu.q_stat(j), mu.mult(j)


@functools.cache
def oracle_count(n, k):
    """Tree count by the loop over partitions that predates koh._productions."""
    if k == 1:
        return 1
    total = 0
    for mu in enumerate_partitions(k):
        prod = 1
        for j in mu.distinct_parts():
            ca, cb = rule_child_type(mu, n, j)
            if ca < 0:
                prod = 0
                break
            prod *= oracle_count(ca, cb)
        total += prod
    return total


@functools.cache
def oracle_trees(n, k):
    """Trees of type (n, k) built by the same loop, in canonical order."""
    if k == 1:
        return (KohTree(Partition((1,)), n, 1),)
    out = []
    for mu in enumerate_partitions(k):
        slots = []
        for j in mu.distinct_parts():
            ca, cb = rule_child_type(mu, n, j)
            if ca < 0:
                break
            slots.append(tuple((j, t) for t in oracle_trees(ca, cb)))
        else:
            for combo in itertools.product(*slots):
                out.append(KohTree(mu, n, k, combo))
    return tuple(out)


def oracle_closed(n, k):
    """The closed-form partition sum by the same loop."""
    total = ZERO
    for lam in enumerate_partitions(k):
        term = ONE.shift(2 * lam.b_stat())
        for j in lam.distinct_parts():
            ca, cb = rule_child_type(lam, n, j)
            if ca < 0:
                term = ZERO
                break
            term = term * q_binomial(ca, cb)
        total = poly_add(total, term)
    return total


def tree_sum(n, k):
    return functools.reduce(poly_add, map(koh_term, enumerate_koh_trees(n, k)), ZERO)


def depth_first_leaves(tree):
    """Leaf labels read by walking the tree, children in edge order."""
    if tree.is_leaf:
        return (tree.a,)
    return tuple(a for _, child in tree.children for a in depth_first_leaves(child))


def test_stored_leaf_tuples_match_a_depth_first_reading():
    for n in range(0, 8):
        for k in range(1, 7):
            for t in enumerate_koh_trees(n, k):
                assert leaves(t) == depth_first_leaves(t)


def test_leaf_term_is_the_shifted_product_of_q_integers():
    trees = [t for n in range(0, 9) for k in range(1, 9)
             for t in enumerate_koh_trees(n, k)]
    trees += [t for size in range(1, 7) for mu in enumerate_partitions(size)
              for k in range(1, 5) for t in enumerate_goh_trees(mu, k)]
    for t in trees:
        product = ONE
        for a in leaves(t):
            product = product * q_int(a)
        term = product.shift(leaf_sigma(t.degree, leaves(t)) // 2)
        assert (koh_term if t.family == "koh" else goh_term)(t) == term


def test_leaf_term_edge_cases():
    def leaf(a):
        return KohTree(Partition((1,)), a, 1)

    # a GOH root of degree k over the given leaves; the term reads only the
    # degree and the leaf labels, so one configuration serves every case
    config = enumerate_goh_trees(Partition((1,)), 1)[0].config

    def goh_tree(k, *labels):
        return GohTree(config, k, tuple((None, leaf(a)) for a in labels))

    def koh_tree(a, *labels):
        return KohTree(Partition((2,)), a, 2,
                       tuple((j, leaf(b)) for j, b in enumerate(labels, 1)))

    assert leaf_sigma(0, (0, 0, 0)) == 0
    assert koh_term(leaf(0)) == ONE
    assert goh_term(goh_tree(0, 0, 0, 0)) == ONE
    assert koh_term(koh_tree(0, 0, 0)) == ONE
    assert goh_term(goh_tree(3, 0, 3)) == q_int(3)
    # the last tree's defect is odd too, but its negative label fails first
    for term, tree in ((koh_term, koh_tree(1, 3, -1)), (goh_term, goh_tree(1, 2, -1)),
                       (koh_term, koh_tree(1, -1))):
        with pytest.raises(ValueError, match=r"packed_q_int needs a >= 0, got -1"):
            term(tree)
    for term, tree in (koh_term, koh_tree(1, 1)), (goh_term, goh_tree(2, 1)):
        with pytest.raises(StructureViolationError, match="odd defect 1 below"):
            term(tree)
    with pytest.raises(StructureViolationError, match="exceeds the degree 1$"):
        leaf_sigma(1, (2,))
    with pytest.raises(StructureViolationError, match="leaf sum 2 exceeds the degree 1$"):
        goh_term(goh_tree(1, 2))
    with pytest.raises(StructureViolationError, match="leaf sum 3 exceeds the degree 2$"):
        koh_term(koh_tree(1, 3))


def test_stored_leaf_tuple_is_not_part_of_the_value():
    assert list(inspect.signature(KohTree).parameters) == ["mu", "a", "b", "children"]
    t = enumerate_koh_trees(5, 4)[3]
    assert "leaf_values" not in repr(t)
    twin = KohTree(t.mu, t.a, t.b, t.children)
    twin._leaf_values = (99,)  # the slot behind the read-only leaf_values
    assert twin == t and hash(twin) == hash(t)
    assert not hasattr(t, "__dict__")


def test_a_tree_past_the_recursion_limit_hashes():
    # the last tree of type (2100, 2) is a chain of 1,051 inner nodes, and
    # the last GOH tree of ((2100,), 2) hangs it under its unlabeled edge:
    # deeper than the default recursion limit allows a walk to go, so each
    # node's hash is the one stored when it was built
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for deep in (enumerate_koh_trees(2100, 2)[-1],
                     enumerate_goh_trees(Partition((2100,)), 2)[-1]):
            assert hash(deep) == hash(deep._key(deep))
            assert deep in {deep}
    finally:
        sys.setrecursionlimit(limit)


def test_a_tree_past_the_recursion_limit_prints_and_compares():
    from kohtrees.errors import _Value
    # repr and == give what the field-by-field walk of _Value gives on
    # trees shallow enough for it
    small = enumerate_koh_trees(5, 4)
    for t in small + enumerate_koh_trees(4, 1) + enumerate_goh_trees(Partition((3, 1)), 3):
        assert repr(t) == _Value.__repr__(t)
    assert [[t == u for u in small] for t in small] == [
        [i == j for j in range(len(small))] for i in range(len(small))]
    deep = enumerate_koh_trees(2100, 2)[-1]
    deep_goh = enumerate_goh_trees(Partition((2100,)), 2)[-1]
    trees._TREES.clear()
    again = enumerate_koh_trees(2100, 2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text = repr(deep)
        assert again[-1] is not deep and again[-1] == deep and not again[-1] != deep
        assert again[-2] != deep and repr(again[-1]) == text
        # one KohTree per node: a chain of 1,051 inner nodes, then a leaf
        assert text.count("KohTree(") == 1052
        assert text.startswith("KohTree(mu=Partition([1, 1]), a=2100, b=2, children=((1, ")
        assert repr(deep_goh).endswith(f"(None, {text}),))")
        assert deep_goh == enumerate_goh_trees(Partition((2100,)), 2)[-1]
    finally:
        sys.setrecursionlimit(limit)


def test_child_type_formula():
    assert koh._child_types(Partition((4, 3, 1, 1)), 8) == [
        (1, (2, 2)), (3, (14, 1)), (4, (22, 1))]


def test_type_preconditions():
    with pytest.raises(PreconditionViolationError):
        enumerate_koh_trees(-1, 2)
    with pytest.raises(PreconditionViolationError):
        enumerate_koh_trees(2, 0)
    with pytest.raises(PreconditionViolationError):
        count_koh_trees(3, -1)


def test_single_leaf_type():
    ts = enumerate_koh_trees(5, 1)
    assert len(ts) == 1
    assert ts[0] == KohTree(Partition((1,)), 5, 1)
    assert leaves(ts[0]) == (5,)
    assert leaf_sigma(ts[0].degree, leaves(ts[0])) == 0


def test_count_matches_enumeration():
    for n in range(0, 7):
        for k in range(1, 7):
            assert count_koh_trees(n, k) == len(enumerate_koh_trees(n, k))


def test_productions_agree_with_the_loop_over_partitions():
    for n in range(0, 10):
        assert koh_rhs_closed(n, 0) == oracle_closed(n, 0)
        for k in range(1, 10):
            assert enumerate_koh_trees(n, k) == oracle_trees(n, k)
            assert count_koh_trees(n, k) == oracle_count(n, k)
            assert koh_rhs_closed(n, k) == oracle_closed(n, k)


def test_one_child_type_pass_per_node_label(monkeypatch):
    koh._productions.cache_clear()
    koh._COUNTS.clear()
    trees._TREES.clear()
    calls = []
    original = koh._child_types

    def counted(mu, a):
        calls.append((a, mu))
        return original(mu, a)

    monkeypatch.setattr(koh, "_child_types", counted)
    for n in range(0, 8):
        for k in range(1, 8):
            count_koh_trees(n, k)
            enumerate_koh_trees(n, k)
            koh_rhs_closed(n, k)
    assert calls
    assert len(calls) == len(set(calls))
    # counting, building and the closed form read the same cached productions
    assert len(calls) == sum(len(koh._productions(*t)) for t in {
        (a, mu.size) for a, mu in calls})


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 20).flatmap(lambda n: st.sampled_from(enumerate_partitions(n))),
       st.integers(0, 30))
def test_one_pass_child_types_follow_the_rule_edge_by_edge(mu, a):
    expected = [(j, rule_child_type(mu, a, j)) for j in mu.distinct_parts()]
    assert koh._child_types(mu, a) == expected


def filtered_productions(n, k):
    """Root labels by the rule _productions replaced: every partition of k
    with its child types, kept when no child width is negative."""
    typed = ((mu, koh._child_types(mu, n)) for mu in enumerate_partitions(k))
    return tuple((mu, types) for mu, types in typed
                 if all(ca >= 0 for _, (ca, _) in types))


def test_pruned_productions_match_filtering_after():
    for n in range(0, 13):
        for k in range(0, 15):
            assert koh._productions(n, k) == filtered_productions(n, k)


def test_productions_build_only_the_partitions_they_keep(monkeypatch):
    built = []
    original = koh._child_types

    def counted(mu, a):
        built.append(mu.parts)
        return original(mu, a)

    koh._productions.cache_clear()
    monkeypatch.setattr(koh, "_child_types", counted)
    # p(45) = 89,134, but only (45) has a nonnegative width at n = 0
    assert [mu.parts for mu, _ in koh._productions(0, 45)] == [(45,)]
    assert built == [(45,)]
    assert count_koh_trees(0, 1500) == 1
    koh._productions.cache_clear()


def test_thin_types_need_no_deep_recursion():
    # (a, 2) has the child (a - 2, 2) through mu = (1, 1): a chain of
    # a/2 levels, past the default recursion limit here
    assert count_koh_trees(3000, 2) == 1501
    trees = enumerate_koh_trees(600, 2)
    assert len(trees) == 301
    assert leaves(trees[0]) == (1200,) and leaves(trees[-1]) == (0,)
    depth, node = 0, trees[-1]
    while node.children:
        depth, node = depth + 1, node.children[-1][1]
    assert depth == 301


def test_known_tree_counts():
    assert count_koh_trees(8, 9) == 70
    assert count_koh_trees(12, 17) == 3003


def test_tree_sum_equals_gaussian_binomial():
    for n in range(0, 7):
        for k in range(1, 7):
            assert tree_sum(n, k) == q_binomial(n, k)


def test_closed_form_equals_gaussian_binomial():
    for n in range(0, 7):
        for k in range(0, 7):
            assert koh_rhs_closed(n, k) == q_binomial(n, k)


def test_enumeration_order_is_stable():
    first = enumerate_koh_trees(5, 4)
    second = enumerate_koh_trees(5, 4)
    assert first == second
    roots = [t.mu.parts for t in first]
    assert roots == sorted(roots, reverse=True)


def test_budget_enforced_before_materializing():
    with pytest.raises(BudgetExceededError):
        enumerate_koh_trees(8, 9, max_trees=69)
    assert len(enumerate_koh_trees(8, 9, max_trees=70)) == 70


def test_budget_is_checked_before_any_tree_is_built(monkeypatch):
    def no_trees(*args, **kwargs):
        raise AssertionError("a tree was built over budget")

    koh._COUNTS.clear()
    monkeypatch.setattr(trees, "KohTree", no_trees)
    monkeypatch.setattr(trees, "_tree_table", no_trees)
    with pytest.raises(BudgetExceededError, match="70 trees"):
        enumerate_koh_trees(8, 9, max_trees=69)


def test_no_budget_argument_means_the_default_budget(monkeypatch):
    def no_trees(*args, **kwargs):
        raise AssertionError("a tree was built over budget")

    monkeypatch.setattr(trees, "_tree_table", no_trees)
    with pytest.raises(BudgetExceededError,
                       match=r"40116600 trees of type \(28, 28\) exceed "
                             f"the budget {koh.DEFAULT_TREE_BUDGET}$"):
        enumerate_koh_trees(28, 28)


def test_sigma_even_and_nonnegative():
    for n in range(0, 6):
        for k in range(1, 6):
            for t in enumerate_koh_trees(n, k):
                s = leaf_sigma(t.degree, leaves(t))
                assert s >= 0 and s % 2 == 0


def test_sigma_rejects_malformed_trees():
    odd = KohTree(Partition((2,)), 2, 2, ((2, KohTree(Partition((1,)), 1, 1)),))
    with pytest.raises(StructureViolationError, match="odd defect"):
        leaf_sigma(odd.degree, leaves(odd))
    negative = KohTree(Partition((2,)), 0, 2,
                       ((2, KohTree(Partition((1,)), 5, 1)),))
    with pytest.raises(StructureViolationError):
        leaf_sigma(negative.degree, leaves(negative))


def test_validate_accepts_all_enumerated_trees():
    for n in range(0, 10):
        for k in range(1, 8):
            for t in enumerate_koh_trees(n, k):
                validate_koh_tree(t, expected_type=(n, k))


def test_validate_rejects_wrong_root_type():
    t = enumerate_koh_trees(3, 2)[0]
    with pytest.raises(StructureViolationError):
        validate_koh_tree(t, expected_type=(3, 3))


def test_validate_rejects_bad_leaf():
    with pytest.raises(StructureViolationError):
        validate_koh_tree(KohTree(Partition((2,)), 4, 1))
    with pytest.raises(StructureViolationError):
        validate_koh_tree(KohTree(Partition((1,)), -1, 1))


def test_validate_rejects_wrong_child_type():
    good = KohTree(Partition((2,)), 1, 2,
                   ((2, KohTree(Partition((1,)), 2, 1)),))
    validate_koh_tree(good)
    bad = KohTree(Partition((2,)), 1, 2,
                  ((2, KohTree(Partition((1,)), 3, 1)),))
    with pytest.raises(StructureViolationError):
        validate_koh_tree(bad)


def test_validate_rejects_missing_edge():
    with pytest.raises(StructureViolationError):
        validate_koh_tree(KohTree(Partition((2,)), 1, 2, ()))


def tree_with_a_leaf_child():
    """A tree of type (3, 2) whose first child is a leaf, as a payload."""
    (tree,) = [t for t in enumerate_koh_trees(3, 2) if t.children[0][1].is_leaf]
    return tree_to_dict(tree)


def test_from_dict_rejects_missing_and_extra_edges():
    good = tree_with_a_leaf_child()
    tree_from_dict(good)
    extra = {"edge": 1, "tree": {"mu": [1], "a": 0, "b": 1, "children": []}}
    for children in ([], good["children"] + good["children"],
                     good["children"] + [extra]):
        with pytest.raises(StructureViolationError, match="do not match"):
            tree_from_dict(dict(good, children=children))


def test_from_dict_rejects_a_wrong_child_type():
    good = tree_with_a_leaf_child()
    first = good["children"][0]
    leaf = dict(first["tree"], a=first["tree"]["a"] + 1)
    children = [dict(first, tree=leaf)] + good["children"][1:]
    with pytest.raises(StructureViolationError, match="!= expected"):
        tree_from_dict(dict(good, children=children))


def test_validation_lists_no_partitions_of_the_payload_size(monkeypatch):
    def unbounded(*args):
        raise AssertionError(f"listed partitions: {args}")

    # the places the package lists partitions
    monkeypatch.setattr(koh, "_productions", unbounded)
    monkeypatch.setattr(partitions, "enumerate_partitions", unbounded)
    tree = KohTree(Partition((60,)), 0, 60, ((60, KohTree(Partition((1,)), 0, 1)),))
    validate_koh_tree(tree)
    assert leaves(tree) == (0,)


def test_json_round_trip():
    for n, k in ((4, 3), (5, 4), (2, 5)):
        for t in enumerate_koh_trees(n, k):
            assert tree_from_dict(json.loads(json.dumps(tree_to_dict(t)))) == t


def test_dict_includes_marks_when_given():
    t = enumerate_koh_trees(3, 1)[0]
    d = tree_to_dict(t, marks=(0,), r=0)
    assert d["marks"] == [0] and d["r"] == 0


def test_from_dict_rejects_garbage():
    with pytest.raises(StructureViolationError):
        tree_from_dict({"mu": [1]})
    # a node whose partition of 5 has rows 3 and 2 needs two edges
    with pytest.raises(StructureViolationError, match="do not match"):
        tree_from_dict({"mu": [3, 2], "a": 1, "b": 5, "children": []})


@pytest.mark.parametrize("value", ["3", 3.5, 3.0, True])
def test_from_dict_rejects_a_number_field_that_is_not_an_int(value):
    for field in ("a", "b"):
        leaf = dict({"mu": [1], "a": 3, "b": 1, "children": []}, **{field: value})
        with pytest.raises(StructureViolationError,
                           match=f"{field} must be an integer"):
            tree_from_dict(leaf)
    good = tree_to_dict(enumerate_koh_trees(3, 2)[0])
    children = [dict(good["children"][0], edge=value)] + good["children"][1:]
    with pytest.raises(StructureViolationError, match="edge must be an integer"):
        tree_from_dict(dict(good, children=children))
    with pytest.raises(StructureViolationError, match="parts must be positive integers"):
        tree_from_dict(dict(good, mu=[value, 1]))


def test_dot_output_shape():
    t = enumerate_koh_trees(8, 9)[0]
    dot = tree_to_dot(t)
    assert dot.startswith("digraph koh {")
    assert dot.rstrip().endswith("}")
    assert "->" in dot


def test_dot_marks_attach_circles():
    t = enumerate_koh_trees(3, 1)[0]
    dot = tree_to_dot(t, marks=(0,), r=1)
    assert 'label="r = 1"' in dot
    assert "shape=circle" in dot
    assert "style=dashed" in dot


small_cells = st.one_of(
    st.tuples(st.just("koh"), st.integers(0, 8), st.integers(1, 6)),
    st.tuples(st.just("goh"),
              st.integers(1, 6).flatmap(lambda size: st.sampled_from(
                  enumerate_partitions(size))),
              st.integers(1, 4)))


def cell_family(cell):
    name, shape, k = cell
    if name == "koh":
        return koh_family(shape, k), enumerate_koh_trees(shape, k)
    return goh_family(shape, k), enumerate_goh_trees(shape, k)


@settings(max_examples=150, deadline=None)
@given(small_cells, st.data())
@example(("koh", 6, 6), None)
@example(("goh", Partition((2, 2)), 3), None)
def test_the_marked_route_counts_every_marking_of_every_tree(cell, data):
    # the vectors against brute force: every tree built, its markings at
    # each r listed one by one
    from kohtrees.coefficients import METHOD_MARKED, two_row_counts
    from kohtrees.marking import enumerate_markings, marking_target
    family, trees = cell_family(cell)
    total = family.total
    listed = tuple(sum(len(enumerate_markings(lv, marking_target(sum(lv), total, r)))
                       for lv in map(leaves, trees))
                   for r in range(total // 2 + 1))
    assert two_row_counts(family, range(total // 2 + 1), METHOD_MARKED,
                          10 ** 7) == listed
    # and at one r, from an empty cache, with the vectors cut at r
    r = total // 2 if data is None else data.draw(st.integers(0, total // 2))
    koh._MARKED.clear()
    assert two_row_counts(family, range(r, r + 1), METHOD_MARKED,
                          10 ** 7) == listed[r:r + 1]


@settings(max_examples=150, deadline=None)
@given(small_cells, st.data())
def test_a_capped_vector_matches_the_full_vector_below_its_cap(cell, data):
    family, trees = cell_family(cell)
    full = family.marked(10 ** 7, family.total)
    assert len(full) == family.total // 2 + 1
    # the number of (tree, marking) pairs over every r: the trees' terms
    # at q = 1, summed from the middle of the degree down
    assert sum(full) == sum(koh_term(t).coeff(family.total // 2) if cell[0] == "koh"
                            else goh_term(t).coeff(family.total // 2) for t in trees)
    cap = data.draw(st.integers(0, family.total // 2))
    koh._MARKED.clear()
    fresh = cell_family(cell)[0]
    assert fresh.marked(10 ** 7, cap) == full[:cap + 1]


def test_a_capped_vector_reads_no_child_vector_for_a_label_past_the_cap(monkeypatch):
    koh._MARKED.clear()
    full = koh_marked_vector(12, 12, 72)
    koh._MARKED.clear()
    # every type the call reads is filled at its cap first
    koh_marked_vector(12, 12, 3)
    read = []

    class Recorded(dict):
        def __getitem__(self, ctype):
            read.append(ctype)
            return dict.__getitem__(self, ctype)

    monkeypatch.setattr(koh, "_MARKED", Recorded(koh._MARKED))
    productions = koh._productions(12, 12)
    assert marked_vector(productions, 144, 3) == full[:4]
    # a label whose own shift passes 3 reads no child vector
    kept = [types for _, types in productions
            if 144 - sum(a * b for _, (a, b) in types) <= 2 * 3]
    assert 0 < len(kept) < len(productions)
    assert read == [ctype for types in kept for _, ctype in types]


def _reachable_caps(n, k, cap):
    """The cap of every type that a marked vector of the type (n, k) cut
    at cap reads, by the definition: a child type's cap is the largest
    that a parent label within its parent's cap asks, the parent's cap,
    cut at half its degree, minus the label's own shift."""
    caps = {(n, k): cap}
    todo = [(n, k)]
    while todo:
        a, b = todo.pop()
        if b == 1:
            continue
        top = min(caps[a, b], a * b // 2)
        for _, types in koh._productions(a, b):
            own = (a * b - sum(x * y for _, (x, y) in types)) // 2
            for _, ctype in types:
                if own <= top and caps.get(ctype, -1) < top - own:
                    caps[ctype] = top - own
                    todo.append(ctype)
    return caps


def test_a_capped_query_fills_only_the_types_its_labels_read(monkeypatch):
    from kohtrees.coefficients import METHOD_MARKED, kronecker_two_row
    monkeypatch.setattr(koh, "_MARKED", {})
    koh._COUNTS.clear()
    koh._productions.cache_clear()
    assert kronecker_two_row(24, 24, 10, method=METHOD_MARKED).value == 12
    caps = _reachable_caps(24, 24, 10)
    # every type below 24 x 24 has a tree count, and only the reachable
    # ones a vector, each as long as the largest cap its parents read
    assert len(koh._COUNTS) == 559
    assert koh._MARKED.keys() == caps.keys() and len(caps) == 21
    for (a, b), vector in koh._MARKED.items():
        assert len(vector) == min(caps[a, b], a * b // 2) + 1, (a, b)
    # the same r from the uncapped vectors
    koh._MARKED.clear()
    assert koh_marked_vector(24, 24, 288)[10] == 12


def _query(family):
    return st.tuples(st.just(family), st.integers(0, family.total // 2))


marked_queries = st.lists(st.one_of(
    st.tuples(st.integers(0, 12), st.integers(1, 12)).flatmap(
        lambda cell: _query(koh_family(*cell))),
    st.tuples(st.integers(1, 7).flatmap(
                  lambda size: st.sampled_from(enumerate_partitions(size))),
              st.integers(1, 5)).flatmap(lambda cell: _query(goh_family(*cell)))),
    min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(marked_queries)
def test_capped_queries_sharing_the_tables_match_the_uncapped_vector(queries):
    # one process's vectors, filled at whatever caps the queries before
    # asked for, against the coefficient differences at every r up to the
    # query's, which the vectors cut at no cap must equal
    koh._MARKED.clear()
    for family, r in queries:
        vector = family.marked(10 ** 7, r)
        assert vector[:r + 1] == list(family.difference(range(r + 1))), (
            family.where, r)


def test_the_marked_vectors_keep_the_budget():
    from kohtrees.qpoly import q_binomial
    vector = koh_marked_vector(16, 16, 128)
    # every (tree, marking) pair: the middle coefficient of the binomial
    assert (len(vector), sum(vector)) == (129, q_binomial(16, 16).coeff(128))
    assert goh_family(Partition((2, 2)), 3).marked(4, 6) == [0, 0, 1, 0, 2, 0, 1]
    with pytest.raises(BudgetExceededError,
                       match=r"^70 trees of type \(8, 9\) exceed the budget 69$"):
        koh_marked_vector(8, 9, 10, max_trees=69)
    assert koh_marked_vector(8, 9, 10, max_trees=70)[10] == 10 == (
        q_binomial(8, 9).coeff(10) - q_binomial(8, 9).coeff(9))
    with pytest.raises(BudgetExceededError,
                       match=r"^4 trees for \(Partition\(\[2, 2\]\), 3\) exceed "
                             r"the budget 3$"):
        goh_family(Partition((2, 2)), 3).marked(3, 6)


def test_every_type_below_14_12_has_the_cayley_sylvester_vector():
    # Cayley-Sylvester: the copies of V_(ab-2j) in the type (a, b) number
    # c_j - c_(j-1), the first differences of the Gaussian binomial; every
    # type reachable from a cell with n <= 14 and k <= 12, filled in full
    from kohtrees.qpoly import q_binomial
    koh._MARKED.clear()
    for n in range(15):
        for k in range(1, 13):
            koh_marked_vector(n, k, n * k)
    assert len(koh._MARKED) == 370
    for (a, b), vector in koh._MARKED.items():
        c = q_binomial(a, b).coeffs
        assert vector == [c[j] - (c[j - 1] if j else 0)
                          for j in range(a * b // 2 + 1)], (a, b)
