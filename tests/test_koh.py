import functools
import inspect
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohtrees import koh
from kohtrees.errors import (BudgetExceededError, PreconditionViolationError,
                             StructureViolationError)
from kohtrees.goh import enumerate_goh_trees, goh_term
from kohtrees.koh import (KohTree, count_koh_trees, enumerate_koh_trees,
                          koh_rhs_closed, koh_term, leaf_term_sum, leaves,
                          sigma, tree_from_dict, validate_koh_tree)
from kohtrees.partitions import Partition, enumerate_partitions
from kohtrees.qpoly import ONE, ZERO, q_binomial, q_int
from kohtrees.render import tree_to_dict, tree_to_dot


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
        total = total + term
    return total


def tree_sum(n, k):
    return sum((koh_term(t) for t in enumerate_koh_trees(n, k)), start=ZERO)


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
                back = tree_from_dict(tree_to_dict(t))
                assert leaves(back) == depth_first_leaves(t)


def test_leaf_term_is_the_shifted_product_of_q_integers():
    trees = [t for n in range(0, 9) for k in range(1, 9)
             for t in enumerate_koh_trees(n, k)]
    trees += [t for size in range(1, 7) for mu in enumerate_partitions(size)
              for k in range(1, 5) for t in enumerate_goh_trees(mu, k)]
    for t in trees:
        product = ONE
        for a in leaves(t):
            product = product * q_int(a)
        term = product.shift(sigma(t) // 2)
        assert leaf_term_sum(t.degree, (leaves(t),)) == term
        assert (koh_term if t.family == "koh" else goh_term)(t) == term


def test_stored_leaf_tuple_is_not_part_of_the_value():
    assert list(inspect.signature(KohTree).parameters) == ["mu", "a", "b", "children"]
    t = enumerate_koh_trees(5, 4)[3]
    assert "leaf_values" not in repr(t)
    twin = KohTree(t.mu, t.a, t.b, t.children)
    twin._leaf_values = (99,)  # the slot behind the read-only leaf_values
    assert twin == t and hash(twin) == hash(t)
    assert not hasattr(t, "__dict__")


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
    assert sigma(ts[0]) == 0


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
    koh._TREES.clear()
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
    monkeypatch.setattr(koh, "KohTree", no_trees)
    monkeypatch.setattr(koh, "_tree_table", no_trees)
    with pytest.raises(BudgetExceededError, match="70 trees"):
        enumerate_koh_trees(8, 9, max_trees=69)


def test_no_budget_argument_means_the_default_budget(monkeypatch):
    def no_trees(*args, **kwargs):
        raise AssertionError("a tree was built over budget")

    monkeypatch.setattr(koh, "_tree_table", no_trees)
    with pytest.raises(BudgetExceededError,
                       match=r"40116600 trees of type \(28, 28\) exceed "
                             f"the budget {koh.DEFAULT_TREE_BUDGET}$"):
        enumerate_koh_trees(28, 28)


def test_sigma_even_and_nonnegative():
    for n in range(0, 6):
        for k in range(1, 6):
            for t in enumerate_koh_trees(n, k):
                s = sigma(t)
                assert s >= 0 and s % 2 == 0


def test_sigma_rejects_malformed_trees():
    odd = KohTree(Partition((2,)), 2, 2, ((2, KohTree(Partition((1,)), 1, 1)),))
    with pytest.raises(StructureViolationError, match="odd defect"):
        sigma(odd)
    negative = KohTree(Partition((2,)), 0, 2,
                       ((2, KohTree(Partition((1,)), 5, 1)),))
    with pytest.raises(StructureViolationError):
        sigma(negative)


def test_validate_accepts_all_enumerated_trees():
    for n in range(0, 6):
        for k in range(1, 6):
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
    def unbounded(n, k):
        raise AssertionError(f"listed the partitions of {k}")

    # the one place koh lists partitions
    monkeypatch.setattr(koh, "_productions", unbounded)
    leaf = {"mu": [1], "a": 0, "b": 1, "children": []}
    tree = tree_from_dict({"mu": [60], "a": 0, "b": 60,
                           "children": [{"edge": 60, "tree": leaf}]})
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
    with pytest.raises(StructureViolationError):
        tree_from_dict({"mu": [2, 3], "a": 1, "b": 5, "children": []})


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
