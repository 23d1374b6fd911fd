import functools
import inspect
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohtrees import goh, koh, trees
from kohtrees.coefficients import hook_content
from kohtrees.errors import (BudgetExceededError, PreconditionViolationError,
                             StructureViolationError)
from kohtrees.goh import (Configuration, GohTree, enumerate_configurations,
                          enumerate_goh_trees, goh_leaves, goh_rhs_closed, goh_term)
from kohtrees.koh import count_trees, leaves
from kohtrees.partitions import Partition, enumerate_partitions
from kohtrees.qpoly import ZERO, q_binomial, sum_of_products
from kohtrees.render import tree_to_dict, tree_to_dot
from kohtrees.trees import KohTree, leaf_sigma
from qpoly_oracles import poly_add
from tree_oracles import (goh_tree_from_dict as tree_from_dict, second_difference,
                          validate_configuration, validate_goh_tree)


def tree_sum(mu, k):
    return functools.reduce(poly_add, map(goh_term, enumerate_goh_trees(mu, k)), ZERO)


def test_single_row_has_one_trivial_configuration():
    configs = enumerate_configurations(Partition((4,)))
    assert len(configs) == 1
    assert configs[0].nus == (Partition((1, 1, 1, 1)), Partition())
    assert configs[0].m_stat() == 0
    assert configs[0].tau_stat() == 0


def test_configuration_chain_sizes():
    lam = Partition((3, 3, 2, 1))
    for config in enumerate_configurations(lam):
        assert len(config.nus) == len(lam) + 1
        assert config.nus[0] == Partition((1,) * 9)
        for i in range(len(lam) + 1):
            assert config.nus[i].size == sum(lam.parts[i:])
        validate_configuration(config)


def test_configuration_count_for_staircase_shape():
    assert len(enumerate_configurations(Partition((3, 3, 2, 1)))) == 7


def brute_force_configurations(lam):
    """Every chain of partitions of the level sizes, depth first in
    canonical partition order, each level kept when every second
    difference it fixes is nonnegative, checked column by column with
    q_stat."""
    ell, n = len(lam), lam.size
    found = []

    def extend(chain):
        depth = len(chain)
        if depth == ell + 1:
            found.append(Configuration(lam, tuple(chain)))
            return
        for nu in enumerate_partitions(sum(lam.parts[depth:])):
            if depth >= 2 and any(
                    nu.q_stat(j) - 2 * chain[-1].q_stat(j) + chain[-2].q_stat(j) < 0
                    for j in range(1, n + 1)):
                continue
            extend(chain + [nu])

    extend([Partition((1,) * n)])
    return tuple(found)


def test_configurations_match_the_brute_force_oracle_in_order():
    for size in range(1, 11):
        for lam in enumerate_partitions(size):
            configs = enumerate_configurations(lam)
            assert configs == brute_force_configurations(lam), lam
            for config in configs:
                validate_configuration(config)


def test_level_1_bound_keeps_the_filtered_chains_in_order():
    for size in range(1, 11):
        for lam in enumerate_partitions(size):
            every = enumerate_configurations(lam)
            for k in range(0, 12):
                assert enumerate_configurations(lam, k) == tuple(
                    c for c in every if c.m_stat() <= k), (lam, k)
            assert enumerate_configurations(lam, size) == every


def test_configuration_counts_for_large_shapes():
    assert len(enumerate_configurations(Partition((7, 6, 5, 4)))) == 960
    assert len(enumerate_configurations(Partition((3, 3, 3, 3, 3)))) == 32


def test_specific_configuration_statistics():
    lam = Partition((3, 3, 2, 1))
    nus = (Partition((1,) * 9), Partition((2, 1, 1, 1, 1)),
           Partition((1, 1, 1)), Partition((1,)), Partition())
    config = Configuration(lam, nus)
    validate_configuration(config)
    slots = ((1, 1), (1, 2), (2, 1), (3, 1))
    assert [second_difference(nus, i, j) for i, j in slots] == [2, 0, 0, 1]
    # the occupied slots are those four, each P^i_j with its multiplicity
    assert config.slot_types == (((1, 1), (2, 4)), ((1, 2), (0, 1)), ((2, 1), (0, 3)),
                                 ((3, 1), (1, 1)))
    assert config.m_stat() == 5
    assert config.tau_stat() == 18


def tau_by_cells(config):
    """tau as the docstring states it, one (i, j) at a time."""
    lam = config.lam
    alphas = [nu.conjugate().parts for nu in config.nus]

    def col(i, j):
        return alphas[i][j - 1] if j <= len(alphas[i]) else 0

    return sum(col(i, j) * (col(i, j) - col(i + 1, j))
               for i in range(1, len(lam)) for j in range(1, lam.size + 1))


def test_tau_stat_matches_the_per_cell_formula():
    configs = [config for size in range(1, 11) for lam in enumerate_partitions(size)
               for config in enumerate_configurations(lam)]
    assert len(configs) == 395
    for config in configs:
        assert config.tau_stat() == tau_by_cells(config)


def test_validate_configuration_rejects_broken_chains():
    lam = Partition((2, 1))
    with pytest.raises(StructureViolationError):
        validate_configuration(Configuration(lam, (Partition((1, 1, 1)),
                                                   Partition())))
    with pytest.raises(StructureViolationError):
        validate_configuration(Configuration(lam, (Partition((3,)),
                                                   Partition((1,)),
                                                   Partition())))
    with pytest.raises(StructureViolationError):
        validate_configuration(Configuration(lam, (Partition((1, 1, 1)),
                                                   Partition((2,)),
                                                   Partition())))


def test_empty_shape_rejected():
    with pytest.raises(PreconditionViolationError):
        enumerate_configurations(Partition())
    with pytest.raises(PreconditionViolationError):
        goh_rhs_closed(Partition(), 2)
    with pytest.raises(PreconditionViolationError):
        enumerate_goh_trees(Partition(), 2)


def test_negative_k_rejected():
    with pytest.raises(PreconditionViolationError):
        enumerate_goh_trees(Partition((2,)), -1)
    with pytest.raises(PreconditionViolationError):
        goh_rhs_closed(Partition((2,)), -1)


def test_count_matches_enumeration():
    for size in range(1, 6):
        for mu in enumerate_partitions(size):
            for k in range(0, 4):
                assert (len(enumerate_goh_trees(mu, k))
                        == count_trees(goh._typed_configurations(mu, k)))


def test_budget_enforced():
    mu = Partition((3, 3, 2, 1))
    total = count_trees(goh._typed_configurations(mu, 6))
    with pytest.raises(BudgetExceededError):
        enumerate_goh_trees(mu, 6, max_trees=total - 1)
    assert len(enumerate_goh_trees(mu, 6, max_trees=total)) == total


def test_tree_sum_matches_closed_form():
    for size in range(1, 6):
        for mu in enumerate_partitions(size):
            for k in range(0, 4):
                assert tree_sum(mu, k) == goh_rhs_closed(mu, k)


def test_unlabeled_child_present_exactly_when_room_remains():
    for mu in enumerate_partitions(4):
        for k in range(1, 4):
            for t in enumerate_goh_trees(mu, k):
                unlabeled = [sub for edge, sub in t.children if edge is None]
                assert len(unlabeled) == (t.config.m_stat() < k)
                assert not unlabeled or t.children[-1][0] is None


def test_sigma_even_and_nonnegative():
    for mu in enumerate_partitions(5):
        for k in range(1, 4):
            for t in enumerate_goh_trees(mu, k):
                s = leaf_sigma(t.degree, leaves(t))
                assert s >= 0 and s % 2 == 0


def test_validate_accepts_all_enumerated_trees():
    for size in range(1, 7):
        for mu in enumerate_partitions(size):
            for k in range(0, 5):
                for t in enumerate_goh_trees(mu, k):
                    validate_goh_tree(t)


def test_validate_rejects_dropped_subtree():
    t = next(t for t in enumerate_goh_trees(Partition((2, 1)), 2)
             if t.children[0][0] is not None)
    broken = GohTree(t.config, t.k, t.children[1:])
    with pytest.raises(StructureViolationError):
        validate_goh_tree(broken)


def test_validate_rejects_missing_extra():
    t = next(t for t in enumerate_goh_trees(Partition((2, 1)), 2)
             if t.children[-1][0] is None)
    with pytest.raises(StructureViolationError):
        validate_goh_tree(GohTree(t.config, t.k, t.children[:-1]))


def test_json_round_trip():
    for mu in (Partition((2, 1)), Partition((3, 2, 1)), Partition((2, 2))):
        for k in range(1, 4):
            for t in enumerate_goh_trees(mu, k):
                back = tree_from_dict(json.loads(json.dumps(tree_to_dict(t))))
                assert back == t


def test_from_dict_rejects_garbage():
    with pytest.raises(StructureViolationError):
        tree_from_dict({"lambda": [2, 1]})
    with pytest.raises(StructureViolationError, match="shape partition must be nonempty"):
        tree_from_dict({"lambda": [], "config": [[]], "k": 1, "children": []})
    # a larger k asks for a larger unlabeled subtree
    good = tree_to_dict(enumerate_goh_trees(Partition((2, 1)), 2)[0])
    with pytest.raises(StructureViolationError, match="!= expected"):
        tree_from_dict(dict(good, k=5))


@pytest.mark.parametrize("value", ["2", 2.0, True])
def test_from_dict_rejects_a_number_field_that_is_not_an_int(value):
    with pytest.raises(StructureViolationError, match="k must be an integer"):
        tree_from_dict({"lambda": [1], "config": [[1], []], "k": value,
                        "children": []})
    good = tree_to_dict(enumerate_goh_trees(Partition((2, 1)), 2)[0])
    entry = good["children"][0]
    assert entry["edge"] == [1, 1]
    for edge in ([1, value], [value, 1]):
        children = [dict(entry, edge=edge)] + good["children"][1:]
        with pytest.raises(StructureViolationError, match="edge must be an integer"):
            tree_from_dict(dict(good, children=children))
    with pytest.raises(StructureViolationError, match="parts must be positive integers"):
        tree_from_dict(dict(good, config=[[1, 1, 1], [value], []]))


def test_from_dict_rejects_missing_and_extra_edges_and_wrong_child_types():
    tree = next(t for t in enumerate_goh_trees(Partition((2, 1)), 2)
                if len(t.children) >= 2 and t.children[0][1].is_leaf)
    good = tree_to_dict(tree)
    tree_from_dict(good)
    kids = good["children"]
    for children in (kids[1:], kids[:-1], kids + kids[-1:],
                     kids + [dict(kids[0], edge=[1, 2])]):
        with pytest.raises(StructureViolationError, match="do not match"):
            tree_from_dict(dict(good, children=children))
    first = kids[0]
    leaf = dict(first["koh"], a=first["koh"]["a"] + 1)
    with pytest.raises(StructureViolationError, match="!= expected"):
        tree_from_dict(dict(good, children=[dict(first, koh=leaf)] + kids[1:]))


def test_validate_rejects_a_misplaced_unlabeled_subtree():
    good = next(t for t in enumerate_goh_trees(Partition((2, 1)), 2)
                if len(t.children) >= 2 and t.children[-1][0] is None)
    unlabeled = good.children[-1]
    for children in (good.children + (unlabeled,),
                     (unlabeled,) + good.children[:-1]):
        with pytest.raises(StructureViolationError):
            validate_goh_tree(GohTree(good.config, good.k, children))


def test_validate_reaches_a_bad_node_deep_in_a_subtree():
    tree = next(t for t in enumerate_goh_trees(Partition((4, 3, 2)), 4)
                if not t.children[0][1].is_leaf)
    validate_goh_tree(tree)
    (edge, inner), *rest = tree.children
    (inner_edge, deep), *inner_rest = inner.children
    bad = KohTree(inner.mu, inner.a, inner.b,
                  ((inner_edge, KohTree(Partition((9,)), deep.a, deep.b, deep.children)),
                   *inner_rest))
    with pytest.raises(StructureViolationError):
        validate_goh_tree(GohTree(tree.config, tree.k, ((edge, bad), *rest)))


def depth_first_leaves(tree):
    """Leaf labels read by walking the tree (a GOH root is never a leaf)."""
    if tree.is_leaf:
        return (tree.a,)
    return tuple(a for _, child in tree.children for a in depth_first_leaves(child))


def test_stored_leaf_tuples_match_a_depth_first_reading():
    for size in range(1, 7):
        for mu in enumerate_partitions(size):
            for k in range(0, 4):
                for t in enumerate_goh_trees(mu, k):
                    walked = depth_first_leaves(t)
                    assert leaves(t) == walked


def test_stored_leaf_tuple_is_not_part_of_the_value():
    assert list(inspect.signature(GohTree).parameters) == ["config", "k", "children"]
    t = enumerate_goh_trees(Partition((2, 1)), 2)[0]
    assert "leaf_values" not in repr(t)
    twin = GohTree(t.config, t.k, t.children)
    twin._leaf_values = (99,)  # the slot behind the read-only leaf_values
    assert twin == t and hash(twin) == hash(t)
    assert not hasattr(t, "__dict__")


def forget_shape(lam):
    """Drop the chains kept for lam and every production list, so that the
    next read walks lam's blocks again."""
    for key in [key for key in goh._BLOCKS if key[0] == lam]:
        del goh._BLOCKS[key]
    goh._typed_configurations.cache_clear()


def record_walks_and_slots(monkeypatch):
    """Record the (lam, level-1 partition) of every block walked and the
    configuration of every slot_types computed."""
    walks, slots = [], []
    walk, compute = goh._walk, Configuration.__getattr__

    def walked(lam, nu1):
        walks.append((lam, nu1))
        return walk(lam, nu1)

    def computed(config, name):
        if name == "_slot_types":
            slots.append(config)
        return compute(config, name)

    monkeypatch.setattr(goh, "_walk", walked)
    monkeypatch.setattr(Configuration, "__getattr__", computed)
    return walks, slots


def test_child_types_run_once_per_configuration(monkeypatch):
    # the child types of every k come from chains walked once per block
    # and slots computed once per configuration
    lam = Partition((4, 3, 2))
    every = enumerate_configurations(lam)
    assert max(c.m_stat() for c in every) < 6
    forget_shape(lam)
    walks, slots = record_walks_and_slots(monkeypatch)
    for k in range(1, 7):
        total = count_trees(goh._typed_configurations(lam, k))
        assert len(enumerate_goh_trees(lam, k, max_trees=total)) == total
        assert goh_rhs_closed(lam, k) == hook_content(lam, k)
        # the blocks walked so far are those of the level-1 partitions
        # with at most k parts
        assert set(walks) == {
            (lam, nu1) for nu1 in goh._level_one(lam)[1] if len(nu1) <= k}
    assert len(walks) == len(set(walks)) == len(goh._level_one(lam)[1])
    assert len(slots) == len(set(slots)) == len(every)
    walks.clear()
    slots.clear()
    goh._typed_configurations.cache_clear()
    k = 3
    total = count_trees(goh._typed_configurations(lam, k))
    assert not walks and not slots

    def no_trees(*args, **kwargs):
        raise AssertionError("a tree was built over budget")

    monkeypatch.setattr(goh, "GohTree", no_trees)
    # the shared builder reads every KOH subtree from this table
    monkeypatch.setattr(trees, "_tree_table", no_trees)
    with pytest.raises(BudgetExceededError):
        enumerate_goh_trees(lam, k, max_trees=total - 1)
    assert not walks and not slots
    # the patched table is the live subtree source: within budget it is read
    monkeypatch.setattr(goh, "GohTree", GohTree)
    with pytest.raises(AssertionError, match="over budget"):
        enumerate_goh_trees(lam, k, max_trees=total)


def test_no_budget_argument_means_the_default_budget(monkeypatch):
    def no_trees(*args, **kwargs):
        raise AssertionError("a tree was built over budget")

    monkeypatch.setattr(goh, "GohTree", no_trees)
    monkeypatch.setattr(trees, "_tree_table", no_trees)
    # one row: a single configuration whose one slot is a (28, 28) KOH tree
    with pytest.raises(BudgetExceededError,
                       match=f"40116600 trees .* exceed the budget "
                             f"{koh.DEFAULT_TREE_BUDGET}$"):
        enumerate_goh_trees(Partition((28,)), 28)


def test_dot_output_shape():
    t = enumerate_goh_trees(Partition((2, 1)), 2)[0]
    dot = tree_to_dot(t)
    assert dot.startswith("digraph goh {")
    assert '"1,1"' in dot
    assert dot.rstrip().endswith("}")


def brute_slot_types(config):
    """The occupied slots ((i, j), (P^i_j, mult_j(nu^i))) by a scan over every
    column j of every level, as the per-configuration loop read them."""
    ell, n = len(config.lam), config.lam.size
    return [((i, j), (second_difference(config.nus, i, j), config.nus[i].mult(j)))
            for i in range(1, ell) for j in range(1, n + 1) if config.nus[i].mult(j)]


def test_child_types_match_p_stat_and_mult_and_are_kept_per_shape_and_k():
    for size in range(1, 10):
        for lam in enumerate_partitions(size):
            every = enumerate_configurations(lam)
            for config in every:
                assert config.slot_types == tuple(brute_slot_types(config))
                assert config.slot_types is config.slot_types
                # the stored slots are no part of the value
                twin = Configuration(lam, config.nus)
                assert twin == config and hash(twin) == hash(config)
                assert repr(twin) == repr(config)
            # the production list is the one read again at the same (lam, k),
            # over the configurations every k shares
            for k in (0, size + 1):
                typed = goh._typed_configurations(lam, k)
                assert typed is goh._typed_configurations(lam, k)
                assert all(c is d for (c, _), d in zip(
                    typed, (c for c in every if c.m_stat() <= k)))
    assert "slot_types" not in repr(enumerate_configurations(Partition((2, 1)))[0])


def test_a_single_query_walks_only_the_blocks_of_its_k(monkeypatch):
    lam = Partition((8, 7, 6, 5, 4))
    forget_shape(lam)
    walks, slots = record_walks_and_slots(monkeypatch)
    typed = goh._typed_configurations(lam, 6)
    assert len(typed) == 275
    assert walks == [(lam, nu1) for nu1 in goh._level_one(lam)[1] if len(nu1) <= 6]
    assert len(walks) < len(goh._level_one(lam)[1])
    assert sum(len(goh._BLOCKS[key]) for key in walks) == 275
    assert len(slots) == 275


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9).flatmap(
           lambda size: st.tuples(st.sampled_from(enumerate_partitions(size)),
                                  st.integers(0, size + 1),
                                  st.permutations(range(size + 2)))))
def test_typed_configurations_match_the_brute_force_oracle(case):
    lam, k, order = case
    size = lam.size
    forget_shape(lam)
    every = brute_force_configurations(lam)
    # cold: the typed list walks only the blocks its k needs
    typed = goh._typed_configurations(lam, k)
    kept = [c for c in every if c.m_stat() <= k]
    assert [c for c, _ in typed] == kept
    for config, types in typed:
        m = config.m_stat()
        tail = [(None, (size, k - m))] if m < k else []
        assert types == brute_slot_types(config) + tail
    # then every m in any order, each the in-order filter of the full walk
    for m in order:
        assert enumerate_configurations(lam, m) == tuple(
            c for c in every if c.m_stat() <= m), (lam, m)
    assert enumerate_configurations(lam) == every


def test_typed_configurations_and_closed_form_match_the_per_configuration_loop():
    for size in range(1, 10):
        for lam in enumerate_partitions(size):
            for k in range(0, 9):
                typed = goh._typed_configurations(lam, k)
                kept = [c for c in enumerate_configurations(lam) if c.m_stat() <= k]
                assert [c for c, _ in typed] == kept
                for config, types in typed:
                    m = config.m_stat()
                    tail = [(None, (size, k - m))] if m < k else []
                    assert types == brute_slot_types(config) + tail
                terms = [(c.tau_stat(), [q_binomial(size, k - c.m_stat())]
                          + [q_binomial(*ctype) for _, ctype in brute_slot_types(c)])
                         for c in kept]
                assert goh_rhs_closed(lam, k) == sum_of_products(terms)


def test_closed_form_lists_only_the_chains_with_at_most_k_parts_at_level_1(
        monkeypatch):
    asked = []
    configurations = goh.enumerate_configurations

    def recorded(lam, m_max=None):
        asked.append((lam.parts, m_max))
        return configurations(lam, m_max)

    monkeypatch.setattr(goh, "enumerate_configurations", recorded)
    goh._typed_configurations.cache_clear()
    assert goh_rhs_closed(Partition((4, 3, 2, 1)), 2) == hook_content(
        Partition((4, 3, 2, 1)), 2)
    assert asked == [((4, 3, 2, 1), 2)]
