import itertools
import operator
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohtrees.errors import PreconditionViolationError
from kohtrees.goh import enumerate_goh_trees
from kohtrees.koh import enumerate_koh_trees, leaves
from kohtrees.marking import (_PrefixTable, _value_counts, count_markings,
                              enumerate_markings, marked_counts, marking_target)
from kohtrees.partitions import enumerate_partitions
from kohtrees.qpoly import ONE, q_int


def product_of_q_ints(a):
    poly = ONE
    for x in a:
        poly = poly * q_int(x)
    return poly


def brute_force_markings(a, target):
    """Direct filter over all weakly increasing vectors, for cross-checking."""
    t = len(a)
    found = []
    for ks in itertools.product(range(target + 1), repeat=t):
        if ks[0] != 0 or ks[-1] != target:
            continue
        ok = True
        prefix = 0
        for i in range(t - 1):
            prefix += a[i]
            if not 0 <= ks[i + 1] - ks[i] <= min(prefix - 2 * ks[i], a[i + 1]):
                ok = False
                break
        if ok:
            found.append(ks)
    return found


def dict_dp_markings(a, target):
    """The marking DP kept in a dict of reachable values, one value of the
    new range at a time: the reference the prefix-sum DP is checked against."""
    if target < 0:
        return 0
    dp = {0: 1}
    prefix = a[0]
    for nxt in a[1:]:
        step = {}
        for v, ways in dp.items():
            hi = min(v + min(prefix - 2 * v, nxt), target)
            for w in range(v, hi + 1):
                step[w] = step.get(w, 0) + ways
        dp = step
        prefix += nxt
    return dp.get(target, 0)


# listing every marking is kept to instances this small; the oracle and
# the coefficient difference check the rest
LISTED_MARKINGS_CAP = 20_000


@st.composite
def leaves_and_target(draw):
    a = tuple(draw(st.lists(st.integers(0, 15), min_size=1, max_size=7)))
    return a, draw(st.integers(-2, sum(a) // 2 + 3))


@settings(max_examples=300, deadline=None)
@given(leaves_and_target())
def test_count_matches_the_dict_oracle_listing_and_coefficients(case):
    a, target = case
    count = count_markings(a, target)
    assert count == dict_dp_markings(a, target)
    if count <= LISTED_MARKINGS_CAP:
        assert count == len(enumerate_markings(a, target))
    if 0 <= 2 * target <= sum(a):
        poly = product_of_q_ints(a)
        assert count == poly.coeff(target) - poly.coeff(target - 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=7).map(tuple))
def test_value_counts_match_the_one_target_kernel_and_the_dict_oracle(a):
    top = sum(a) // 2
    by_value = _value_counts(a, top)
    assert len(by_value) == (top + 1 if len(a) > 1 else 1)
    for target in range(-2, top + 3):
        # slots past either end of the table count 0
        count = by_value[target] if 0 <= target < len(by_value) else 0
        assert count == count_markings(a, target) == dict_dp_markings(a, target)


@st.composite
def trie_visits(draw):
    """Leaf sequences that share prefixes, as the trees of a family do, and
    a visit order over them with repeats, each visit with a target."""
    leaf = st.one_of(st.just(0), st.integers(0, 9))
    seqs = [tuple(draw(st.lists(leaf, min_size=1, max_size=6)))]
    for _ in range(draw(st.integers(0, 10))):
        base = draw(st.sampled_from(seqs))
        keep = draw(st.integers(0, len(base)))
        tail = draw(st.lists(leaf, min_size=0 if keep else 1, max_size=5))
        seqs.append(base[:keep] + tuple(tail))
    order = draw(st.lists(st.sampled_from(seqs), min_size=1, max_size=25))
    return [(a, draw(st.integers(-2, sum(a) // 2 + 3))) for a in order]


@settings(max_examples=200, deadline=None)
@given(trie_visits(), st.integers(0, 12))
def test_counts_through_one_shared_table_are_exact(visits, cap):
    # a cap below some targets makes the table raise it and start over
    table = _PrefixTable(cap)
    for a, target in visits:
        shared = count_markings(a, target, table)
        assert shared == count_markings(a, target) == dict_dp_markings(a, target), (a, target)
        # the all-r path reads whole rows from the same table
        by_value = _value_counts(a, target, table)
        assert by_value == _value_counts(a, target)


@settings(max_examples=100, deadline=None)
@given(trie_visits())
def test_all_r_counts_through_the_table_match_the_single_r_counts(visits):
    total = max(sum(a) for a, _ in visits)
    leaf_lists = [a for a, _ in visits if (total - sum(a)) % 2 == 0]
    rs = range(total // 2 + 1)
    all_r = marked_counts(leaf_lists, total, rs)
    for r, witness in zip(rs, all_r):
        assert witness == marked_counts(leaf_lists, total, range(r, r + 1))[0]
        assert witness == tuple(dict_dp_markings(a, marking_target(sum(a), total, r))
                                for a in leaf_lists)


def test_the_table_keeps_the_rows_of_the_shared_prefix():
    table = _PrefixTable(9)
    first, second = (2, 2, 3, 1), (2, 2, 1, 4)
    assert count_markings(first, 3, table) == dict_dp_markings(first, 3)
    kept = table.rows[:2]
    assert count_markings(second, 4, table) == dict_dp_markings(second, 4)
    # the rows of (2,) and (2, 2) are the same lists; the third is new
    assert all(map(operator.is_, table.rows[:2], kept)) and len(table.rows) == 3
    # a target above the cap raises it and drops every row past the first
    assert count_markings((2, 2, 20, 20), 20, table) == dict_dp_markings((2, 2, 20, 20), 20)
    assert table.cap == 20 and table.rows[1] is not kept[1]


def test_value_counts_small_cases():
    assert _value_counts((4,), 9) == [1]
    assert _value_counts((4,), -1) == []
    assert _value_counts((0, 0), 3) == [1]
    assert _value_counts((2, 2), 9) == [1, 1, 1]
    assert _value_counts((3, 1), 9) == [1, 1, 0]
    # the table stops at top, whatever the leaf sum allows
    assert _value_counts((1, 1, 1, 1), 1) == [1, 3]


def test_value_counts_validates_leaves():
    with pytest.raises(PreconditionViolationError, match="nonempty leaf sequence"):
        _value_counts((), 0)
    with pytest.raises(PreconditionViolationError, match="must be nonnegative"):
        _value_counts((1, -1), 0)


def test_a_target_past_half_the_leaf_sum_counts_zero_at_once():
    start = time.perf_counter()
    assert count_markings((1, 1), 10 ** 12) == 0
    assert time.perf_counter() - start < 1.0
    assert count_markings((3, 4), 3) == 1
    assert count_markings((3, 4), 4) == 0


def test_count_markings_small_cases():
    assert count_markings((1, 1, 1, 1), 1) == 3
    assert count_markings((4,), 0) == 1
    assert count_markings((4,), 1) == 0
    assert count_markings((2, 2), 2) == 1
    assert count_markings((0, 0), 0) == 1
    assert count_markings((3, 1), -2) == 0


def test_count_markings_validates_leaves():
    with pytest.raises(PreconditionViolationError):
        count_markings((), 0)
    with pytest.raises(PreconditionViolationError):
        count_markings((1, -1), 0)


def test_count_matches_enumeration_and_brute_force():
    rng = random.Random(7)
    for _ in range(120):
        t = rng.randint(1, 4)
        a = tuple(rng.randint(0, 6) for _ in range(t))
        for target in range(sum(a) // 2 + 1):
            listed = enumerate_markings(a, target)
            assert len(listed) == count_markings(a, target)
            # both lexicographically increasing
            assert list(listed) == brute_force_markings(a, target)
            for ks in listed:
                assert ks[0] == 0 and ks[-1] == target
                assert all(x <= y for x, y in zip(ks, ks[1:]))


def test_listing_markings_needs_no_frame_per_leaf():
    # 2,000 leaves, past the default recursion limit
    assert enumerate_markings((1,) * 2000, 0) == ((0,) * 2000,)


def test_markings_match_coefficient_differences():
    vectors = [(2, 2), (1, 1, 1, 1), (4, 1, 3), (0, 14, 22), (5, 5)]
    for a in vectors:
        poly = product_of_q_ints(a)
        for k in range(sum(a) // 2 + 1):
            assert count_markings(a, k) == poly.coeff(k) - poly.coeff(k - 1)


def test_marking_count_is_leaf_order_independent():
    a = (4, 1, 3, 2)
    for perm in itertools.permutations(a):
        for k in range(sum(a) // 2 + 1):
            assert count_markings(perm, k) == count_markings(a, k)


def test_marking_target():
    assert marking_target(36, 72, 18) == 0
    assert marking_target(64, 204, 81) == 11
    with pytest.raises(PreconditionViolationError, match="odd"):
        marking_target(3, 6, 1)


def test_marked_counts_per_tree_at_each_r():
    # the two leaf lists of the (2, 2) tree family, read from a generator
    leaf_lists = (ls for ls in [(4,), (0,)])
    assert marked_counts(leaf_lists, 4, range(3)) == ((1, 0), (0, 0), (0, 1))
    assert marked_counts([(4,), (0,)], 4, range(2, 3)) == ((0, 1),)
    # a power shift past the whole range: zeros at every r, and no more
    assert marked_counts([(0,)], 6, range(2)) == ((0,), (0,))
    assert marked_counts([(0,)], 6, range(1, 4)) == ((0,), (0,), (1,))


def small_families():
    """(leaf tuples, degree) of every KOH type with n, k <= 8 and every GOH
    shape of size <= 6 with k <= 4."""
    for n in range(0, 9):
        for k in range(1, 9):
            yield [leaves(t) for t in enumerate_koh_trees(n, k)], n * k
    for size in range(1, 7):
        for mu in enumerate_partitions(size):
            for k in range(1, 5):
                yield [leaves(t) for t in enumerate_goh_trees(mu, k)], size * k


def test_the_all_r_walk_matches_the_single_r_count_tree_by_tree():
    for leaf_lists, total in small_families():
        top = total // 2
        # every r, then ranges that start above 0 or stop below total // 2
        ranges = [range(top + 1), range(1, top), range(top // 2, top + 1),
                  range(top // 2, top)]
        for rs in (rs for rs in ranges if len(rs) >= 2):
            all_r = marked_counts(iter(leaf_lists), total, rs)
            assert len(all_r) == len(rs)
            for r, witness in zip(rs, all_r):
                assert witness == marked_counts(leaf_lists, total, range(r, r + 1))[0]
