import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohtrees import koh, marking
from kohtrees.coefficients import METHOD_MARKED, koh_family, two_row_counts
from kohtrees.errors import DEFAULT_TREE_BUDGET, PreconditionViolationError
from kohtrees.goh import enumerate_goh_trees, goh_family
from kohtrees.koh import enumerate_koh_trees, leaves, marked_vector, tensor
from kohtrees.marking import (count_markings, enumerate_markings, marking_target,
                              witness_counts)
from kohtrees.partitions import enumerate_partitions
from kohtrees.qpoly import ONE
from qpoly_oracles import q_int


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
    new range at a time: the reference the Clebsch-Gordan step is checked
    against."""
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


def fold(a, cap):
    """The markings of the leaves a by final value up to cap, one tensor
    step per leaf."""
    row, degree = [1], a[0]
    for x in a[1:]:
        row = tensor(row, degree, [1], x, cap)
        degree += x
    return row


def marked_counts(pairs, total, rs):
    """For each r of rs, the markings at r of the (leaf sequence,
    multiplicity) pairs, each sequence at its own target, through
    koh.marked_vector: a sequence is a label whose child types are its
    leaves, once per tree."""
    productions = [(None, [(i, (a, 1)) for i, a in enumerate(ls)])
                   for ls, ways in pairs for _ in range(ways)]
    return tuple(marked_vector(productions, total, rs[-1])[rs[0]:])


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
@given(st.lists(st.integers(0, 15), min_size=1, max_size=7).map(tuple),
       st.integers(0, 3))
def test_all_r_counts_match_the_one_target_kernel_and_the_dict_oracle(a, shift):
    # one tree whose power shift is shift: its target at r is r - shift
    total = sum(a) + 2 * shift
    rs = range(total // 2 + 1)
    for r, count in zip(rs, marked_counts([(a, 1)], total, rs)):
        assert count == count_markings(a, r - shift) == dict_dp_markings(a, r - shift)
    # one leaf's row is [1]; a longer sequence's holds every value up to
    # half its leaf sum
    row = fold(a, total)
    padded = row + [0] * (sum(a) // 2 + 1 - len(row))
    assert padded == [count_markings(a, v) for v in range(sum(a) // 2 + 1)]


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
    # witness_counts keeps the rows of the previous sequence, cut at r, and
    # every target it is asked lies at or below r
    seqs = [a for a, _ in visits]
    total = max(map(sum, seqs)) + 2 * cap
    leaf_lists = [a for a in seqs if (total - sum(a)) % 2 == 0]
    for r in range(cap + 1):
        assert witness_counts(leaf_lists, total, r) == tuple(
            dict_dp_markings(a, marking_target(sum(a), total, r)) for a in leaf_lists)


def first_seen_table(leaf_lists):
    """Each distinct sequence with the number of times it comes, in the
    order of its first coming: a leaf table."""
    table = {}
    for a in leaf_lists:
        table[a] = table.get(a, 0) + 1
    return table


@settings(max_examples=100, deadline=None)
@given(trie_visits())
def test_all_r_counts_through_the_table_match_the_single_r_counts(visits):
    total = max(sum(a) for a, _ in visits)
    leaf_lists = [a for a, _ in visits if (total - sum(a)) % 2 == 0]
    pairs = first_seen_table(leaf_lists).items()
    rs = range(total // 2 + 1)
    all_r = marked_counts(pairs, total, rs)
    for r, count in zip(rs, all_r):
        each = witness_counts(leaf_lists, total, r)
        assert each == tuple(dict_dp_markings(a, marking_target(sum(a), total, r))
                             for a in leaf_lists)
        assert count == marked_counts(pairs, total, range(r, r + 1))[0] == sum(each)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.tuples(st.just("koh"), st.integers(0, 9), st.integers(1, 7)),
    st.tuples(st.just("goh"), st.integers(1, 6).flatmap(
        lambda size: st.sampled_from(enumerate_partitions(size))), st.integers(1, 4))),
    st.data())
def test_sub_ranges_match_the_per_r_route_while_rows_are_dropped(cell, data):
    # every query below starts from a cache of marked vectors that is
    # empty or holds vectors cut at another cap, which it fills again
    family_name, shape, k = cell
    family = koh_family(shape, k) if family_name == "koh" else goh_family(shape, k)
    top = family.total // 2
    first = data.draw(st.integers(0, top))
    rs = range(first, data.draw(st.integers(first, top)) + 1)
    if data.draw(st.booleans()):
        koh._MARKED.clear()
    else:
        two_row_counts(family, range(data.draw(st.integers(0, top)) + 1),
                       METHOD_MARKED, DEFAULT_TREE_BUDGET)
    counts = two_row_counts(family, rs, METHOD_MARKED, DEFAULT_TREE_BUDGET)
    koh._MARKED.clear()
    assert counts == family.difference(rs) == tuple(
        two_row_counts(family, range(r, r + 1), METHOD_MARKED, DEFAULT_TREE_BUDGET)[0]
        for r in rs)


@pytest.mark.parametrize("rs", [range(1, 2), range(0, 3)])
def test_a_leaf_sum_above_the_degree_raises(rs):
    for r in rs:
        with pytest.raises(PreconditionViolationError,
                           match="leaf sum 8 exceeds the degree 4"):
            witness_counts(iter([(2, 2), (4, 4)]), 4, r)
        with pytest.raises(PreconditionViolationError,
                           match="leaf sum 6 exceeds the degree 4"):
            witness_counts([(6,)], 4, r)


# leaf sequences in tree order: each shares a prefix with the one before
# it, and (3, 1, 4) is a prefix of the one after it
SHARING = [(2, 2, 1, 3), (2, 2, 3, 1), (2, 2, 3, 5), (3, 1, 4), (3, 1, 4, 2)]


def counted_steps(monkeypatch):
    steps = []
    original = marking.tensor

    def counted(*args):
        steps.append(args)
        return original(*args)

    monkeypatch.setattr(marking, "tensor", counted)
    return steps


def test_the_table_steps_each_prefix_once(monkeypatch):
    expected = [dict_dp_markings(a, marking_target(sum(a), 12, 3)) for a in SHARING]
    steps = counted_steps(monkeypatch)
    assert witness_counts(SHARING, 12, 3) == tuple(expected)
    # one step for each leaf past the first of every distinct prefix
    prefixes = {a[:i] for a in SHARING for i in range(2, len(a) + 1)}
    assert len(steps) == len(prefixes)
    # each a vector [1] of one leaf, cut at r
    assert all((y, cap) == ([1], 3) for _, _, y, _, cap in steps)


def test_the_table_holds_a_bounded_number_of_values():
    rng = random.Random(3)
    for _ in range(400):
        a = tuple(rng.randint(0, 20) for _ in range(rng.randint(1, 8)))
        # each row holds every value up to the cap or half its leaf sum
        row = fold(a, 40)
        assert len(row) == (min(40, sum(a) // 2) + 1 if len(a) > 1 else 1)
        assert [row[v] for v in (0, 7, 40) if v < len(row)] == [
            dict_dp_markings(a, v) for v in (0, 7, 40) if v < len(row)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=4),
       st.lists(st.integers(0, 9), min_size=1, max_size=4), st.integers(0, 20))
def test_a_tensor_of_two_folds_is_the_fold_of_both_cut_at_any_cap(a, b, cap):
    # V(a) (x) V(b) = V(a + b), and entry j reads only entries up to j
    joined = tensor(fold(a, cap), sum(a), fold(b, cap), sum(b), cap)
    assert joined == fold(a + b, cap) == fold(a + b, sum(a + b))[:cap + 1]


def test_all_r_counts_small_cases():
    assert marked_counts([((4,), 1)], 4, range(3)) == (1, 0, 0)
    assert marked_counts([((0, 0), 1)], 6, range(4)) == (0, 0, 0, 1)
    assert marked_counts([((2, 2), 1)], 4, range(3)) == (1, 1, 1)
    assert marked_counts([((3, 1), 1)], 4, range(3)) == (1, 1, 0)
    # the last step stops at the range's end, whatever the leaf sum allows
    assert marked_counts([((1, 1, 1, 1), 1)], 4, range(2)) == (1, 3)
    # a power shift past the range's end gives zeros, and one inside the
    # range offsets the row
    assert marked_counts([((0, 0), 1)], 8, range(2)) == (0, 0)
    assert marked_counts([((2, 2), 1)], 8, range(1, 4)) == (0, 1, 1)
    # each sequence counts as many times as it has trees, on both routes
    assert marked_counts([((2, 2), 3), ((4,), 2)], 4, range(3)) == (5, 3, 3)
    assert marked_counts([((2, 2), 3), ((4,), 2)], 4, range(1, 2)) == (3,)
    # no sequences at all count 0 at every r
    assert marked_counts([], 4, range(3)) == (0, 0, 0)
    assert marked_counts([], 4, range(1, 2)) == (0,)


def test_marked_counts_validates_leaves():
    for r in range(3):
        with pytest.raises(PreconditionViolationError, match="nonempty leaf sequence"):
            witness_counts([(2, 2), ()], 4, r)
        with pytest.raises(PreconditionViolationError, match="must be nonnegative"):
            witness_counts([(1, -1)], 4, r)


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
    # the two leaf lists of the (2, 2) tree family, each read from a generator
    assert [witness_counts((ls for ls in [(4,), (0,)]), 4, r)
            for r in range(3)] == [(1, 0), (0, 0), (0, 1)]
    assert marked_counts(((ls, 1) for ls in [(4,), (0,)]), 4, range(3)) == (1, 0, 1)
    assert marked_counts([((4,), 1), ((0,), 1)], 4, range(2, 3)) == (1,)
    # a power shift past the whole range: zeros at every r, and no more
    assert marked_counts([((0,), 1)], 6, range(2)) == (0, 0)
    assert marked_counts([((0,), 1)], 6, range(1, 4)) == (0, 0, 1)
    assert witness_counts([(0,), (0,)], 6, 1) == (0, 0)


def small_families():
    """(family, leaf tuples of its trees) of every KOH type with n, k <= 8
    and every GOH shape of size <= 6 with k <= 4."""
    for n in range(0, 9):
        for k in range(1, 9):
            yield koh_family(n, k), [leaves(t) for t in enumerate_koh_trees(n, k)]
    for size in range(1, 7):
        for mu in enumerate_partitions(size):
            for k in range(1, 5):
                yield goh_family(mu, k), [leaves(t) for t in enumerate_goh_trees(mu, k)]


def test_the_all_r_walk_matches_the_single_r_count_tree_by_tree():
    for family, leaf_lists in small_families():
        total = family.total
        top = total // 2
        # every r, then ranges that start above 0 or stop below total // 2
        ranges = [range(top + 1), range(1, top), range(top // 2, top + 1),
                  range(top // 2, top)]
        for rs in (rs for rs in ranges if len(rs) >= 2):
            all_r = two_row_counts(family, rs, METHOD_MARKED, DEFAULT_TREE_BUDGET)
            assert len(all_r) == len(rs)
            for r, count in zip(rs, all_r):
                assert count == sum(witness_counts(leaf_lists, total, r))


@st.composite
def small_cells(draw):
    """A KOH family with n <= 8 and k <= 7, or a GOH family of size <= 6
    with k <= 4."""
    if draw(st.booleans()):
        return koh_family(draw(st.integers(0, 8)), draw(st.integers(1, 7)))
    mu = draw(st.integers(1, 6).flatmap(
        lambda size: st.sampled_from(enumerate_partitions(size))))
    return goh_family(mu, draw(st.integers(1, 4)))


@settings(max_examples=100, deadline=None)
@given(small_cells())
def test_the_all_r_totals_of_a_cell_equal_its_single_r_totals(family):
    rs = range(family.total // 2 + 1)
    all_r = two_row_counts(family, rs, METHOD_MARKED, DEFAULT_TREE_BUDGET)
    # each r from a cache that holds only the vectors cut at r
    single = []
    for r in rs:
        koh._MARKED.clear()
        single += two_row_counts(family, range(r, r + 1), METHOD_MARKED,
                                 DEFAULT_TREE_BUDGET)
    assert all_r == tuple(single)
