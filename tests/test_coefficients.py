import functools
import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohtrees import coefficients, general, goh
from kohtrees.coefficients import (METHOD_BOTH, METHOD_DIFFERENCE,
                                   METHOD_MARKED, CoefficientReport,
                                   TreeFamily, hook_content, koh_family,
                                   kronecker_two_row, plethysm_two_row,
                                   schur_specialization_oracle)
from kohtrees.general import plethysm_two_row_general
from kohtrees.goh import goh_family
from kohtrees.render import marked_listing
from kohtrees.workers import check_identities
from kohtrees.errors import (BudgetExceededError, CrossCheckFailedError,
                             NonExactDivisionError, PreconditionViolationError)
from kohtrees.partitions import Partition, enumerate_partitions
from kohtrees.koh import DEFAULT_TREE_BUDGET, leaves
from kohtrees.qpoly import (ONE, ZERO, QPoly, pack_width, q_binomial, q_int_ratio,
                            unpack)
from qpoly_oracles import is_symmetric, is_unimodal, poly_add, q_int


def schoolbook_q_int_product(labels):
    """The product of the q-integers [a+1]_q over labels, one general
    QPoly product per factor."""
    return functools.reduce(QPoly.__mul__, map(q_int, labels), ONE)


def test_hook_content_base_cases():
    assert hook_content(Partition(), 3) == ONE
    assert hook_content(Partition((1,)), 0) == ONE
    assert hook_content(Partition((1, 1)), 0).is_zero
    assert hook_content(Partition((1, 1, 1)), 1).is_zero
    with pytest.raises(PreconditionViolationError):
        hook_content(Partition((2,)), -1)


def test_hook_content_single_row_is_gaussian():
    for m in range(1, 6):
        for k in range(0, 5):
            assert hook_content(Partition((m,)), k) == q_binomial(m, k)


def test_hook_content_single_column():
    # one column of length m picks the top coefficient shape q^(m(m-1)/2) * C(k+1, m)_q-ish;
    # checked against the tableau count instead of a second formula
    for m in range(1, 5):
        for k in range(0, 5):
            mu = Partition((1,) * m)
            assert hook_content(mu, k) == schur_specialization_oracle(mu, k)


def test_hook_content_known_polynomial():
    assert hook_content(Partition((2, 1)), 2).coeffs == (0, 1, 2, 2, 2, 1)
    assert hook_content(Partition((1, 1)), 1) == QPoly([0, 1])


def test_hook_content_matches_tableau_oracle():
    for size in range(1, 9):
        for mu in enumerate_partitions(size):
            for k in range(0, 7):
                assert hook_content(mu, k) == schur_specialization_oracle(mu, k)


def per_cell_strip_count(mu, k):
    """s_mu(1, q, ..., q^k) by one strip pass for this k alone, all rows of
    a strip at once, keeping only the shapes the strips still to come can
    fill out to mu."""
    if not mu:
        return ONE
    rows = mu.parts
    width = pack_width((k + 1) ** mu.size)
    shapes = {(0,) * len(rows): 1}
    for i in range(k + 1):
        # k - i strips still to come must fill mu / nu, one cell per column
        # each, so row j of nu reaches at least row j + k - i of mu
        floor = rows[k - i:] + (0,) * (k - i)
        step = 8 * width * i
        grown = {}
        for lam, value in shapes.items():
            size = sum(lam)
            tops = (rows[0] + 1, *(min(r, top) + 1 for r, top in zip(rows[1:], lam)))
            for nu in itertools.product(*map(range, map(max, lam, floor), tops)):
                grown[nu] = grown.get(nu, 0) + (value << step * (sum(nu) - size))
        shapes = grown
    return unpack(shapes.get(rows, 0), width)


def test_one_strip_pass_per_shape_matches_the_per_cell_pass():
    for size in range(1, 10):
        for mu in enumerate_partitions(size):
            # extended one entry at a time, or run to the largest k at once
            # and the smaller k read back
            for ks in (range(8), (7, *range(7))):
                general.strip_pass.cache_clear()
                for k in ks:
                    assert schur_specialization_oracle(mu, k) == per_cell_strip_count(mu, k)
    assert general.strip_pass.cache_info().currsize <= 8


def test_threads_sharing_a_strip_pass_read_whole_states():
    import sys
    import threading
    mu = Partition((4, 3, 2, 1))
    want = [per_cell_strip_count(mu, k) for k in range(9)]
    general.strip_pass.cache_clear()
    got, errors = [], []

    def ask(ks):
        try:
            got.extend((k, schur_specialization_oracle(mu, k)) for k in ks)
        except Exception as exc:
            errors.append(exc)

    orders = (range(9), range(8, -1, -1), (4, 8, 2, 6, 0), (8, 7, 1, 3, 5))
    threads = [threading.Thread(target=ask, args=(ks,)) for ks in orders * 2]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(got) == 2 * (9 + 9 + 5 + 5)
    assert all(value == want[k] for k, value in got)


def enumerated_fillings(mu, k, max_fillings):
    """s_mu(1, q, ..., q^k) by listing every semistandard filling with
    entries 0..k, one at a time, stopping past max_fillings of them: the
    oracle for the horizontal-strip count."""
    rows = mu.parts
    if not rows:
        return ONE
    coeffs = [0] * (mu.size * k + 1)
    filling = [[0] * r for r in rows]
    seen = 0

    def fill(i, j, total):
        nonlocal seen
        if i == len(rows):
            seen += 1
            if seen > max_fillings:
                raise BudgetExceededError(
                    f"more than {max_fillings} fillings of {mu!r}")
            coeffs[total] += 1
            return
        ni, nj = (i, j + 1) if j + 1 < rows[i] else (i + 1, 0)
        lo = filling[i][j - 1] if j else 0
        if i and j < rows[i - 1]:
            lo = max(lo, filling[i - 1][j] + 1)
        for v in range(lo, k + 1):
            filling[i][j] = v
            fill(ni, nj, total + v)

    fill(0, 0, 0)
    return QPoly(coeffs)


def partitions_of_size(lo, hi):
    return st.integers(lo, hi).flatmap(
        lambda size: st.sampled_from(enumerate_partitions(size)))


@settings(max_examples=150, deadline=None)
@given(partitions_of_size(1, 6), st.integers(0, 4), st.integers(1, 300))
def test_strip_count_matches_listed_fillings_and_their_budget(mu, k, max_fillings):
    counted = schur_specialization_oracle(mu, k)
    try:
        listed = enumerated_fillings(mu, k, max_fillings)
    except BudgetExceededError:
        # the listing stopped past max_fillings fillings, one per unit of
        # the count's coefficient sum
        assert sum(counted.coeffs) > max_fillings
    else:
        assert counted == listed


def test_oracle_base_cases():
    assert schur_specialization_oracle(Partition(), 2) == ONE
    with pytest.raises(PreconditionViolationError):
        schur_specialization_oracle(Partition((1,)), -1)


def test_kronecker_small_values():
    assert kronecker_two_row(2, 2, 0).value == 1
    assert kronecker_two_row(2, 2, 1).value == 0
    assert kronecker_two_row(2, 2, 2).value == 1
    assert kronecker_two_row(3, 4, 6).value == 1


def test_kronecker_methods_agree_and_report():
    both = kronecker_two_row(4, 3, 5, method=METHOD_BOTH)
    marked = kronecker_two_row(4, 3, 5, method=METHOD_MARKED)
    diff = kronecker_two_row(4, 3, 5, method=METHOD_DIFFERENCE)
    assert both.value == marked.value == diff.value
    assert both.method == METHOD_BOTH
    assert marked.method == METHOD_MARKED
    assert diff.method == METHOD_DIFFERENCE
    assert diff.witness_counts is None
    assert marked.witness_counts is not None
    assert sum(marked.witness_counts) == marked.value
    assert both.witness_counts == marked.witness_counts


def test_kronecker_preconditions():
    with pytest.raises(PreconditionViolationError):
        kronecker_two_row(0, 2, 0)
    with pytest.raises(PreconditionViolationError):
        kronecker_two_row(2, 0, 0)
    with pytest.raises(PreconditionViolationError):
        kronecker_two_row(2, 2, 3)
    with pytest.raises(PreconditionViolationError):
        kronecker_two_row(2, 2, -1)
    with pytest.raises(PreconditionViolationError):
        kronecker_two_row(2, 2, 1, method="fastest")


def test_kronecker_budget_propagates():
    with pytest.raises(BudgetExceededError):
        kronecker_two_row(8, 9, 10, method=METHOD_MARKED, max_trees=3)
    assert kronecker_two_row(8, 9, 10, method=METHOD_DIFFERENCE,
                             max_trees=3).value >= 0
    # no budget argument means the default budget
    with pytest.raises(BudgetExceededError, match="exceed the budget 10000000$"):
        kronecker_two_row(28, 28, 1, method=METHOD_MARKED)


def test_kronecker_cross_check_trips_on_disagreement(monkeypatch):
    real = coefficients.koh_family

    def koh_family(n, k):
        family = real(n, k)
        return TreeFamily(family.where, family.degree_name, family.total,
                          family.trees, family.marked, family.route,
                          lambda rs: (0,) * len(rs), family.references)

    monkeypatch.setattr(coefficients, "koh_family", koh_family)
    with pytest.raises(CrossCheckFailedError, match="marked trees give 1 but the "
                       "rectangle difference gives 0 for n=2, k=2, r=0$"):
        kronecker_two_row(2, 2, 0, method=METHOD_BOTH)


def test_plethysm_small_values():
    assert plethysm_two_row(Partition((1, 1)), 2, 1).value == 1
    assert plethysm_two_row(Partition((1, 1)), 2, 0).value == 0
    assert plethysm_two_row(Partition((2, 1)), 2, 2).value == 1


def test_plethysm_methods_agree():
    mu = Partition((2, 2))
    for r in range(0, mu.size * 3 // 2 + 1):
        both = plethysm_two_row(mu, 3, r, method=METHOD_BOTH)
        marked = plethysm_two_row(mu, 3, r, method=METHOD_MARKED)
        diff = plethysm_two_row(mu, 3, r, method=METHOD_DIFFERENCE)
        assert both.value == marked.value == diff.value
        assert sum(marked.witness_counts) == marked.value


def test_plethysm_on_a_large_shape_cross_checks():
    mu = Partition((7, 6, 5, 4))
    for r, value in ((30, 7), (66, 2926)):
        report = plethysm_two_row(mu, 6, r, method=METHOD_BOTH)
        assert report.value == value
        assert sum(report.witness_counts) == value


def test_plethysm_preconditions():
    with pytest.raises(PreconditionViolationError):
        plethysm_two_row(Partition(), 2, 0)
    with pytest.raises(PreconditionViolationError):
        plethysm_two_row(Partition((2,)), 0, 0)
    with pytest.raises(PreconditionViolationError):
        plethysm_two_row(Partition((2,)), 2, 3)


def test_plethysm_cross_check_trips_on_disagreement(monkeypatch):
    monkeypatch.setattr("kohtrees.coefficients.hook_content",
                        lambda mu, k: ONE)
    with pytest.raises(CrossCheckFailedError):
        plethysm_two_row(Partition((2,)), 2, 1, method=METHOD_BOTH)


def test_general_reduction_classic_decompositions():
    # h_2 plethysm h_2 = s_4 + s_22
    assert plethysm_two_row_general(Partition((4,)), Partition((2,)),
                                    Partition((2,))).value == 1
    assert plethysm_two_row_general(Partition((3, 1)), Partition((2,)),
                                    Partition((2,))).value == 0
    assert plethysm_two_row_general(Partition((2, 2)), Partition((2,)),
                                    Partition((2,))).value == 1
    # h_2 plethysm e_2 = s_22 + s_1111
    assert plethysm_two_row_general(Partition((2, 2)), Partition((2,)),
                                    Partition((1, 1))).value == 1
    assert plethysm_two_row_general(Partition((3, 1)), Partition((2,)),
                                    Partition((1, 1))).value == 0
    # e_2 plethysm e_2 = s_211, invisible in two rows
    assert plethysm_two_row_general(Partition((2, 2)), Partition((1, 1)),
                                    Partition((1, 1))).value == 0
    # e_2 plethysm h_2 = s_31
    assert plethysm_two_row_general(Partition((3, 1)), Partition((1, 1)),
                                    Partition((2,))).value == 1
    assert plethysm_two_row_general(Partition((4,)), Partition((1, 1)),
                                    Partition((2,))).value == 0


def test_general_reduction_matches_single_row_case():
    for mu in enumerate_partitions(3):
        for k in range(1, 4):
            total = mu.size * k
            for r in range(total // 2 + 1):
                direct = plethysm_two_row(mu, k, r).value
                via = plethysm_two_row_general(
                    Partition((total - r, r)) if r else Partition((total,)),
                    mu, Partition((k,))).value
                assert via == direct


def test_general_reduction_edge_cases():
    # three-row inner partition gives zero
    assert plethysm_two_row_general(Partition((3, 3)), Partition((2,)),
                                    Partition((1, 1, 1))).value == 0
    # empty outer partition: the plethysm is the constant 1
    assert plethysm_two_row_general(Partition(), Partition(),
                                    Partition((2, 1))).value == 1
    # empty inner partition keeps single-row outer shapes only
    assert plethysm_two_row_general(Partition(), Partition((3,)),
                                    Partition()).value == 1
    assert plethysm_two_row_general(Partition(), Partition((2, 1)),
                                    Partition()).value == 0
    # second row of lam too short to hold |mu| copies of nu_2
    assert plethysm_two_row_general(Partition((4,)), Partition((1, 1)),
                                    Partition((1, 1))).value == 0


def test_general_reduction_validates():
    with pytest.raises(PreconditionViolationError):
        plethysm_two_row_general(Partition((2, 1, 1)), Partition((2,)),
                                 Partition((2,)))
    with pytest.raises(PreconditionViolationError, match=r"\|lam\| = 3 must equal"):
        plethysm_two_row_general(Partition((3,)), Partition((2,)),
                                 Partition((2,)))


def test_check_identities_defaults_the_filling_budget():
    check_identities(goh_family(Partition((2, 1)), 2), 100)
    check_identities(koh_family(4, 3), 100)
    # 210 trees whose tableau oracle counts 1,098,240 fillings: the tree
    # budget is the only one a cell has
    check_identities(goh_family(Partition((5, 2, 1)), 11), 210)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.integers(0, 9), st.integers(1, 9)).map(lambda c: koh_family(*c)),
    st.tuples(st.integers(1, 6).flatmap(
                  lambda size: st.sampled_from(enumerate_partitions(size))),
              st.integers(1, 4)).map(lambda c: goh_family(*c))))
def test_check_identities_holds_on_random_small_cells(family):
    # beyond the fixed sweeps: the tree terms against every reference, then
    # the marked count against the difference at every r up to half the
    # degree, for KOH the first differences of rectangle_counts' row
    check_identities(family, DEFAULT_TREE_BUDGET)


def test_a_verify_cell_reads_one_full_marked_vector(monkeypatch):
    from kohtrees import koh
    vectors = []
    for module, name in (koh, "koh_marked_vector"), (goh, "marked_vector"):
        real = getattr(module, name)

        def recorded(*args, real=real, name=name, **kwargs):
            # the cap is the last argument of either
            vector = real(*args, **kwargs)
            vectors.append((name, args[-1], vector))
            return vector

        monkeypatch.setattr(module, name, recorded)
    # odd and even degrees: the tree sum and the sweep's range both read the
    # vector cut at total // 2, from the koh cache or from the GOH family
    for family, name, calls in [(koh_family(3, 3), "koh_marked_vector", 2),
                                (koh_family(4, 3), "koh_marked_vector", 2),
                                (goh_family(Partition((3, 2)), 3), "marked_vector", 1),
                                (goh_family(Partition((3, 1)), 3), "marked_vector", 1)]:
        vectors.clear()
        check_identities(family, DEFAULT_TREE_BUDGET)
        assert len(vectors) == calls
        assert all((called, cap) == (name, family.total // 2) and vector is vectors[0][2]
                   for called, cap, vector in vectors)
        assert len(vectors[0][2]) == family.total // 2 + 1


def test_check_identities_reads_the_trees_before_the_oracle(monkeypatch):
    import kohtrees.coefficients as coefficients

    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran over the tree budget")

    monkeypatch.setattr(coefficients, "schur_specialization_oracle", no_oracle)
    with pytest.raises(BudgetExceededError, match="trees"):
        check_identities(goh_family(Partition((2, 2)), 5), 1)


def test_check_identities_rejects_a_wrong_tree_sum(monkeypatch):
    # the family's references look the closed form up in koh when they run
    from kohtrees import koh
    monkeypatch.setattr(koh, "koh_rhs_closed", lambda n, k: ONE)
    with pytest.raises(CrossCheckFailedError,
                       match=r"^tree terms sum to .* but the closed form gives 1 "
                             r"for n=2, k=2$"):
        check_identities(koh_family(2, 2), 100)


def test_check_identities_builds_no_report_and_fails_as_two_row_does(monkeypatch):
    from kohtrees import marking
    built = []
    init = CoefficientReport.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CoefficientReport, "__init__", counted)
    families = [koh_family(5, 4), goh_family(Partition((3, 2)), 3)]
    for family in families:
        check_identities(family, DEFAULT_TREE_BUDGET)
    assert not built
    # two_row reports one r, its witnesses read on demand
    for family in families:
        rs = range(family.total // 2 + 1)
        trees = family.trees(DEFAULT_TREE_BUDGET)
        for r, diff in zip(rs, family.difference(rs)):
            report = coefficients.two_row(family, r, METHOD_BOTH, DEFAULT_TREE_BUDGET)
            assert (report.value, report.method) == (diff, METHOD_BOTH)
            assert report.witness_counts == marking.witness_counts(
                map(leaves, trees), family.total, r)
            assert sum(report.witness_counts) == report.value
    assert len(built) == sum(family.total // 2 + 1 for family in families)

    # one difference off at the last r: the cell check raises what two_row
    # raises at that r, and only once the tree budget has passed
    for family in families:
        rs = range(family.total // 2 + 1)
        right = family.difference(rs)
        family = TreeFamily(
            family.where, family.degree_name, family.total, family.trees,
            family.marked, family.route,
            lambda rs, real=family.difference, top=rs[-1]: tuple(
                d - (r == top) for r, d in zip(rs, real(rs))),
            family.references)
        with pytest.raises(CrossCheckFailedError) as checked:
            check_identities(family, DEFAULT_TREE_BUDGET)
        with pytest.raises(CrossCheckFailedError) as reported:
            coefficients.two_row(family, rs[-1], METHOD_BOTH, DEFAULT_TREE_BUDGET)
        assert str(checked.value) == str(reported.value)
        assert str(checked.value) == (
            f"marked trees give {right[-1]} but the {family.route} difference "
            f"gives {right[-1] - 1} for {family.where}, r={rs[-1]}")
        with pytest.raises(BudgetExceededError):
            check_identities(family, 1)


def range_cases():
    """(family, range) pairs: every r of a cell, and ranges that start
    above 0 or stop below total // 2, for KOH cells of odd and even degree
    and GOH cells."""
    for family in (koh_family(4, 3), koh_family(3, 3), koh_family(6, 5),
                   goh_family(Partition((3, 2)), 3), goh_family(Partition((2, 1, 1)), 4)):
        top = family.total // 2
        for rs in range(top + 1), range(1, top), range(top // 2, top + 1), range(2, 3):
            yield family, rs


def test_two_row_counts_gives_every_r_of_a_range_by_each_method():
    for family, rs in range_cases():
        diff = family.difference(rs)
        assert len(diff) == len(rs)
        for method in METHOD_MARKED, METHOD_DIFFERENCE, METHOD_BOTH:
            counts = coefficients.two_row_counts(family, rs, method, DEFAULT_TREE_BUDGET)
            assert counts == diff, (family.where, rs, method)
        # the marked count at each r is what a report at that r gives
        assert diff == tuple(
            coefficients.two_row(family, r, METHOD_MARKED, DEFAULT_TREE_BUDGET).value
            for r in rs)


def test_two_row_counts_names_the_first_r_that_disagrees():
    for family in koh_family(5, 4), goh_family(Partition((3, 2)), 3):
        rs = range(1, family.total // 2 + 1)
        # a marked vector off by one at the third and the fifth r of the range
        family = TreeFamily(
            family.where, family.degree_name, family.total, family.trees,
            lambda budget, cap, real=family.marked, off=(rs[2], rs[4]): [
                count + (r in off) for r, count in enumerate(real(budget, cap))],
            family.route, family.difference, family.references)
        diff = family.difference(rs)
        marked = coefficients.two_row_counts(family, rs, METHOD_MARKED, DEFAULT_TREE_BUDGET)
        assert marked == tuple(value + (i in (2, 4)) for i, value in enumerate(diff))
        assert coefficients.two_row_counts(
            family, rs, METHOD_DIFFERENCE, DEFAULT_TREE_BUDGET) == diff
        with pytest.raises(CrossCheckFailedError) as failed:
            coefficients.two_row_counts(family, rs, METHOD_BOTH, DEFAULT_TREE_BUDGET)
        assert str(failed.value) == (
            f"marked trees give {diff[2] + 1} but the {family.route} difference "
            f"gives {diff[2]} for {family.where}, r={rs[2]}")
        # the budget fails before the cross-check, every r before the budget
        with pytest.raises(BudgetExceededError):
            coefficients.two_row_counts(family, rs, METHOD_BOTH, 1)
        with pytest.raises(PreconditionViolationError, match="need 0 <= 2r"):
            coefficients.two_row_counts(family, range(family.total // 2 + 2), METHOD_BOTH, 1)
        with pytest.raises(PreconditionViolationError, match="unknown method"):
            coefficients.two_row_counts(family, rs, "fastest", 1)


def test_a_range_below_half_the_degree_caches_a_root_vector_cut_at_its_last_r():
    from kohtrees import koh
    koh._MARKED.clear()
    family = koh_family(4, 3)
    counts = coefficients.two_row_counts(family, range(5), METHOD_MARKED,
                                         DEFAULT_TREE_BUDGET)
    assert counts == family.difference(range(5))
    short = koh._MARKED[4, 3]
    assert len(short) == 5
    # a later r past the cut fills the vector again, up to total // 2
    coefficients.two_row_counts(family, range(3, 7), METHOD_MARKED, DEFAULT_TREE_BUDGET)
    full = koh._MARKED[4, 3]
    assert len(full) == 7 and full[:5] == short
    # and a shorter range reads that one
    assert coefficients.two_row_counts(family, range(2), METHOD_MARKED,
                                       DEFAULT_TREE_BUDGET) == tuple(full[:2])
    assert koh._MARKED[4, 3] is full


def test_one_row_plethysm_is_the_kronecker_slice_of_the_same_sides():
    # GOH at mu = (n) is one KOH tree of type (n, k) under a root, and
    # s_(n)(1, q, ..., q^k) is the Gaussian binomial [n+k choose k]_q: the
    # hook-content and the rectangle routes meet on one cell
    for n in range(1, 13):
        for k in range(1, 13):
            rs = range(n * k // 2 + 1)
            assert coefficients.two_row_counts(
                goh_family(Partition((n,)), k), rs, METHOD_BOTH, DEFAULT_TREE_BUDGET
            ) == coefficients.two_row_counts(
                koh_family(n, k), rs, METHOD_BOTH, DEFAULT_TREE_BUDGET), (n, k)


def test_the_marked_route_shows_the_pak_panova_bound():
    # Pak-Panova (2013): for n, k >= 8 the Kronecker coefficient is 1 at
    # r = 0, 0 at r = 1 and positive at every 2 <= r <= nk/2, so the marked
    # trees must show it
    for n in range(8, 17):
        for k in range(8, 17):
            rs = range(n * k // 2 + 1)
            counts = coefficients.two_row_counts(koh_family(n, k), rs, METHOD_MARKED,
                                                 DEFAULT_TREE_BUDGET)
            assert counts[:2] == (1, 0), (n, k)
            assert min(counts[2:]) >= 1, (n, k)
    # below side 8 other zeros occur
    for n, k, r in (6, 6, 17), (5, 6, 15):
        assert coefficients.two_row_counts(koh_family(n, k), range(r, r + 1),
                                           METHOD_MARKED, DEFAULT_TREE_BUDGET) == (0,)


def test_library_routes_leave_no_cyclic_garbage():
    # the CLI runs with the cyclic collector off, which is sound only while
    # reference counting frees everything a route builds; caches cleared,
    # so every enumerator runs again
    from kohtrees import goh, koh, trees
    koh._productions.cache_clear()
    koh._COUNTS.clear()
    trees._TREES.clear()
    goh._typed_configurations.cache_clear()
    goh._BLOCKS.clear()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        kronecker_two_row(12, 12, 40)
        plethysm_two_row(Partition((3, 2, 1)), 3, 5)
        check_identities(koh_family(5, 4), DEFAULT_TREE_BUDGET)
        check_identities(goh_family(Partition((2, 2)), 3), DEFAULT_TREE_BUDGET)
        assert marked_listing(koh_family(6, 6), 9, DEFAULT_TREE_BUDGET)
        assert marked_listing(goh_family(Partition((3, 1)), 3), 4, DEFAULT_TREE_BUDGET)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_report_is_frozen():
    report = CoefficientReport(1, METHOD_BOTH, (1,))
    with pytest.raises(AttributeError):
        report.value = 2


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.builds(koh_family, st.integers(0, 9), st.integers(1, 7)),
                 st.builds(goh_family, partitions_of_size(1, 6), st.integers(1, 4))))
def test_tree_sums_are_symmetric_and_unimodal(family):
    # the running sums of the marked vector, mirrored about the middle of
    # the degree as check_identities reads them, against the trees' terms
    # one by one
    sums = list(itertools.accumulate(family.marked(DEFAULT_TREE_BUDGET, family.total)))
    tree_sum = QPoly(sums + sums[:family.total + 1 - len(sums)][::-1])
    assert is_symmetric(tree_sum, family.total)
    assert is_unimodal(tree_sum)
    schoolbook = ZERO
    for lv in map(leaves, family.trees(DEFAULT_TREE_BUDGET)):
        schoolbook = poly_add(schoolbook, schoolbook_q_int_product(lv).shift(
            (family.total - sum(lv)) // 2))
    assert tree_sum == schoolbook


def exact_div_hook_content(mu, k):
    """hook_content by QPoly.exact_div of the two q-integer products."""
    if len(mu) > k + 1:
        return ZERO
    conj = mu.conjugate().parts
    cells = [(i, j) for i, row_len in enumerate(mu.parts, start=1)
             for j in range(1, row_len + 1)]
    num = schoolbook_q_int_product(k + j - i for i, j in cells)
    den = schoolbook_q_int_product(mu.parts[i - 1] + conj[j - 1] - i - j
                                   for i, j in cells)
    return num.exact_div(den).shift(mu.b_stat())


def test_packed_hook_content_matches_the_polynomial_division():
    for size in range(1, 10):
        for mu in enumerate_partitions(size):
            for k in range(0, 9):
                assert hook_content(mu, k) == exact_div_hook_content(mu, k), (mu, k)


def test_the_packed_ratio_refuses_what_is_not_a_nonnegative_polynomial():
    assert q_int_ratio([5], [2]) == QPoly([1, 0, 0, 1])
    # [2]_q / [3]_q leaves a remainder
    with pytest.raises(NonExactDivisionError):
        q_int_ratio([1], [2])
    # [6]_q / ([2]_q [3]_q) = 1 - q + q^2 divides exactly as ints, but the
    # quotient's slots times the denominator carry: the q = 1 check fails
    assert q_int(5).exact_div(schoolbook_q_int_product([1, 2])) == QPoly([1, -1, 1])
    with pytest.raises(NonExactDivisionError):
        q_int_ratio([5], [1, 2])
