"""Acceptance suite: one test per contract criterion, all exact equalities.

Every criterion checks integer identities with zero tolerance.  Slow
helpers are kept deliberately independent of the code paths they judge:
coefficient differences come from a scalar partition-count recurrence,
Schur specializations from a count of semistandard tableaux, and plethysm
coefficients from monomial substitution in two variables.
"""

import random

from kohtrees.coefficients import (hook_content, kronecker_two_row,
                                   plethysm_two_row,
                                   plethysm_two_row_general,
                                   schur_specialization_oracle)
from kohtrees.goh import (enumerate_configurations, enumerate_goh_trees,
                          goh_leaves, goh_rhs_closed, goh_term,
                          validate_goh_tree, Configuration, GohTree)
from kohtrees.koh import (KohTree, enumerate_koh_trees, koh_rhs_closed,
                          koh_term, leaves, sigma, validate_koh_tree)
from kohtrees.marking import (count_markings, enumerate_markings,
                              marked_counts, marking_target)
from kohtrees.partitions import (Partition, count_in_rectangle,
                                 enumerate_partitions)
from kohtrees.qpoly import ONE, QPoly, ZERO, q_binomial, q_int


def poly_sum(terms):
    total = ZERO
    for t in terms:
        total = total + t
    return total


def leaf(a):
    return KohTree(Partition((1,)), a, 1)


def product_of_q_ints(a):
    poly = ONE
    for x in a:
        poly = poly * q_int(x)
    return poly


def count_markings_displayed_reading(a, target):
    """Step bound read with the new mark instead of the old one.

    This is the plausible-but-wrong reading of the marking rule; it is
    kept only so the suite can demonstrate that it disagrees.
    """
    if target < 0:
        return 0
    dp = {0: 1}
    prefix = a[0]
    for nxt in a[1:]:
        step = {}
        for v, ways in dp.items():
            for w in range(v, target + 1):
                if w - v <= min(prefix - 2 * w, nxt):
                    step[w] = step.get(w, 0) + ways
        dp = step
        prefix += nxt
    return dp.get(target, 0)


def two_variable_schur_monomials(nu):
    """Exponent pairs of s_nu(x1, x2); empty when nu has 3+ rows."""
    if len(nu) >= 3:
        return ()
    nu1 = nu[0] if len(nu) >= 1 else 0
    nu2 = nu[1] if len(nu) >= 2 else 0
    return tuple((nu1 - i, nu2 + i) for i in range(nu1 - nu2 + 1))


def plethysm_by_substitution(mu, nu):
    """Two-variable expansion of s_mu[s_nu] as a Schur coefficient map.

    Substitutes the monomials of s_nu(x1, x2) for the variables of
    s_mu via semistandard fillings, then reads off two-row Schur
    coefficients through multiplication by (x1 - x2).
    """
    monomials = two_variable_schur_monomials(nu)
    rows = mu.parts
    weights = {}
    filling = [[0] * r for r in rows]

    def fill(i, j, e1, e2):
        if i == len(rows):
            weights[(e1, e2)] = weights.get((e1, e2), 0) + 1
            return
        ni, nj = (i, j + 1) if j + 1 < rows[i] else (i + 1, 0)
        lo = filling[i][j - 1] if j else 0
        if i and j < rows[i - 1]:
            lo = max(lo, filling[i - 1][j] + 1)
        for v in range(lo, len(monomials)):
            filling[i][j] = v
            p, q = monomials[v]
            fill(ni, nj, e1 + p, e2 + q)

    if rows:
        fill(0, 0, 0, 0)
    else:
        weights[(0, 0)] = 1
    alternating = {}
    for (e1, e2), c in weights.items():
        alternating[(e1 + 1, e2)] = alternating.get((e1 + 1, e2), 0) + c
        alternating[(e1, e2 + 1)] = alternating.get((e1, e2 + 1), 0) - c

    def coefficient(lam):
        lam1 = lam[0] if len(lam) >= 1 else 0
        lam2 = lam[1] if len(lam) >= 2 else 0
        return alternating.get((lam1 + 1, lam2), 0)

    return coefficient


def test_criterion_1_koh_identity_sweep():
    for n in range(0, 9):
        for k in range(1, 9):
            tree_sum = poly_sum(koh_term(t) for t in enumerate_koh_trees(n, k))
            reference = q_binomial(n, k)
            assert tree_sum == reference
            assert koh_rhs_closed(n, k) == reference


def test_criterion_2_goh_identity_sweep():
    for size in range(1, 7):
        for mu in enumerate_partitions(size):
            for k in range(1, 6):
                tree_sum = poly_sum(goh_term(t)
                                    for t in enumerate_goh_trees(mu, k))
                reference = hook_content(mu, k)
                assert tree_sum == reference
                assert goh_rhs_closed(mu, k) == reference
                assert schur_specialization_oracle(mu, k) == reference


def test_criterion_3_marked_koh_counts_match_rectangle_differences():
    for n in range(0, 37):
        for k in range(1, 37):
            if n * k > 36:
                break
            rs = range(n * k // 2 + 1)
            counts = marked_counts(map(leaves, enumerate_koh_trees(n, k)),
                                   n * k, rs)
            for r, per_tree in zip(rs, counts):
                assert sum(per_tree) == (count_in_rectangle(n, k, r)
                                         - count_in_rectangle(n, k, r - 1))


def test_criterion_4_marked_goh_counts_match_hook_content_differences():
    for size in range(1, 6):
        for mu in enumerate_partitions(size):
            for k in range(1, 5):
                rs = range(size * k // 2 + 1)
                counts = marked_counts(
                    map(goh_leaves, enumerate_goh_trees(mu, k)), size * k, rs)
                poly = hook_content(mu, k)
                for r, per_tree in zip(rs, counts):
                    assert sum(per_tree) == poly.coeff(r) - poly.coeff(r - 1)


def fixture_tree_8_9():
    t02 = KohTree(Partition((2,)), 0, 2, ((2, leaf(0)),))
    t22 = KohTree(Partition((1, 1)), 2, 2, ((1, t02),))
    return KohTree(Partition((4, 3, 1, 1)), 8, 9,
                   ((1, t22), (3, leaf(14)), (4, leaf(22))))


def fixture_tree_12_17():
    t43 = KohTree(Partition((2, 1)), 4, 3, ((1, leaf(2)), (2, leaf(6))))
    t222 = KohTree(Partition((2,)), 22, 2, ((2, leaf(44)),))
    return KohTree(Partition((4, 4, 3, 2, 2, 2)), 12, 17,
                   ((2, t43), (3, leaf(12)), (4, t222)))


def test_criterion_5a_tree_with_leaves_0_14_22():
    tree = fixture_tree_8_9()
    assert tree in enumerate_koh_trees(8, 9)
    assert leaves(tree) == (0, 14, 22)
    assert sigma(tree) == 36


def test_criterion_5b_marking_counts_of_that_tree():
    lv = (0, 14, 22)
    for r in range(0, 37):
        target = marking_target(sum(lv), 72, r)
        found = enumerate_markings(lv, target)
        if 18 <= r <= 32:
            assert found == ((0, 0, r - 18),)
            assert count_markings(lv, target) == 1
        else:
            assert found == ()
            assert count_markings(lv, target) == 0


def test_criterion_5c_tree_with_leaves_2_6_12_44():
    tree = fixture_tree_12_17()
    assert tree in enumerate_koh_trees(12, 17)
    assert leaves(tree) == (2, 6, 12, 44)
    assert sigma(tree) == 140
    target = marking_target(64, 12 * 17, 81)
    assert target == 11
    markings = enumerate_markings((2, 6, 12, 44), target)
    assert len(markings) == count_markings((2, 6, 12, 44), target) == 21
    assert (0, 2, 6, 11) in markings


def test_criterion_5d_specialization_of_3321_at_6():
    half = (1, 3, 7, 15, 28, 48, 78, 118, 169, 232, 304, 382, 463, 540,
            607, 661, 695, 706)
    expected = (0,) * 10 + half + half[-2::-1]
    poly = hook_content(Partition((3, 3, 2, 1)), 6)
    assert poly.coeffs == expected
    assert poly.degree == 44


def test_criterion_5e_goh_tree_with_term_q20_5_2_10():
    lam = Partition((3, 3, 2, 1))
    config = Configuration(lam, (Partition((1,) * 9),
                                 Partition((2, 1, 1, 1, 1)),
                                 Partition((1, 1, 1)),
                                 Partition((1,)),
                                 Partition()))
    sub11 = KohTree(Partition((3, 1)), 2, 4, ((1, leaf(0)), (3, leaf(4))))
    sub21 = KohTree(Partition((3,)), 0, 3, ((3, leaf(0)),))
    tree = GohTree(config, 6, (((1, 1), sub11), ((1, 2), leaf(0)),
                               ((2, 1), sub21), ((3, 1), leaf(1)),
                               (None, leaf(9))))
    assert tree in enumerate_goh_trees(lam, 6)
    assert goh_leaves(tree) == (0, 4, 0, 0, 1, 9)
    assert sigma(tree) == 40
    expected = (q_int(4) * q_int(1) * q_int(9)).shift(20)
    assert goh_term(tree) == expected
    display = (1, 3, 5, 7, 9, 10, 10, 10, 10, 10, 9, 7, 5, 3, 1)
    assert expected.coeffs == (0,) * 20 + display


def test_criterion_6_marking_rule_against_polynomial_expansion():
    rng = random.Random(20250817)
    for _ in range(1000):
        t = rng.randint(1, 5)
        a = tuple(rng.randint(0, 8) for _ in range(t))
        poly = product_of_q_ints(a)
        for k in range(sum(a) // 2 + 1):
            assert count_markings(a, k) == poly.coeff(k) - poly.coeff(k - 1)
    # the misread step bound disagrees on a stored counterexample
    a = (2, 2)
    truth = product_of_q_ints(a).coeff(2) - product_of_q_ints(a).coeff(1)
    assert count_markings(a, 2) == truth == 1
    assert count_markings_displayed_reading(a, 2) == 0


def test_criterion_7_general_reduction_against_substitution_oracle():
    shapes = [p for size in range(0, 9) for p in enumerate_partitions(size)]
    checked = 0
    for mu in shapes:
        for nu in shapes:
            product = mu.size * nu.size
            if product > 8:
                continue
            coefficient = plethysm_by_substitution(mu, nu)
            for r in range(product // 2 + 1):
                lam = Partition((product - r, r) if r else
                                ((product,) if product else ()))
                got = plethysm_two_row_general(lam, mu, nu).value
                assert got == coefficient(lam), (lam, mu, nu)
                checked += 1
    assert checked > 500


def test_criterion_8_structural_invariants_and_positivity():
    def check_node(node):
        if node.is_leaf:
            return
        single_row = len(node.mu) == 1
        for _, child in node.children:
            assert child.a * child.b <= node.a * node.b
            assert (child.a * child.b == node.a * node.b) == single_row
            check_node(child)

    for n in range(0, 7):
        for k in range(1, 7):
            for t in enumerate_koh_trees(n, k):
                validate_koh_tree(t, expected_type=(n, k))
                s = sigma(t)
                assert s >= 0 and s % 2 == 0
                check_node(t)
                term = koh_term(t)
                assert term.is_symmetric(n * k)
                assert term.is_unimodal()
                assert all(c >= 0 for c in term.coeffs)

    for size in range(1, 6):
        for mu in enumerate_partitions(size):
            for config in enumerate_configurations(mu):
                assert config.tau_stat() >= 0
            for k in range(1, 5):
                for t in enumerate_goh_trees(mu, k):
                    validate_goh_tree(t)
                    s = sigma(t)
                    assert s >= 0 and s % 2 == 0
                    for _, sub in t.children:
                        check_node(sub)
                    term = goh_term(t)
                    assert term.is_symmetric(size * k)
                    assert term.is_unimodal()
                    assert all(c >= 0 for c in term.coeffs)

    for n in range(1, 5):
        for k in range(1, 5):
            for r in range(n * k // 2 + 1):
                assert kronecker_two_row(n, k, r).value >= 0
    for size in range(1, 5):
        for mu in enumerate_partitions(size):
            for k in range(1, 4):
                for r in range(size * k // 2 + 1):
                    assert plethysm_two_row(mu, k, r).value >= 0
