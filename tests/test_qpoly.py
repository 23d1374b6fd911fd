import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohtrees.errors import NonExactDivisionError, StructureViolationError
from kohtrees.koh import leaf_term_sum
from kohtrees.qpoly import (ONE, ZERO, QPoly, pack, pack_width, packed_q_int,
                            q_binomial, q_int, sum_of_products, unpack)


def test_trailing_zeros_trimmed():
    assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert QPoly([0, 0, 0]).coeffs == ()
    assert QPoly([1, 0, 2]).coeffs == (1, 0, 2)


def test_zero_polynomial():
    assert ZERO.is_zero
    assert ZERO.degree == -1
    assert not ONE.is_zero
    assert ONE.degree == 0


def test_coeff_outside_range_is_zero():
    p = QPoly([3, 1, 4])
    assert p.coeff(0) == 3
    assert p.coeff(2) == 4
    assert p.coeff(5) == 0
    assert p.coeff(-1) == 0


def test_addition():
    p = QPoly([1, 2, 3])
    r = QPoly([0, 1])
    assert (p + r).coeffs == (1, 3, 3)
    assert (r + p).coeffs == (1, 3, 3)


def test_multiplication():
    assert (q_int(1) * q_int(1)).coeffs == (1, 2, 1)
    assert (ZERO * q_int(4)).is_zero


def test_shift():
    assert q_int(1).shift(2).coeffs == (0, 0, 1, 1)
    assert ZERO.shift(3).is_zero
    with pytest.raises(ValueError):
        q_int(1).shift(-1)


def test_exact_division():
    p = q_int(2) * q_int(5)
    assert p.exact_div(q_int(5)) == q_int(2)
    assert ZERO.exact_div(q_int(1)).is_zero


def test_exact_division_refuses_remainders():
    with pytest.raises(NonExactDivisionError):
        q_int(2).exact_div(q_int(1))
    with pytest.raises(NonExactDivisionError):
        QPoly([1]).exact_div(QPoly([0, 1]))
    with pytest.raises(NonExactDivisionError):
        QPoly([2, 2]).exact_div(QPoly([3]))
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(ZERO)


def test_symmetry_predicate():
    assert q_int(4).is_symmetric(4)
    assert not q_int(4).is_symmetric(6)
    assert QPoly([1, 5, 1]).is_symmetric(2)
    assert QPoly([0, 1, 1]).is_symmetric(3)
    assert ZERO.is_symmetric(0)


def test_unimodality_predicate():
    assert QPoly([1, 2, 2, 1]).is_unimodal()
    assert QPoly([1, 0, 1]).is_unimodal() is False
    assert ZERO.is_unimodal()
    assert q_int(3).is_unimodal()


def test_str_rendering():
    assert str(QPoly([1, 1, 2])) == "1 + q + 2*q^2"
    assert str(ZERO) == "0"
    assert str(QPoly([0, 0, 1])) == "q^2"


def test_q_int_validates():
    assert q_int(0) == ONE
    with pytest.raises(ValueError, match=r"q_int needs a >= 0, got -1"):
        q_int(-1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 12), max_size=8), max_size=4),
       st.integers(0, 5))
def test_leaf_term_sum_matches_repeated_multiplication(tuples, extra):
    # one more label, 0 or 1, makes every sum even, so every defect below
    # an even degree is even too
    tuples = [(*labels, sum(labels) % 2) for labels in tuples]
    degree = max(map(sum, tuples), default=0) + 2 * extra
    expected = ZERO
    for labels in tuples:
        product = ONE
        for a in labels:
            product = product * q_int(a)
        expected = expected + product.shift((degree - sum(labels)) // 2)
    assert leaf_term_sum(degree, tuples) == expected


def test_leaf_term_sum_edge_cases():
    assert leaf_term_sum(0, ()) == ZERO
    assert leaf_term_sum(0, ((),)) == ONE
    assert leaf_term_sum(0, ((0, 0, 0),)) == ONE
    assert leaf_term_sum(3, ((0, 3),)) == q_int(3)
    with pytest.raises(ValueError, match=r"q_int needs a >= 0, got -1"):
        leaf_term_sum(1, ((2, -1),))
    with pytest.raises(StructureViolationError, match="odd defect 1"):
        leaf_term_sum(2, ((1,),))
    with pytest.raises(StructureViolationError, match="exceeds the degree 1"):
        leaf_term_sum(1, ((2,),))


def test_q_binomial_small_values():
    assert q_binomial(0, 0) == ONE
    assert q_binomial(3, 0) == ONE
    assert q_binomial(0, 3) == ONE
    assert q_binomial(1, 1).coeffs == (1, 1)
    assert q_binomial(2, 2).coeffs == (1, 1, 2, 1, 1)
    assert q_binomial(-1, 2).is_zero
    assert q_binomial(2, -1).is_zero


def test_q_binomial_specializes_to_binomial():
    for n in range(7):
        for k in range(7):
            assert sum(q_binomial(n, k).coeffs) == math.comb(n + k, k)


def test_q_binomial_symmetric_and_unimodal():
    for n in range(7):
        for k in range(7):
            p = q_binomial(n, k)
            assert p.degree == n * k
            assert p.is_symmetric(n * k)
            assert p.is_unimodal()


def schoolbook_q_binomial(n, k):
    """B(n, k) = B(n, k-1) + q^k B(n-1, k) on QPoly sums: the oracle for
    the packed recurrence."""
    column = [ONE] * (n + 1)
    for j in range(1, k + 1):
        for i in range(1, n + 1):
            column[i] = column[i] + column[i - 1].shift(j)
    return column[n]


def test_q_binomial_matches_the_qpoly_recurrence():
    for n in range(13):
        for k in range(13):
            assert q_binomial(n, k) == schoolbook_q_binomial(n, k)


def test_q_binomial_pascal_recurrence():
    for n in range(1, 6):
        for k in range(1, 6):
            lhs = q_binomial(n, k)
            rhs = q_binomial(n, k - 1) + q_binomial(n - 1, k).shift(k)
            assert lhs == rhs


def test_pack_width_fits_the_bound():
    assert [pack_width(b) for b in (0, 1, 255, 256, 2 ** 64 - 1, 2 ** 64)] == [
        1, 1, 1, 2, 8, 9]


def test_pack_round_trips_and_packs_q_integers():
    assert pack(ZERO, 3) == 0 and unpack(0, 3) == ZERO
    p = QPoly([5, 0, 2 ** 70, 0, 1])
    assert unpack(pack(p, 9), 9) == p
    for width in (1, 2, 5):
        for a in range(6):
            assert packed_q_int(a, width) == pack(q_int(a), width)
    with pytest.raises(ValueError, match=r"q_int needs a >= 0, got -1"):
        packed_q_int(-1, 1)


nonnegative = st.lists(st.integers(0, 2 ** 70), max_size=6).map(QPoly)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.lists(nonnegative, max_size=3)),
                max_size=4))
def test_packed_sums_and_products_match_schoolbook(terms):
    expected = ZERO
    bound = 0
    for shift, factors in terms:
        product = ONE
        for f in factors:
            product = product * f
        expected = expected + product.shift(shift)
        bound += math.prod(sum(f.coeffs) for f in factors)
    assert sum_of_products(terms) == expected
    # the same sum by hand from the four helpers
    width = pack_width(bound)
    packed = sum(math.prod(pack(f, width) for f in factors) << 8 * width * shift
                 for shift, factors in terms
                 if math.prod(sum(f.coeffs) for f in factors))
    assert unpack(packed, width) == expected
