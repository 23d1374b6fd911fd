import functools

import pytest

from kohtrees.partitions import (Partition, count_in_rectangle,
                                 enumerate_partitions)
from kohtrees.qpoly import q_binomial


def test_construction_validates():
    assert Partition((3, 2, 2)).parts == (3, 2, 2)
    assert Partition().parts == ()
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((1, 0))
    with pytest.raises(ValueError):
        Partition((1.5,))
    with pytest.raises(ValueError):
        Partition((2, True))


def test_basic_protocol():
    p = Partition((4, 2, 1))
    assert p.size == 7
    assert len(p) == 3
    assert list(p) == [4, 2, 1]
    assert p[0] == 4
    assert bool(p)
    assert not Partition()
    assert p == Partition((4, 2, 1))
    assert p != Partition((4, 2))
    assert hash(p) == hash(Partition((4, 2, 1)))
    assert repr(p) == "Partition([4, 2, 1])"


def test_conjugate():
    assert Partition((4, 3, 1, 1)).conjugate() == Partition((4, 2, 2, 1))
    assert Partition((3,)).conjugate() == Partition((1, 1, 1))
    assert Partition().conjugate() == Partition()


def test_conjugate_is_involutive():
    for n in range(8):
        for p in enumerate_partitions(n):
            assert p.conjugate().conjugate() == p


def test_mult_and_distinct_parts():
    p = Partition((4, 4, 3, 2, 2, 2))
    assert p.mult(2) == 3
    assert p.mult(4) == 2
    assert p.mult(5) == 0
    assert p.distinct_parts() == (2, 3, 4)
    with pytest.raises(ValueError):
        p.mult(0)


def test_b_stat():
    assert Partition((4, 3, 1, 1)).b_stat() == 8
    assert Partition().b_stat() == 0
    assert Partition((5,)).b_stat() == 0


def test_q_stat_matches_conjugate_prefix():
    for n in range(7):
        for p in enumerate_partitions(n):
            conj = p.conjugate().parts
            for j in range(n + 2):
                assert p.q_stat(j) == sum(conj[:j])
    with pytest.raises(ValueError):
        Partition((2,)).q_stat(-1)


def test_enumerate_partitions_order_and_counts():
    assert [p.parts for p in enumerate_partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert enumerate_partitions(0) == [Partition()]
    counts = [len(enumerate_partitions(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


def test_count_in_rectangle_agrees_with_gaussian_coefficients():
    for n in range(10):
        for k in range(10):
            poly = q_binomial(n, k)
            for r in range(-1, n * k + 2):
                assert count_in_rectangle(n, k, r) == poly.coeff(r)
                assert count_in_rectangle(n, k, r) == count_in_rectangle(n, k, n * k - r)


def test_count_in_rectangle_folds_r_past_the_middle_of_the_box():
    @functools.cache
    def plain(n, k, r):
        if r < 0 or n < 0 or k < 0 or r > n * k:
            return 0
        if r == 0:
            return 1
        return plain(n, k - 1, r) + plain(n - 1, k, r - k)

    count_in_rectangle.cache_clear()
    assert count_in_rectangle(30, 31, 400) == plain(30, 31, 400)
    # 29,886 states against the plain recurrence's 47,568
    assert count_in_rectangle.cache_info().currsize <= 0.7 * plain.cache_info().currsize


def test_count_in_rectangle_edges():
    assert count_in_rectangle(3, 4, 0) == 1
    assert count_in_rectangle(3, 4, -1) == 0
    assert count_in_rectangle(3, 4, 13) == 0
    assert count_in_rectangle(0, 5, 1) == 0
    assert count_in_rectangle(2, 2, 2) == 2
