import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box_oracles import plain_box_count, three_part_count
from kohtrees import partitions
from kohtrees.partitions import (Partition, count_in_rectangle,
                                 enumerate_partitions, rectangle_counts)
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


def test_count_in_rectangle_folds_r_past_the_middle_of_the_box(monkeypatch):
    built = []

    def spy(n, k, top):
        row = rectangle_counts(n, k, top)
        built.append(len(row))
        return row

    monkeypatch.setattr(partitions, "rectangle_counts", spy)
    count_in_rectangle.cache_clear()
    for r in (400, 30 * 31 - 400, 465):
        assert count_in_rectangle(30, 31, r) == plain_box_count(30, 31, r)
        assert built[-1] == min(r, 30 * 31 - r) + 1
    count_in_rectangle.cache_clear()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.data())
def test_the_row_matches_the_plain_recurrence_and_the_gaussian(n, k, data):
    top = data.draw(st.integers(0, n * k), label="top")
    row, poly = rectangle_counts(n, k, top), q_binomial(n, k)
    assert row == [plain_box_count(n, k, r) for r in range(top + 1)]
    assert row == [poly.coeff(r) for r in range(top + 1)]
    assert count_in_rectangle(n, k, top) == count_in_rectangle(n, k, n * k - top)


def test_thin_boxes_need_no_deep_stack():
    assert rectangle_counts(2000, 1, 1000) == [1] * 1001
    assert rectangle_counts(1, 2000, 1000) == [1] * 1001
    row = rectangle_counts(3000, 3, 4500)
    assert row[4500] == three_part_count(3000, 4500)
    assert row[4499] == three_part_count(3000, 4499)
    assert count_in_rectangle(3000, 3, 9000 - 17) == three_part_count(3000, 17)


def test_count_in_rectangle_edges():
    assert rectangle_counts(3, 4, -1) == []
    assert rectangle_counts(0, 5, 2) == [1, 0, 0]
    assert rectangle_counts(3, 4, 14) == [1, 1, 2, 3, 4, 4, 5, 4, 4, 3, 2, 1, 1, 0, 0]
    assert count_in_rectangle(3, 4, 0) == 1
    assert count_in_rectangle(3, 4, -1) == 0
    assert count_in_rectangle(3, 4, 13) == 0
    assert count_in_rectangle(0, 5, 1) == 0
    assert count_in_rectangle(2, 2, 2) == 2
