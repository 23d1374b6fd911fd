"""The immutable value classes, the package's lazy names, and JSON round
trips of random valid trees."""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kohtrees
from kohtrees import goh, koh
from kohtrees.coefficients import CoefficientReport
from kohtrees.goh import Configuration, GohTree, enumerate_goh_trees
from kohtrees.koh import KohTree, enumerate_koh_trees
from kohtrees.partitions import Partition, enumerate_partitions
from kohtrees.qpoly import QPoly
from kohtrees.render import tree_to_dict


def _values():
    """(value, an equal value built apart, its field tuple, a different value)."""
    t = enumerate_koh_trees(3, 2)[0]
    g = enumerate_goh_trees(Partition((2, 1)), 2)[0]
    c = g.config
    return [
        (QPoly([1, 0, 2, 0]), QPoly((1, 0, 2)), ((1, 0, 2),), QPoly([1, 0, 3])),
        (t, KohTree(t.mu, t.a, t.b, t.children), (t.mu, t.a, t.b, t.children),
         KohTree(Partition((1,)), 3, 1)),
        (g, GohTree(g.config, g.k, g.children), (g.config, g.k, g.children),
         GohTree(g.config, 3, g.children)),
        (c, Configuration(c.lam, tuple(c.nus)), (c.lam, c.nus),
         Configuration(c.lam, c.nus[:2])),
        (CoefficientReport(3, "both"), CoefficientReport(3, "both", None),
         (3, "both", None), CoefficientReport(3, "both", (3,))),
    ]


@pytest.mark.parametrize("value, twin, fields, other", _values(),
                         ids=lambda v: type(v).__name__)
def test_values_compare_and_hash_by_their_fields(value, twin, fields, other):
    assert value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(fields)
    assert value != other
    # neither a plain tuple of the same fields nor a subclass is the same value
    assert value != fields
    subclass = type("Sub", (type(value),), {"__slots__": ()})
    assert value != subclass(*fields)


@pytest.mark.parametrize("value, _twin, _fields, _other", _values(),
                         ids=lambda v: type(v).__name__)
def test_values_refuse_assignment_and_have_no_dict(value, _twin, _fields, _other):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.brand_new = 1
    assert not hasattr(value, "__dict__")


def test_reprs_name_the_fields():
    assert repr(QPoly([1, 0, 2, 0])) == "QPoly(coeffs=(1, 0, 2))"
    assert (repr(KohTree(Partition((1,)), 3, 1))
            == "KohTree(mu=Partition([1]), a=3, b=1, children=())")
    c = Configuration(Partition((1,)), (Partition((1,)), Partition()))
    assert repr(c) == "Configuration(lam=Partition([1]), nus=(Partition([1]), Partition([])))"
    assert repr(GohTree(c, 0, ())) == f"GohTree(config={c!r}, k=0, children=())"
    assert (repr(CoefficientReport(3, "both"))
            == "CoefficientReport(value=3, method='both', witness_counts=None)")


def test_every_exported_name_resolves():
    for name in kohtrees.__all__:
        assert getattr(kohtrees, name) is not None
    assert kohtrees.QPoly is QPoly
    assert kohtrees.enumerate_koh_trees is koh.enumerate_koh_trees
    assert kohtrees.GohTree is goh.GohTree
    assert set(kohtrees.__all__) <= set(dir(kohtrees))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kohtrees.no_such_name
    assert not hasattr(kohtrees, "dataclasses")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from kohtrees import *", namespace)
    assert set(kohtrees.__all__) <= set(namespace)
    assert namespace["KohTree"] is KohTree


@st.composite
def koh_trees(draw):
    n = draw(st.integers(0, 9))
    k = draw(st.integers(1, 7))
    return draw(st.sampled_from(enumerate_koh_trees(n, k)))


@functools.cache
def _goh_cells():
    """The cells (mu, k) with |mu| <= 6 and k <= 4 that have trees."""
    return [(mu, k) for size in range(1, 7) for mu in enumerate_partitions(size)
            for k in range(5) if enumerate_goh_trees(mu, k)]


@st.composite
def goh_trees(draw):
    mu, k = draw(st.sampled_from(_goh_cells()))
    return draw(st.sampled_from(enumerate_goh_trees(mu, k)))


def _round_trip(tree, parse):
    return parse(json.loads(json.dumps(tree_to_dict(tree))))


@settings(max_examples=150, deadline=None)
@given(koh_trees())
def test_random_koh_trees_survive_a_json_round_trip(tree):
    back = _round_trip(tree, koh.tree_from_dict)
    assert back == tree and hash(back) == hash(tree)
    assert back.leaf_values == tree.leaf_values


@settings(max_examples=150, deadline=None)
@given(goh_trees())
def test_random_goh_trees_survive_a_json_round_trip(tree):
    back = _round_trip(tree, goh.tree_from_dict)
    assert back == tree and hash(back) == hash(tree)
    assert back.leaf_values == tree.leaf_values
