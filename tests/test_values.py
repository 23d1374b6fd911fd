"""The immutable value classes, the package's lazy names, JSON round
trips of random valid trees, and the public surface: the names it
exports and the ones a command runs."""

import functools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kohtrees
from kohtrees import goh, koh
from kohtrees.coefficients import CoefficientReport
from kohtrees.goh import Configuration, GohTree, enumerate_goh_trees
from kohtrees.koh import enumerate_koh_trees
from kohtrees.partitions import Partition, enumerate_partitions
from kohtrees.qpoly import QPoly
from kohtrees.render import tree_to_dict
from kohtrees.trees import KohTree
from tree_oracles import goh_tree_from_dict, koh_tree_from_dict


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


def test_the_public_surface_is_what_a_route_runs():
    assert set(kohtrees.__all__) == {
        "ONE", "ZERO", "QPoly", "q_binomial",
        "Partition", "count_in_rectangle", "enumerate_partitions",
        "KohTree", "count_koh_trees", "enumerate_koh_trees", "koh_rhs_closed",
        "koh_term", "leaves",
        "Configuration", "GohTree", "enumerate_configurations",
        "enumerate_goh_trees", "goh_leaves", "goh_rhs_closed", "goh_term",
        "count_markings", "enumerate_markings", "marking_target",
        "CoefficientReport", "METHOD_BOTH", "METHOD_DIFFERENCE", "METHOD_MARKED",
        "hook_content", "kronecker_two_row", "plethysm_two_row",
        "plethysm_two_row_general", "schur_specialization_oracle",
        "BudgetExceededError", "CrossCheckFailedError", "NonExactDivisionError",
        "PreconditionViolationError", "StructureViolationError", "__version__"}
    assert len(kohtrees.__all__) == 38
    # what a production path reads, plus __mul__ and exact_div, which the
    # benchmark's traced run patches; Python 3.13 gives every class
    # __firstlineno__ and __static_attributes__
    members = {name for name in vars(QPoly)
               if not name.startswith("_") or name.endswith("__")}
    assert members - {"__doc__", "__init__", "__module__", "__slots__",
                      "__firstlineno__", "__static_attributes__"} == {
        "coeffs", "coeff", "degree", "is_zero", "shift", "__str__",
        "__mul__", "exact_div"}


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
    back = _round_trip(tree, koh_tree_from_dict)
    assert back == tree and hash(back) == hash(tree)
    assert back.leaf_values == tree.leaf_values


@settings(max_examples=150, deadline=None)
@given(goh_trees())
def test_random_goh_trees_survive_a_json_round_trip(tree):
    back = _round_trip(tree, goh_tree_from_dict)
    assert back == tree and hash(back) == hash(tree)
    assert back.leaf_values == tree.leaf_values


# one run of every subcommand, method, output format and --r form, plus
# a budget failure (exit 1) and a usage error (exit 2); verify in this
# process, so the profiler sees every cell
_ROUTES = [
    ("kronecker --n 4 --k 4 --r 4", 0),
    ("kronecker --n 4 --k 4 --r 4 --method marked-trees --format json", 0),
    ("kronecker --n 4 --k 4 --r 4 --method difference", 0),
    ("plethysm --mu 2,1 --k 3 --r 3 --format json", 0),
    ("plethysm --mu 2,1 --k 3 --r 3 --method marked-trees", 0),
    ("plethysm --mu 2,1 --k 3 --r 3 --method difference", 0),
    ("plethysm-general --lambda 4,2 --mu 2 --nu 3", 0),
    ("trees koh --n 3 --k 2", 0),
    ("trees koh --n 3 --k 2 --r 2 --format json", 0),
    ("trees koh --n 3 --k 2 --format dot", 0),
    ("trees goh --mu 2,1 --k 2 --format json", 0),
    ("trees goh --mu 2,1 --k 2 --r 1 --format dot", 0),
    ("verify koh --max-n 3 --max-k 3 --workers 1", 0),
    ("verify goh --max-size 3 --max-k 2 --workers 1", 0),
    ("kronecker --n 8 --k 9 --r 10 --max-trees 10", 1),
    ("kronecker --n 3 --k 4 --r 99", 2),
]

# every exported function a command runs: profile the routes above in a
# fresh process, where no cache an earlier test filled can skip a call,
# and print the functions never entered
_PROBE = """\
import contextlib, inspect, io, json, sys
import kohtrees
from kohtrees import cli
entered = set()
sys.setprofile(lambda frame, event, arg:
               event == "call" and entered.add(frame.f_code))
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv.split()))
sys.setprofile(None)
functions = {name: inspect.unwrap(getattr(kohtrees, name)) for name in kohtrees.__all__}
print(json.dumps([codes, sorted(name for name, f in functions.items()
                                if inspect.isfunction(f) and f.__code__ not in entered)]))
"""


def test_every_exported_function_runs_on_a_command_route():
    src = os.path.dirname(os.path.dirname(kohtrees.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([argv for argv, _ in _ROUTES])],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src))
    codes, never = json.loads(out.stdout)
    assert codes == [code for _, code in _ROUTES]
    # the benchmark's traced run patches these five, so they stay until
    # the benchmark drops them; count_markings is one entry of the single-r
    # marking loop, which every command route runs directly
    assert never == ["count_in_rectangle", "count_markings", "goh_leaves", "goh_term",
                     "koh_term"]
