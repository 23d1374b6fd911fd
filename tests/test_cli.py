import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kohtrees
from kohtrees import cli
from kohtrees.goh import tree_from_dict as goh_from_dict
from kohtrees.koh import tree_from_dict as koh_from_dict


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kronecker_text(capsys):
    code, out, err = run_cli(capsys, "kronecker", "--n", "2", "--k", "2",
                             "--r", "2", "--method", "both")
    assert code == 0
    assert "coefficient: 1" in out
    assert "method: both" in out


def test_kronecker_json(capsys):
    code, out, _ = run_cli(capsys, "kronecker", "--n", "3", "--k", "4",
                           "--r", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficient"] == 1
    assert payload["method"] == "both"
    assert sum(payload["witness_counts"]) == 1


def test_method_spellings(capsys):
    for spelling in ("marked-trees", "marked_trees", "difference", "both"):
        code, _, _ = run_cli(capsys, "kronecker", "--n", "2", "--k", "2",
                             "--r", "1", "--method", spelling)
        assert code == 0


def test_plethysm_text(capsys):
    code, out, _ = run_cli(capsys, "plethysm", "--mu", "2,1", "--k", "2",
                           "--r", "2")
    assert code == 0
    assert "coefficient: 1" in out


def test_plethysm_general(capsys):
    code, out, _ = run_cli(capsys, "plethysm-general", "--lambda", "4,2",
                           "--mu", "2", "--nu", "2,1")
    assert code == 0
    assert "coefficient: 1" in out


def test_partition_flag_accepts_brackets(capsys):
    code, out, _ = run_cli(capsys, "plethysm", "--mu", "[2,1]", "--k", "2",
                           "--r", "2")
    assert code == 0
    assert "coefficient: 1" in out


def test_bad_partition_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "plethysm", "--mu", "1,2", "--k", "2",
                           "--r", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "plethysm", "--mu", "x", "--k", "2", "--r", "1")
    assert code == 2


def test_out_of_range_r_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "kronecker", "--n", "2", "--k", "2",
                           "--r", "9")
    assert code == 2
    assert "usage error" in err


def test_size_mismatch_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "plethysm-general", "--lambda", "3",
                           "--mu", "2", "--nu", "2")
    assert code == 2
    assert "usage error" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_unknown_method_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "kronecker", "--n", "2", "--k", "2",
                         "--r", "1", "--method", "guess")
    assert code == 2


def test_trees_text_listing(capsys):
    code, out, _ = run_cli(capsys, "trees", "koh", "--n", "2", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "total trees: 2"
    assert lines[0].startswith("tree 0: root=([2],2,2)")
    assert "term=[5]" in lines[0]
    assert "term=q^2*[1]" in lines[1]


def test_trees_marked_listing(capsys):
    code, out, _ = run_cli(capsys, "trees", "koh", "--n", "2", "--k", "2",
                           "--r", "2")
    assert code == 0
    assert "marks=(0,)" in out or "marks=(0)" in out
    assert out.strip().splitlines()[-1] == "total marked trees: 1"


def test_trees_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "trees", "koh", "--n", "4", "--k", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == len(set(json.dumps(d) for d in payload))
    for entry in payload:
        koh_from_dict(entry)


def test_trees_goh_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "trees", "goh", "--mu", "2,2", "--k", "3",
                           "--format", "json")
    assert code == 0
    for entry in json.loads(out):
        goh_from_dict(entry)


def test_trees_marked_json_carries_marks(capsys):
    code, out, _ = run_cli(capsys, "trees", "koh", "--n", "8", "--k", "9",
                           "--r", "20", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload
    for entry in payload:
        assert entry["r"] == 20
        assert entry["marks"][0] == 0


def test_trees_dot_output(capsys):
    code, out, _ = run_cli(capsys, "trees", "koh", "--n", "8", "--k", "9",
                           "--format", "dot")
    assert code == 0
    assert out.count("digraph") == 70
    assert '([4,3,1,1], 8, 9)' in out


def test_trees_goh_dot_output(capsys):
    code, out, _ = run_cli(capsys, "trees", "goh", "--mu", "2,1", "--k", "2",
                           "--format", "dot")
    assert code == 0
    assert out.startswith("digraph tree_0 {")
    assert '"1,1"' in out


def test_dot_rejected_outside_trees(capsys):
    code = cli.main(["kronecker", "--n", "2", "--k", "2", "--r", "1",
                     "--format", "dot"])
    capsys.readouterr()
    assert code == 2


def test_budget_exit(capsys):
    code, _, err = run_cli(capsys, "trees", "koh", "--n", "8", "--k", "9",
                           "--max-trees", "10")
    assert code == 1
    assert err.startswith("BUDGET_EXCEEDED:")


def test_marked_listing_budget_counts_markings(capsys):
    argv = ("trees", "koh", "--n", "12", "--k", "12", "--r", "40")
    code, out, err = run_cli(capsys, *argv, "--max-trees", "1000")
    assert (code, out) == (1, "")
    assert err.startswith("BUDGET_EXCEEDED: 1233 marked trees")
    code, out, _ = run_cli(capsys, *argv, "--max-trees", "2000")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total marked trees: 1233"


def test_marked_listing_checks_r_before_building_trees(capsys):
    code, _, err = run_cli(capsys, "trees", "koh", "--n", "30", "--k", "30",
                           "--r", "451", "--max-trees", "1")
    assert code == 2
    assert err.startswith("usage error: need 0 <= 2r <= nk, got r=451 with nk=900")


def test_zero_flags_are_usage_errors(capsys):
    for argv, name in (
            (("kronecker", "--n", "3", "--k", "4", "--r", "6", "--max-trees", "0"),
             "max_trees"),
            (("verify", "koh", "--max-n", "1", "--max-k", "1", "--workers", "0"),
             "workers")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"usage error: {name} must be positive, got 0\n"


def test_max_fillings_is_no_option(capsys):
    code, out, err = run_cli(capsys, "verify", "goh", "--max-size", "3",
                             "--max-k", "2", "--max-fillings", "5")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --max-fillings 5" in err


def test_trees_goh_needs_a_positive_k(capsys):
    for marked in ((), ("--r", "0")):
        assert run_cli(capsys, "trees", "goh", "--mu", "1", "--k", "0", *marked) == (
            2, "", "usage error: the row length k must be positive, got 0\n")


def test_verify_koh_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "koh", "--max-n", "3",
                           "--max-k", "3")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 12
    assert "checked 12 cells: 12 passed, 0 failed" in out


def test_verify_goh_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "goh", "--max-size", "3",
                           "--max-k", "2")
    assert code == 0
    assert "checked 12 cells: 12 passed, 0 failed" in out


def test_verify_goh_passes_a_cell_of_a_million_fillings(capsys):
    # mu = (5, 2, 1), k = 11 has 210 trees and 1,098,240 fillings
    code, out, err = run_cli(capsys, "verify", "goh", "--max-size", "8",
                             "--max-k", "11")
    assert (code, err) == (0, "")
    assert "PASS goh mu=[5,2,1] k=11\n" in out
    assert out.endswith("checked 726 cells: 726 passed, 0 failed\n")


def test_verify_output_stable_across_workers(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "koh", "--max-n", "3",
                             "--max-k", "3")
    code2, out2, _ = run_cli(capsys, "verify", "koh", "--max-n", "3",
                             "--max-k", "3", "--workers", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "_verify_cell",
        lambda family, cell: (f"{family} n={cell[0]} k={cell[1]}", False,
                              "forced failure"))
    code, out, _ = run_cli(capsys, "verify", "koh", "--max-n", "0",
                           "--max-k", "1")
    assert code == 1
    assert "FAIL koh n=0 k=1" in out
    assert "first counterexample:" in out
    assert "forced failure" in out


def test_a_sweep_marks_over_budget_cells_and_goes_on(capsys):
    for workers in ("1", "2"):
        code, out, err = run_cli(capsys, "verify", "koh", "--max-n", "5",
                                 "--max-k", "5", "--max-trees", "3",
                                 "--workers", workers)
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 31
        assert [line for line in lines if not line.startswith("PASS")] == [
            "BUDGET koh n=3 k=4", "BUDGET koh n=4 k=4", "BUDGET koh n=4 k=5",
            "BUDGET koh n=5 k=4", "BUDGET koh n=5 k=5",
            "checked 30 cells: 25 passed, 0 failed, 5 over budget"]
        assert err == "BUDGET_EXCEEDED: 4 trees of type (3, 4) exceed the budget 3\n"

        code, out, err = run_cli(capsys, "verify", "goh", "--max-size", "3",
                                 "--max-k", "2", "--max-trees", "1",
                                 "--workers", workers)
        assert code == 1
        assert [line for line in out.splitlines() if not line.startswith("PASS")] == [
            "BUDGET goh mu=[2] k=2", "BUDGET goh mu=[3] k=2",
            "checked 12 cells: 10 passed, 0 failed, 2 over budget"]
        assert err == ("BUDGET_EXCEEDED: 2 trees for (Partition([2]), 2) "
                       "exceed the budget 1\n")


def test_a_sweep_with_failed_and_over_budget_cells_reports_both(capsys, monkeypatch):
    def cell(family, cell):
        n = cell[0]
        return (f"{family} n={n} k={cell[1]}", {0: True, 1: False, 2: None}[n],
                f"detail {n}")
    monkeypatch.setattr(cli, "_verify_cell", cell)
    code, out, err = run_cli(capsys, "verify", "koh", "--max-n", "2",
                             "--max-k", "1")
    assert code == 1
    assert out == ("PASS koh n=0 k=1\nFAIL koh n=1 k=1\nBUDGET koh n=2 k=1\n"
                   "checked 3 cells: 1 passed, 1 failed, 1 over budget\n"
                   "first counterexample:\ndetail 1\n")
    assert err == "BUDGET_EXCEEDED: detail 2\n"


def test_runs_are_deterministic(capsys):
    first = run_cli(capsys, "trees", "goh", "--mu", "3,1", "--k", "3",
                    "--format", "json")
    second = run_cli(capsys, "trees", "goh", "--mu", "3,1", "--k", "3",
                     "--format", "json")
    assert first == second


def test_failing_koh_cell_prints_a_capped_witness_list(capsys, monkeypatch):
    import kohtrees.coefficients as coefficients
    real = coefficients.count_in_rectangle
    monkeypatch.setattr(coefficients, "count_in_rectangle",
                        lambda n, k, r: 0 if (n, k) == (6, 6) else real(n, k, r))
    code, out, _ = run_cli(capsys, "verify", "koh", "--max-n", "6",
                           "--max-k", "6")
    assert code == 1
    assert "FAIL koh n=6 k=6\n" in out
    assert "checked 42 cells: 41 passed, 1 failed" in out
    detail = out.split("first counterexample:\n", 1)[1]
    assert detail.startswith(
        "koh n=6 k=6\n  marked trees give 1 but the rectangle difference "
        "gives 0 for n=6, k=6, r=0\n")
    witness = detail.splitlines()[2]
    prefix = f"  witness trees ({cli.WITNESS_TREES} of 20): "
    assert witness.startswith(prefix)
    assert len(json.loads(witness[len(prefix):])) == cli.WITNESS_TREES
    assert len(detail) < 4000
    assert len(out) < 5000


def test_a_marking_dropped_by_the_value_table_fails_its_cell(capsys, monkeypatch):
    import kohtrees.marking as marking
    real = marking._value_counts

    def drop_one(a, top, table=None):
        # (36,) is the one-leaf tree of koh n=6 k=6 and of no other cell
        # here; drop its marking with value 0
        by_value = real(a, top, table)
        if tuple(a) == (36,):
            by_value[0] -= 1
        return by_value

    monkeypatch.setattr(marking, "_value_counts", drop_one)
    code, out, _ = run_cli(capsys, "verify", "koh", "--max-n", "6",
                           "--max-k", "6", "--workers", "1")
    assert code == 1
    assert "FAIL koh n=6 k=6\n" in out
    assert "checked 42 cells: 41 passed, 1 failed" in out
    assert ("marked trees give 0 but the rectangle difference gives 1 "
            "for n=6, k=6, r=0\n") in out


def test_a_single_r_query_counts_the_markings_of_each_tree_once(capsys, monkeypatch):
    import kohtrees.marking as marking
    from kohtrees.goh import enumerate_goh_trees
    from kohtrees.koh import enumerate_koh_trees, leaves
    from kohtrees.partitions import Partition
    real, calls = marking.count_markings, []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(marking, "count_markings", counted)
    for argv, trees in [
            (("kronecker", "--n", "6", "--k", "6", "--r", "9"), enumerate_koh_trees(6, 6)),
            (("plethysm", "--mu", "3,2,1", "--k", "3", "--r", "4"),
             enumerate_goh_trees(Partition((3, 2, 1)), 3))]:
        calls.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        # one call per tree, trees in order
        assert calls == [leaves(tree) for tree in trees] and len(trees) > 1


def test_failing_goh_cell_reports_the_tree_sum(capsys, monkeypatch):
    import kohtrees.coefficients as coefficients
    from kohtrees.qpoly import ONE, ZERO
    real = coefficients.hook_content
    monkeypatch.setattr(
        coefficients, "hook_content",
        lambda mu, k: real(mu, k) + (ONE if (mu.parts, k) == ((2, 2), 5) else ZERO))
    code, out, _ = run_cli(capsys, "verify", "goh", "--max-size", "4",
                           "--max-k", "5")
    assert code == 1
    assert "FAIL goh mu=[2,2] k=5\n" in out
    assert "checked 55 cells: 54 passed, 1 failed" in out
    detail = out.split("first counterexample:\n", 1)[1]
    assert detail.startswith("goh mu=[2,2] k=5\n  tree terms sum to ")
    assert "but the hook content gives " in detail.splitlines()[1]
    assert "the closed form" not in detail
    assert detail.splitlines()[2].startswith(
        f"  witness trees ({cli.WITNESS_TREES} of 9): ")
    assert len(out) < 5000


def test_thin_rectangles_get_an_answer(capsys):
    # trees of type (400, 2) are 200 levels deep
    assert run_cli(capsys, "kronecker", "--n", "400", "--k", "2", "--r", "5") == (
        0, "coefficient: 0\nmethod: both\n", "")


def test_a_tree_past_the_recursion_limit_prints_as_dot_but_not_as_json(capsys):
    # r = 2100 marks one tree of type (2100, 2): a chain of 1,051 inner
    # nodes down to one leaf, past the interpreter's recursion limit
    argv = ("trees", "koh", "--n", "2100", "--k", "2", "--r", "2100")
    code, out, err = run_cli(capsys, *argv, "--format", "dot")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:4] == ["digraph tree_0 {", "  node [shape=plaintext];",
                         '  label="r = 2100";', "  labelloc=top;"]
    assert lines[-1] == "}"
    # every node is defined once, in preorder, and every node but the
    # root is entered by one edge (the mark's dashed edge included)
    defined = [m.group(1) for line in lines
               if (m := re.match(r"  (n\d+) \[label=", line))]
    entered = [m.group(1) for line in lines
               if (m := re.match(r"  n\d+ -> (n\d+)", line))]
    assert defined == [f"n{i}" for i in range(len(defined))]
    assert sorted(entered) == sorted(defined[1:])
    assert len(defined) == 1053  # 1,051 inner nodes, one leaf, one mark
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, out) == (1, "")
    assert err == ("BUDGET_EXCEEDED: a tree is too deep to write as JSON; "
                   "--format text or dot prints it\n")


# small values only: the tree budget is compared with a count that
# count_koh_trees finishes first, so it does not bound that count's work
_INTS = st.sampled_from([*map(str, range(-1, 13)), "", "x", "1.5", "1e3", " 3"])
_PARTITIONS = st.one_of(
    st.lists(st.integers(-1, 6), max_size=4)
    .filter(lambda parts: sum(map(abs, parts)) <= 6)
    .map(lambda parts: ",".join(map(str, parts))),
    st.sampled_from(["[2,1]", "[]", "x", "2,,1", "1;1"]))
_MAX_TREES = st.sampled_from(["-1", "0", "1", "5", "1000", "x"])
_WORKERS = st.sampled_from(["-1", "0", "1", "x"])
_QUERY = {"--max-trees": _MAX_TREES,
          "--method": st.sampled_from(["marked-trees", "difference", "both", "guess"]),
          "--format": st.sampled_from(["text", "json", "dot", "xml"])}


def _argv(command, required, optional):
    """command, then every required option and some optional ones, each
    with a value drawn from its strategy."""
    def piece(option, value):
        return value.map(lambda v: [option, v])
    pieces = [piece(option, value) for option, value in required.items()]
    pieces += [st.just([]) | piece(option, value) for option, value in optional.items()]
    return st.tuples(*pieces).map(
        lambda drawn: [*command, *(token for piece in drawn for token in piece)])


_ARGVS = st.one_of(
    _argv(["kronecker"], {"--n": _INTS, "--k": _INTS,
                          "--r": st.integers(-1, 80).map(str)}, _QUERY),
    _argv(["plethysm"], {"--mu": _PARTITIONS, "--k": _INTS,
                         "--r": st.integers(-1, 40).map(str)}, _QUERY),
    _argv(["plethysm-general"], {"--lambda": _PARTITIONS, "--mu": _PARTITIONS,
                                 "--nu": _PARTITIONS}, _QUERY),
    _argv(["trees", "koh"], {"--n": _INTS, "--k": _INTS},
          {"--r": st.integers(-1, 40).map(str), **_QUERY}),
    _argv(["trees", "goh"], {"--mu": _PARTITIONS, "--k": _INTS},
          {"--r": st.integers(-1, 20).map(str), **_QUERY}),
    _argv(["verify", "koh"], {"--max-n": _INTS, "--max-k": _INTS},
          {"--workers": _WORKERS, "--max-trees": _MAX_TREES}),
    _argv(["verify", "goh"], {"--max-size": st.integers(-1, 6).map(str),
                              "--max-k": _INTS},
          {"--workers": _WORKERS, "--max-trees": _MAX_TREES,
           "--max-fillings": st.sampled_from(["5", "0"])}),
    # missing, repeated and misplaced options
    st.lists(st.sampled_from(["kronecker", "trees", "verify", "koh", "goh",
                              "--n", "--k", "3", "-1", "--help",
                              "--max-fillings"]), max_size=5),
)


def _run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@settings(max_examples=300, deadline=None)
@given(_ARGVS)
def test_fuzzed_argv_exits_0_1_or_2(argv):
    code = _run_quietly(argv)
    assert code in (0, 1, 2)
    if argv[:2] == ["verify", "goh"] and "--max-fillings" in argv:
        assert code == 2


SRC = os.path.dirname(os.path.dirname(kohtrees.__file__))


def _modules_after(*argv):
    """The modules loaded once a fresh process has run the CLI on argv."""
    probe = ("import sys; from kohtrees import cli; cli.main(sys.argv[1:]); "
             "print(*sorted(sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=SRC))
    return set(out.stdout.splitlines()[-1].split())


def test_a_query_loads_only_the_modules_it_runs():
    kron = _modules_after("kronecker", "--n", "6", "--k", "6", "--r", "9")
    assert "kohtrees.koh" in kron
    assert not kron & {"dataclasses", "kohtrees.goh", "kohtrees.render"}
    pleth = _modules_after("plethysm", "--mu", "2,1", "--k", "2", "--r", "1")
    assert "kohtrees.goh" in pleth
    assert "kohtrees.render" not in pleth


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    probe = ("import sys, kohtrees.cli; "
             "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=SRC))
    assert out.stdout == "False\n"


def _process(*argv):
    """`python -m kohtrees.cli argv` in a fresh process, the entry users run."""
    return subprocess.run([sys.executable, "-m", "kohtrees.cli", *argv],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=SRC))


@pytest.mark.parametrize("name,argv", [
    ("kronecker_3_4_6.txt", "kronecker --n 3 --k 4 --r 6"),
    ("kronecker_5_4_7_marked.json",
     "kronecker --n 5 --k 4 --r 7 --method marked-trees --format json"),
    ("plethysm_31_3_4.json", "plethysm --mu 3,1 --k 3 --r 4 --format json"),
    ("trees_koh_4_3_r3.json", "trees koh --n 4 --k 3 --r 3 --format json"),
    ("verify_goh_4_3.txt", "verify goh --max-size 4 --max-k 3"),
])
def test_the_process_entry_prints_the_golden_bytes(name, argv):
    proc = _process(*argv.split())
    with open(os.path.join(os.path.dirname(__file__), "golden", name), "rb") as f:
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f.read(), b"")


def test_the_process_entry_exits_1_over_budget_and_2_on_a_usage_error():
    proc = _process("kronecker", "--n", "8", "--k", "9", "--r", "10",
                    "--max-trees", "10")
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"BUDGET_EXCEEDED: 70 trees of type (8, 9) exceed the budget 10\n"
    proc = _process("kronecker", "--n", "3", "--k", "4", "--r", "99")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"usage error: need 0 <= 2r <= nk, got r=99 with nk=12\n"


def test_only_the_process_entry_turns_the_collector_off():
    probe = ("import gc, sys; from kohtrees import cli; "
             "cli.main(['kronecker', '--n', '3', '--k', '4', '--r', '6']); "
             "before = gc.isenabled(), gc.get_freeze_count(); cli.main(); "
             "print(*before, gc.isenabled(), gc.get_freeze_count() > 0)")
    out = subprocess.run([sys.executable, "-c", probe, "kronecker", "--n", "3",
                          "--k", "4", "--r", "6"], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert out.stdout.splitlines()[-1] == "True 0 False True"
