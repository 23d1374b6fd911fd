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
from kohtrees import cli, koh, workers
from kohtrees.goh import enumerate_goh_trees
from kohtrees.koh import enumerate_koh_trees, leaves
from kohtrees.partitions import Partition, enumerate_partitions
from kohtrees.qpoly import q_binomial
from tree_oracles import goh_tree_from_dict as goh_from_dict
from tree_oracles import koh_tree_from_dict as koh_from_dict


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
    assert tuple(map(koh_from_dict, payload)) == enumerate_koh_trees(4, 3)


def test_trees_goh_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "trees", "goh", "--mu", "2,2", "--k", "3",
                           "--format", "json")
    assert code == 0
    assert (tuple(map(goh_from_dict, json.loads(out)))
            == enumerate_goh_trees(Partition((2, 2)), 3))


def written_leaves(entry):
    """The leaf labels of a written tree: the a of each node with b == 1,
    depth first, children in the order written."""
    found, todo = [], [entry]
    while todo:
        node = todo.pop()
        if node.get("b") == 1:
            found.append(node["a"])
        else:
            todo.extend(child.get("tree", child.get("koh"))
                        for child in reversed(node["children"]))
    return tuple(found)


_LISTED_CELLS = st.one_of(
    st.tuples(st.just("koh"), st.integers(0, 9), st.integers(1, 7)),
    st.tuples(st.just("goh"), st.integers(1, 6).flatmap(
        lambda size: st.sampled_from(enumerate_partitions(size))), st.integers(1, 4)))


@settings(max_examples=60, deadline=None)
@given(_LISTED_CELLS)
def test_trees_json_lists_each_tree_once_with_its_leaves(cell):
    family, shape, k = cell
    if family == "koh":
        argv, trees = ["--n", str(shape)], enumerate_koh_trees(shape, k)
    else:
        argv = ["--mu", ",".join(map(str, shape.parts))]
        trees = enumerate_goh_trees(shape, k)
    code, out, err = _run_captured(["trees", family, *argv, "--k", str(k),
                                    "--format", "json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert len(payload) == len(trees)
    assert len({json.dumps(entry) for entry in payload}) == len(payload)
    assert [written_leaves(entry) for entry in payload] == list(map(leaves, trees))


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


def test_running_out_of_memory_exits_1_with_one_line(capsys, monkeypatch):
    from kohtrees import coefficients

    def out_of_memory(n, k, top):
        raise MemoryError

    monkeypatch.setattr(coefficients, "rectangle_counts", out_of_memory)
    code, out, err = run_cli(capsys, "kronecker", "--n", "3000", "--k", "3000",
                             "--r", "40000", "--method", "difference")
    assert (code, out) == (1, "")
    assert err.startswith("OUT_OF_MEMORY: ")
    assert err.count("\n") == 1


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
        workers, "verify_cell",
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
    monkeypatch.setattr(workers, "verify_cell", cell)
    code, out, err = run_cli(capsys, "verify", "koh", "--max-n", "2",
                             "--max-k", "1")
    assert code == 1
    assert out == ("PASS koh n=0 k=1\nFAIL koh n=1 k=1\nBUDGET koh n=2 k=1\n"
                   "checked 3 cells: 1 passed, 1 failed, 1 over budget\n"
                   "first counterexample:\ndetail 1\n")
    assert err == "BUDGET_EXCEEDED: detail 2\n"


def _sweep_cells(family, size, max_k):
    """(shape, k) of every cell of a sweep, in sweep order."""
    shapes = (range(size + 1) if family == "koh" else
              [mu.parts for n in range(1, size + 1) for mu in enumerate_partitions(n)])
    return [(shape, k) for shape in shapes for k in range(1, max_k + 1)]


_SWEEPS = st.one_of(
    st.tuples(st.just("koh"), st.just("--max-n"), st.integers(0, 7), st.integers(1, 7)),
    st.tuples(st.just("goh"), st.just("--max-size"), st.integers(1, 6),
              st.integers(1, 4)))


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(_SWEEPS, st.integers(2, 4), st.integers(1, 40), st.data())
def test_a_forked_sweep_prints_what_one_worker_prints(sweep, width, max_trees,
                                                      data):
    family, size_flag, size, max_k = sweep
    cells = _sweep_cells(family, size, max_k)
    failing = data.draw(st.none() | st.sampled_from(cells))
    original = workers.verify_cell

    def one_fails(family_name, cell):
        label, ok, detail = original(family_name, cell)
        if tuple(cell[:2]) == failing:
            return label, False, f"forced failure at {label}"
        return label, ok, detail

    argv = ["verify", family, size_flag, str(size), "--max-k", str(max_k),
            "--max-trees", str(max_trees)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workers, "verify_cell", one_fails)
        alone = _run_captured([*argv, "--workers", "1"])
        split = _run_captured([*argv, "--workers", str(width)])
    assert split == alone
    assert alone[1].startswith(("PASS", "FAIL", "BUDGET"))


def _after_a_child_cell(started, child_cell):
    """A cell check that runs child_cell in a child after signalling on
    started, and holds this process's first cell until some child has
    checked one: each worker claims one group at a time, so a child
    takes one whatever the order of the claims."""
    import select
    parent = os.getpid()
    read_end, write_end = started

    def cell(family, cell):
        if os.getpid() != parent:
            os.write(write_end, b"x")
            return child_cell(cell)
        select.select([read_end], [], [], 30)
        return f"{family} n={cell[0]} k={cell[1]}", True, ""
    return cell


def test_a_child_that_raises_makes_the_sweep_raise_its_traceback(monkeypatch):
    def child_cell(cell):
        raise ValueError("boom in a child")

    started = os.pipe()
    monkeypatch.setattr(workers, "verify_cell",
                        _after_a_child_cell(started, child_cell))
    try:
        with pytest.raises(RuntimeError) as info:
            _run_captured(["verify", "koh", "--max-n", "1", "--max-k", "2",
                           "--workers", "2"])
    finally:
        for fd in started:
            os.close(fd)
    message = str(info.value)
    assert "raised:\nTraceback (most recent call last)" in message
    assert "ValueError: boom in a child" in message
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_that_dies_without_results_makes_the_sweep_raise(monkeypatch):
    def child_cell(cell):
        os._exit(3)

    started = os.pipe()
    monkeypatch.setattr(workers, "verify_cell",
                        _after_a_child_cell(started, child_cell))
    try:
        with pytest.raises(RuntimeError, match=r"sent no results \(exit status 3\)"):
            _run_captured(["verify", "koh", "--max-n", "1", "--max-k", "1",
                           "--workers", "2"])
    finally:
        for fd in started:
            os.close(fd)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_parent_that_raises_stops_and_reaps_its_children(monkeypatch):
    import time
    parent = os.getpid()
    calls = []

    def cell(family, cell):
        if os.getpid() != parent:
            time.sleep(60)  # a child's group: long enough to need stopping
        calls.append(cell)
        raise ValueError("boom in the parent")

    # three groups, three workers: a child claims one group and sleeps, so
    # this process claims at least one before the children could finish
    monkeypatch.setattr(workers, "verify_cell", cell)
    start = time.monotonic()
    with pytest.raises(ValueError, match="boom in the parent"):
        _run_captured(["verify", "koh", "--max-n", "2", "--max-k", "1",
                       "--workers", "3"])
    assert time.monotonic() - start < 30
    assert len(calls) == 1
    assert calls[0] in [(n, 1, koh.DEFAULT_TREE_BUDGET) for n in range(3)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_split_over_more_groups_than_a_pipe_holds_answers_in_cell_order():
    # 60,000 groups: 120 KB as one 2-byte claim each, past a 64 KiB pipe
    import signal

    def expire(signum, frame):
        raise TimeoutError("the split blocked")

    groups = [[(g,)] for g in range(60_000)]
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        results = workers.check_groups(lambda cell: cell[0] * 2, groups, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert results == [2 * g for g in range(60_000)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("width", [2, 3, 4])
def test_workers_pull_uneven_groups_heaviest_first(width):
    import time
    parent = os.getpid()
    claimed = []

    def check(cell):
        g, j = cell
        if os.getpid() == parent and j == 0:
            claimed.append(g)
        time.sleep(g * 0.004)  # later groups cost more, as in a sweep
        return g, j, g * j + 1

    groups = [[(g, j) for j in range(3)] for g in range(12)]
    alone = workers.check_groups(check, groups, 1)
    assert claimed == list(range(12))
    claimed.clear()
    assert workers.check_groups(check, groups, width) == alone
    # this process claims groups in falling order
    assert claimed == sorted(claimed, reverse=True)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_beyond_the_shape_groups_start_no_process(capsys, monkeypatch):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    for max_n, started in ((0, 0), (1, 1), (2, 2)):
        forks.clear()
        code, out, _ = run_cli(capsys, "verify", "koh", "--max-n", str(max_n),
                               "--max-k", "2", "--workers", "4")
        assert code == 0 and out.endswith(f"{2 * (max_n + 1)} passed, 0 failed\n")
        assert len(forks) == started


def test_without_fork_a_sweep_runs_in_process(capsys, monkeypatch):
    one = run_cli(capsys, "verify", "goh", "--max-size", "3", "--max-k", "2",
                  "--workers", "1")
    monkeypatch.delattr(os, "fork")
    assert run_cli(capsys, "verify", "goh", "--max-size", "3", "--max-k", "2",
                   "--workers", "4") == one


def test_a_sweep_forks_no_child_while_another_thread_runs(capsys, monkeypatch):
    import threading
    one = run_cli(capsys, "verify", "koh", "--max-n", "3", "--max-k", "2",
                  "--workers", "1")

    def no_fork():
        raise AssertionError("forked beside a running thread")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert run_cli(capsys, "verify", "koh", "--max-n", "3", "--max-k", "2",
                       "--workers", "4") == one
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_workers_default_to_the_usable_cpus():
    args = cli._build_parser().parse_args(["verify", "koh", "--max-n", "1",
                                           "--max-k", "1"])
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count())
    assert args.workers == usable


@pytest.fixture
def default_stack():
    # the interpreter's default limit, whatever an earlier test left
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def test_a_thin_box_answers_at_the_default_recursion_limit(capsys, default_stack):
    code, out, err = run_cli(capsys, "kronecker", "--n", "2000", "--k", "1",
                             "--r", "1000", "--method", "difference")
    assert (code, err) == (0, "")
    assert "coefficient: 0\n" in out


def test_a_long_thin_box_matches_a_direct_count(capsys, default_stack):
    from box_oracles import three_part_count
    code, out, err = run_cli(capsys, "kronecker", "--n", "3000", "--k", "3",
                             "--r", "4500")
    expected = three_part_count(3000, 4500) - three_part_count(3000, 4499)
    assert (code, err) == (0, "")
    assert f"coefficient: {expected}\nmethod: both\n" == out


def test_runs_are_deterministic(capsys):
    first = run_cli(capsys, "trees", "goh", "--mu", "3,1", "--k", "3",
                    "--format", "json")
    second = run_cli(capsys, "trees", "goh", "--mu", "3,1", "--k", "3",
                     "--format", "json")
    assert first == second


def test_failing_koh_cell_prints_a_capped_witness_list(capsys, monkeypatch):
    from kohtrees.coefficients import TreeFamily
    real = workers.koh_family

    def koh_family(n, k):
        family = real(n, k)
        if (n, k) != (6, 6):
            return family
        return TreeFamily(family.where, family.degree_name, family.total,
                          family.trees, family.marked, family.route,
                          lambda rs: (0,) * len(rs), family.references)

    monkeypatch.setattr(workers, "koh_family", koh_family)
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
    prefix = f"  witness trees ({workers.WITNESS_TREES} of 20): "
    assert witness.startswith(prefix)
    assert len(json.loads(witness[len(prefix):])) == workers.WITNESS_TREES
    assert len(detail) < 4000
    assert len(out) < 5000


def test_a_marking_dropped_by_the_value_table_fails_its_cell(capsys, monkeypatch):
    from kohtrees import koh
    real = koh._add_tensor

    def drop_one(diff, shift, x, dx, y, dy, top):
        # the last step of the label of koh n=6 k=6 with own shift 2 and
        # child degrees 4 and 28 matches no other step of this sweep; drop
        # one of its pairs at r = 2, a copy of V_32
        real(diff, shift, x, dx, y, dy, top)
        if (shift, dx, dy, top) == (2, 4, 28, 18):
            diff[2] -= 1
            diff[3] += 1

    monkeypatch.setattr(koh, "_add_tensor", drop_one)
    # an empty cache of marked vectors, so that the sweep fills every type
    monkeypatch.setattr(koh, "_MARKED", {})
    code, out, _ = run_cli(capsys, "verify", "koh", "--max-n", "6",
                           "--max-k", "6", "--workers", "1")
    assert code == 1
    assert "FAIL koh n=6 k=6\n" in out
    assert "checked 42 cells: 41 passed, 1 failed" in out
    # the coefficients from q^2 to q^34 of the tree sum are one short
    from kohtrees.qpoly import QPoly, q_binomial
    ref = q_binomial(6, 6)
    short = QPoly([c - (2 <= i <= 34) for i, c in enumerate(ref.coeffs)])
    assert out.split("first counterexample:\n", 1)[1].splitlines()[1] == (
        f"  tree terms sum to {short} but the reference gives {ref} and the "
        f"closed form gives {ref} for n=6, k=6")


def test_a_single_r_query_reads_one_vector_cut_at_r(capsys, monkeypatch):
    from kohtrees import goh, koh, trees
    read = []
    for module, name in (koh, "koh_marked_vector"), (goh, "marked_vector"):
        real = getattr(module, name)

        def recorded(*args, real=real, **kwargs):
            vector = real(*args, **kwargs)
            read.append((args[-1], list(vector)))
            return vector

        monkeypatch.setattr(module, name, recorded)
    # no cached vector, and no tree table to build trees in
    monkeypatch.setattr(koh, "_MARKED", {})
    monkeypatch.setattr(trees, "_TREES", None)
    for argv, r, coefficient in [
            (("kronecker", "--n", "6", "--k", "6", "--r", "9"), 9, 4),
            (("plethysm", "--mu", "2,2", "--k", "3", "--r", "2"), 2, 1)]:
        read.clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert f"coefficient: {coefficient}\n" in out
        # one vector, cut at r, whose last entry is the coefficient
        assert [(cap, len(vector), vector[-1]) for cap, vector in read] == [
            (r, r + 1, coefficient)]


def test_coefficient_routes_build_no_trees(capsys, monkeypatch):
    from kohtrees import goh, trees
    from kohtrees.coefficients import koh_family, kronecker_two_row
    from kohtrees.goh import goh_family
    from kohtrees.workers import check_identities
    from kohtrees.errors import DEFAULT_TREE_BUDGET
    from kohtrees.partitions import Partition
    built, real = [], goh.GohTree.__init__

    def recorded(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(goh.GohTree, "__init__", recorded)
    trees._TREES.clear()
    report = kronecker_two_row(16, 16, 89)
    assert run_cli(capsys, "kronecker", "--n", "16", "--k", "16", "--r", "128") == (
        0, "coefficient: 6235\nmethod: both\n", "")
    check_identities(koh_family(8, 8), DEFAULT_TREE_BUDGET)
    check_identities(goh_family(Partition((4, 3, 2)), 4), DEFAULT_TREE_BUDGET)
    assert not trees._TREES and not built
    # the witnesses build the trees when read, and only then
    assert len(report.witness_counts) == 12870 and trees._TREES
    assert sum(report.witness_counts) == report.value


def test_json_witness_counts_are_the_markings_of_each_tree(capsys):
    from kohtrees.goh import enumerate_goh_trees
    from kohtrees.koh import enumerate_koh_trees, leaves
    from kohtrees.marking import enumerate_markings, marking_target
    from kohtrees.partitions import Partition
    for argv, trees, total, rs in [
            (("kronecker", "--n", "8", "--k", "8"), enumerate_koh_trees(8, 8), 64,
             (0, 7, 19, 32)),
            (("plethysm", "--mu", "4,3,2", "--k", "4"),
             enumerate_goh_trees(Partition((4, 3, 2)), 4), 36, (7, 11, 18))]:
        for r in rs:
            code, out, _ = run_cli(capsys, *argv, "--r", str(r), "--format", "json")
            assert code == 0
            payload = json.loads(out)
            # tree by tree, each the number of its markings the lister
            # gives, independent of the counting loop
            want = [len(enumerate_markings(lv, marking_target(sum(lv), total, r)))
                    for lv in map(leaves, trees)]
            assert payload["witness_counts"] == want
            assert payload["coefficient"] == sum(want) > 0


def test_failing_goh_cell_reports_the_tree_sum(capsys, monkeypatch):
    import kohtrees.coefficients as coefficients
    from kohtrees.qpoly import ONE, ZERO
    from qpoly_oracles import poly_add
    real = coefficients.hook_content
    monkeypatch.setattr(
        coefficients, "hook_content",
        lambda mu, k: poly_add(real(mu, k),
                               ONE if (mu.parts, k) == ((2, 2), 5) else ZERO))
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
        f"  witness trees ({workers.WITNESS_TREES} of 9): ")
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
    # --help prints and exits 0 before argparse reports an unknown option
    if (argv[:2] == ["verify", "goh"] and "--max-fillings" in argv
            and "--help" not in argv):
        assert code == 2


SRC = os.path.dirname(os.path.dirname(kohtrees.__file__))


def _modules_after(*argv):
    """The modules loaded once a fresh process has run the CLI on argv;
    with no argv, once it has imported the CLI."""
    probe = ("import sys; from kohtrees import cli; "
             + ("cli.main(sys.argv[1:]); " if argv else "")
             + "print(*sorted(sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=SRC))
    return set(out.stdout.splitlines()[-1].split())


def test_a_query_loads_only_the_modules_it_runs():
    kron = _modules_after("kronecker", "--n", "6", "--k", "6", "--r", "9")
    assert "kohtrees.koh" in kron
    assert not kron & {"dataclasses", "kohtrees.marking", "kohtrees.trees",
                       "kohtrees.goh", "kohtrees.general", "kohtrees.qpoly",
                       "kohtrees.render", "kohtrees.workers"}
    diff = _modules_after("kronecker", "--n", "6", "--k", "6", "--r", "9",
                          "--method", "difference")
    assert not diff & {"kohtrees.koh", "kohtrees.marking", "kohtrees.trees",
                       "kohtrees.qpoly", "kohtrees.goh", "kohtrees.general",
                       "kohtrees.render", "kohtrees.workers"}
    pleth = _modules_after("plethysm", "--mu", "2,1", "--k", "2", "--r", "1")
    assert {"kohtrees.goh", "kohtrees.koh", "kohtrees.qpoly"} <= pleth
    assert not pleth & {"kohtrees.marking", "kohtrees.trees", "kohtrees.general",
                        "kohtrees.render", "kohtrees.workers"}
    general = _modules_after("plethysm-general", "--lambda", "4,2", "--mu", "2",
                             "--nu", "2,1")
    assert {"kohtrees.general", "kohtrees.goh"} <= general
    # the JSON witnesses build and mark the trees
    witnesses = _modules_after("kronecker", "--n", "6", "--k", "6", "--r", "9",
                               "--format", "json")
    assert {"kohtrees.marking", "kohtrees.trees"} <= witnesses
    verify_koh = _modules_after("verify", "koh", "--max-n", "3", "--max-k", "3",
                                "--workers", "1")
    assert {"kohtrees.koh", "kohtrees.trees", "kohtrees.workers"} <= verify_koh
    assert not verify_koh & {"kohtrees.goh", "kohtrees.marking", "kohtrees.render"}
    verify_goh = _modules_after("verify", "goh", "--max-size", "3", "--max-k", "2",
                                "--workers", "1")
    assert {"kohtrees.goh", "kohtrees.general", "kohtrees.workers"} <= verify_goh
    assert not verify_goh & {"kohtrees.marking", "kohtrees.render"}
    listing = _modules_after("trees", "koh", "--n", "4", "--k", "3")
    assert {"kohtrees.render", "kohtrees.trees"} <= listing
    assert not listing & {"kohtrees.goh", "kohtrees.workers"}
    assert not _modules_after() & {"kohtrees.koh", "kohtrees.marking",
                                   "kohtrees.trees", "kohtrees.general",
                                   "kohtrees.qpoly"}


def test_a_query_builds_the_parser_of_its_command_alone(capsys, monkeypatch):
    import argparse
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def recorded(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recorded)
    assert run_cli(capsys, "kronecker", "--n", "6", "--k", "6", "--r", "9",
                   "--method", "difference") == (
        0, "coefficient: 4\nmethod: difference_formula\n", "")
    assert built == ["kronecker"]
    built.clear()
    assert run_cli(capsys, "trees", "koh", "--n", "2", "--k", "2")[0] == 0
    assert built == ["trees", "koh", "goh"]
    built.clear()
    # an unknown command: the full parser, to list the choices
    assert run_cli(capsys, "kron")[0] == 2
    assert built == ["kronecker", "plethysm", "plethysm-general", "trees", "koh",
                     "goh", "verify", "koh", "goh"]


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    probe = ("import sys, kohtrees.cli; "
             "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=SRC))
    assert out.stdout == "False\n"


def test_a_split_sweep_loads_no_process_pool():
    modules = _modules_after("verify", "koh", "--max-n", "2", "--max-k", "2",
                             "--workers", "2")
    assert not modules & {"concurrent.futures", "multiprocessing", "pickle"}


# a process entry's environment: stdout block-buffered, as it is on a pipe
# unless the caller's environment says otherwise, so a missing flush shows
_ENTRY_ENV = {**{name: value for name, value in os.environ.items()
                 if name != "PYTHONUNBUFFERED"}, "PYTHONPATH": SRC}


def _process(*argv):
    """`python -m kohtrees.cli argv` in a fresh process, the entry users run."""
    return subprocess.run([sys.executable, "-m", "kohtrees.cli", *argv],
                          capture_output=True, env=_ENTRY_ENV)


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


@pytest.mark.parametrize("n,k,r", [(3000, 3, 400), (2000, 1, 300)])
def test_a_thin_difference_query_inside_the_stack_answers(n, k, r):
    # with n >= r the box's width binds no partition of r, so the count is
    # the coefficient of the k-part Gaussian binomial q_binomial(r, k)
    poly = q_binomial(r, k)
    proc = _process("kronecker", "--n", str(n), "--k", str(k), "--r", str(r),
                    "--method", "difference")
    assert (proc.returncode, proc.stderr) == (0, b"")
    expected = poly.coeff(r) - poly.coeff(r - 1)
    assert f"coefficient: {expected}\n".encode() in proc.stdout


# a probe's replacement for os._exit: it prints the status and the given
# expressions' values, then ends the process as the real one would
_EXIT_PROBE = ("exit = os._exit\n"
               "os._exit = lambda code: (print(code, {}, flush=True), exit(code))\n")


def test_only_the_process_entry_turns_the_collector_off():
    # main(argv) returns with the collector as it was; main() runs with it
    # off, freezes nothing and ends in os._exit with the command's status.
    # The interpreter may start with objects frozen (3.12 does), so the
    # freeze count is compared with the one before main()
    probe = ("import gc, os; from kohtrees import cli\n"
             "cli.main(['kronecker', '--n', '3', '--k', '4', '--r', '6'])\n"
             "before = gc.isenabled(); frozen = gc.get_freeze_count()\n"
             + _EXIT_PROBE.format("before, gc.isenabled(), "
                                  "gc.get_freeze_count() - frozen")
             + "cli.main()\n"
             "print('main() returned')")
    out = subprocess.run([sys.executable, "-c", probe, "kronecker", "--n", "3",
                          "--k", "4", "--r", "6"], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert out.stdout.splitlines()[-1] == "0 True False 0"


def test_run_as_main_the_cli_imports_its_modules_without_collecting():
    # a collection on every allocation: any collection while a kohtrees
    # module is loaded records the modules loaded so far; the records are
    # read when the process ends in os._exit
    probe = ("import gc, os, runpy, sys; import kohtrees; seen = []\n"
             + _EXIT_PROBE.format("gc.isenabled(), len(seen), "
                                  "[s for s in seen if s]")
             + "gc.callbacks.append(lambda phase, info: phase == 'start' and "
             "seen.append([m for m in sys.modules if m.startswith('kohtrees.')])); "
             "gc.set_threshold(1); sys.argv[0] = 'kohtrees.cli'\n"
             "runpy.run_module('kohtrees.cli', run_name='__main__')\n"
             "print('main() returned')")
    out = subprocess.run([sys.executable, "-c", probe, "kronecker", "--n", "3",
                          "--k", "4", "--r", "6"], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=SRC))
    code, enabled, collections, with_modules = out.stdout.splitlines()[-1].split(" ", 3)
    assert (code, enabled, with_modules) == ("0", "False", "[]")
    assert int(collections) > 0


@pytest.mark.parametrize("argv", [
    "kronecker --n 3 --k 4 --r 6",
    # 157 KB, more than a pipe holds: all of it must be flushed before the exit
    "trees koh --n 10 --k 10 --format json",
    "kronecker --n 8 --k 9 --r 10 --max-trees 10",
    "kronecker --n 3 --k 4 --r 99",
    "kronecker --n 3 --k 4",
])
def test_the_process_entry_prints_and_exits_as_main_argv_returns(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    proc = _process(*argv.split())
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(),
                                                           err.encode())


def test_an_exception_main_does_not_handle_keeps_its_traceback():
    probe = ("import sys; from kohtrees import cli\n"
             "def fail(*args):\n"
             "    raise LookupError('not handled')\n"
             "cli.kronecker_two_row = fail\n"
             "cli.main()")
    proc = subprocess.run([sys.executable, "-c", probe, "kronecker", "--n", "3",
                           "--k", "4", "--r", "6"], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.startswith(b"Traceback (most recent call last):\n")
    assert proc.stderr.endswith(b"LookupError: not handled\n")


@pytest.mark.parametrize("argv", [
    "trees koh --n 14 --k 14",  # 290 KB of lines
    "trees koh --n 10 --k 10 --format json",  # 157 KB on one line
])
def test_a_reader_closing_the_pipe_ends_the_process_quietly(argv):
    # either output is more than a pipe holds, so the process is still
    # printing when the reader goes after its first line (at most 4 KB)
    with subprocess.Popen([sys.executable, "-m", "kohtrees.cli", *argv.split()],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_ENTRY_ENV) as proc:
        assert proc.stdout.readline(4096)
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (1, b"")


def test_main_argv_raises_a_broken_pipe():
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    with contextlib.redirect_stdout(ClosedPipe()), pytest.raises(BrokenPipeError):
        cli.main(["kronecker", "--n", "3", "--k", "4", "--r", "6"])
