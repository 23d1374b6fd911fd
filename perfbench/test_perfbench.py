"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import itertools
import json
import os

import pytest

import run
import workloads
from workloads import Op

QUERY_WORKLOADS = ("kron-cli", "pleth-cli", "kron-diff")


def _ops(workload: str, seed: int, count: int = 3) -> bytes:
    passes = itertools.islice(workloads.passes(workload, seed), count)
    return repr([op.argv for pass_ in passes for op in pass_]).encode()


@pytest.mark.parametrize("workload", QUERY_WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload):
    assert _ops(workload, 7) == _ops(workload, 7)
    assert _ops(workload, 7) != _ops(workload, 8)


def test_verify_sweep_ignores_the_seed():
    assert workloads.mix("verify-sweep", 1) == workloads.mix("verify-sweep", 2)


def test_kron_diff_keeps_a_quarter_thin():
    mix = workloads.mix("kron-diff", 3)
    thin = [op for op in mix if op.check[2] <= 3]
    assert len(thin) * 4 == len(mix)
    assert {op.check[2] for op in thin} == set(workloads.THIN_K)
    assert all(op.check[3] <= workloads.THIN_R_MAX for op in thin)


def test_thin_probes_cover_the_whole_r_range():
    probes = workloads.thin_probes(3)
    assert {op.check[2] for op in probes} == set(workloads.THIN_K)
    assert all(op.check[3] <= op.check[1] * op.check[2] // 2 for op in probes)
    assert max(op.check[3] for op in probes) > 4 * workloads.THIN_R_MAX


def test_every_pass_holds_the_whole_mix_in_a_new_order():
    passes = run.measure("pleth-cli", 1, 0, lambda op: None)
    assert len(passes) == run.MIN_PASSES
    for pass_ in passes:
        assert sorted(op.check[1:3] for op, _ in pass_) == sorted(workloads.PLETH_SHAPES)
    assert passes[0] != passes[1]


def test_an_op_counts_at_its_median_over_the_passes_it_passed():
    a = Op(("a",), ("kron", 1, 1, 0))
    b = Op(("b",), ("kron", 1, 1, 0))

    def res(wall, error=None):
        r = run.Result(wall, 0, b"", b"", 0)
        r.error = error
        return r
    passes = [[(a, res(0.3)), (b, res(0.2))],
              [(b, res(0.5)), (a, res(0.1, "exit status 1"))],
              [(a, res(0.4)), (b, res(0.25))]]
    assert run.per_op(passes, lambda res: res.wall_s) == {a: 0.35, b: 0.25}


def test_box_partition_counts_match_q_binomial():
    from kohtrees.qpoly import q_binomial
    for n in range(7):
        for k in range(7):
            coeffs = q_binomial(n, k).coeffs
            assert workloads.box_partition_counts(n, k, n * k) == list(coeffs)


def _coefficient_output(value: int) -> bytes:
    return f"coefficient: {value}\nmethod: both\n".encode()


@pytest.mark.parametrize("op", [
    Op(("kronecker", "--n", "13", "--k", "14", "--r", "40"), ("kron", 13, 14, 40)),
    Op(("kronecker", "--n", "40", "--k", "41", "--r", "700", "--method", "difference"),
       ("kron", 40, 41, 700)),
    Op(("kronecker", "--n", "900", "--k", "2", "--r", "300", "--method", "difference"),
       ("kron", 900, 2, 300)),
    Op(("plethysm", "--mu", "5,4,3", "--k", "6", "--r", "12"), ("pleth", (5, 4, 3), 6, 12)),
])
def test_reference_flags_a_corrupted_answer(op):
    right = workloads.expected(op)
    assert workloads.answer_error(op, _coefficient_output(right)) is None
    assert workloads.answer_error(op, _coefficient_output(right + 1))
    assert workloads.answer_error(op, b"") is not None


def test_reference_agrees_with_the_cli():
    op = Op(("plethysm", "--mu", "4,3,2,2,1", "--k", "6", "--r", "10"),
            ("pleth", (4, 3, 2, 2, 1), 6, 10))
    res = run.run_op(op)
    run.check(op, res)
    assert res.error is None


def test_reference_flags_a_sweep_with_a_failed_cell():
    op = Op(workloads.VERIFY_KOH, ("verify", 132), 132)
    good = b"PASS koh n=0 k=1\nchecked 132 cells: 132 passed, 0 failed\n"
    bad = b"FAIL koh n=0 k=1\nchecked 132 cells: 131 passed, 1 failed\n"
    assert workloads.answer_error(op, good) is None
    assert workloads.answer_error(op, bad)


def test_a_sweep_that_exits_1_on_a_failed_cell_is_wrong(monkeypatch, capsys):
    from kohtrees import cli
    original = cli._verify_koh_cell

    def fail_one(cell):
        label, ok, detail = original(cell)
        return (label, False, label) if cell[:2] == (1, 1) else (label, ok, detail)

    monkeypatch.setattr(cli, "_verify_koh_cell", fail_one)
    argv = ("verify", "koh", "--max-n", "2", "--max-k", "2", "--workers", "1")
    code = cli.main(list(argv))
    stdout = capsys.readouterr().out.encode()
    assert code == 1
    res = run.Result(0.1, code, stdout, b"", 0)
    run.check(Op(argv, ("verify", 6), 6), res)
    assert res.wrong
    assert "5 passed, 1 failed" in res.error


def test_failed_ratio_counts_a_thin_rectangle_traceback():
    thin = Op(("kronecker", "--n", "2000", "--k", "1", "--r", "1000",
               "--method", "difference"), ("kron", 2000, 1, 1000))
    fine = Op(("kronecker", "--n", "30", "--k", "31", "--r", "100",
               "--method", "difference"), ("kron", 30, 31, 100))
    passes = [[(thin, run.run_op(thin)), (fine, run.run_op(fine))]]
    for _, res in passes[0]:
        res.ref_s = run.reference_s()
    metrics, results, _ = run.end_to_end_metrics("kron-diff", passes, [0.1])
    assert [res.error is not None for _, res in results] == [True, False]
    assert results[0][1].error.startswith("traceback: RecursionError")
    assert not results[0][1].wrong
    assert metrics["success_ratio"]["value"] == 0.5


def _ok(op: Op, traced: bool) -> bool:
    res = run.run_op(op, traced=traced)
    return res.code == 0


def _thin(r: int) -> Op:
    return Op(("kronecker", "--n", "3000", "--k", "1", "--r", str(r),
               "--method", "difference"), ("kron", 3000, 1, r))


def test_tracing_keeps_the_recursion_boundary():
    lo, hi = 0, 1500   # r=0 succeeds, r=1500 overflows the stack
    assert _ok(_thin(lo), False) and not _ok(_thin(hi), False)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _ok(_thin(mid), False):
            lo = mid
        else:
            hi = mid
    assert _ok(_thin(lo), True)
    assert not _ok(_thin(hi), True)


def test_traced_run_prints_the_same_bytes_and_counts_layers():
    op = Op(("kronecker", "--n", "6", "--k", "6", "--r", "9"), ("kron", 6, 6, 9))
    plain, traced = run.run_op(op), run.run_op(op, traced=True)
    assert (plain.stdout, plain.code) == (traced.stdout, traced.code)
    functions = traced.trace["functions"]
    assert functions["marking.count_markings"]["calls"] == traced.trace["counters"]["koh.trees"]
    from kohtrees.koh import enumerate_koh_trees

    def nodes(tree):
        return 1 + sum(nodes(child) for _, child in tree.children)
    # leaves recurses untraced; its calls are one per node of each tree
    assert functions["koh.leaves"]["calls"] == sum(map(nodes, enumerate_koh_trees(6, 6)))
    assert functions["cli.main"]["spans"] == 1
    main = functions["cli.main"]
    assert 0 < main["self_s"] < main["s"]


def test_benchmark_json_names_the_workloads():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    assert names == list(workloads.WORKLOADS)
