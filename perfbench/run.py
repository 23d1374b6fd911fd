"""kohtrees benchmark: drive the CLI as users run it and check every answer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kron-cli --seed 1 --seconds 25 --trace 0

Each op is a fresh `python3 -m kohtrees.cli ...` process, so every
functools.cache starts cold as in a real invocation.  One client, one op
in flight (a closed loop).  A run makes passes over one seeded mix of ops
(see workloads.py) until --seconds have passed, then checks every answer
against a reference outside the timed region.

Timings are reported in refs, not seconds.  A reference process (a fresh
interpreter running a fixed loop that touches nothing of kohtrees) runs
between every two ops, and an op's cost is its wall time over the
reference times around it, its median over the passes.  Slow phases of a
shared host lengthen whole stretches of ops and references alike by up
to half, for seconds to minutes, so seconds move between runs of the
same code by more than a regression bound, and refs do not.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same ops
twice each, plain and under traced_cli.py, checks that both print the
same bytes and exit the same way, and prints per-layer metrics from the
traced runs, plus the tracing overhead and the share of thin kron-diff
rectangles (workloads.thin_probes) that the CLI answers at all.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A failed op exited nonzero, printed a traceback, failed its own
cross-check, or gave an answer the reference disagrees with; only the
last two make the run incorrect.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, SRC)
import workloads  # noqa: E402

OP_TIMEOUT_S = 60.0      # an op past this is killed and counts as failed
SETUP_PROBES = 3         # fresh interpreters timed for setup_s, per pass
MIN_PASSES = 3           # passes of a --trace 0 run, however short --seconds is
P75_MIN_SAMPLES = 40     # fewer latency samples leave under ten beyond p75


@functools.cache
def metric_units(kind: str) -> dict[str, str]:
    """Name to unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json.

    A per-layer unit ending in "/op" is per op credited to ops_per_s.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@dataclasses.dataclass
class Result:
    """What one op process did."""

    wall_s: float
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    trace: dict | None = None
    ref_s: float = 0.0         # reference_s() around the op, see end_to_end
    error: str | None = None   # why the op failed, once checked
    wrong: bool = False        # failed by giving a wrong answer


def _env(pythonpath: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("KOHTREES_")}
    env["PYTHONPATH"] = pythonpath
    return env


PLAIN_ENV = _env(SRC)
TRACED_ENV = _env(SRC + os.pathsep + HERE)


def run_process(argv: list[str], env: dict, trace: bool = False) -> Result:
    """Run one process to completion; wall time and peak RSS are its own."""
    pass_fds: tuple[int, ...] = ()
    if trace:
        trace_r, trace_w = os.pipe()
        env = dict(env, KOHBENCH_TRACE_FD=str(trace_w))
        pass_fds = (trace_w,)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, pass_fds=pass_fds)
    if trace:
        os.close(trace_w)
    killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    summary = None
    if trace:
        with os.fdopen(trace_r, "rb") as pipe:
            raw = pipe.read()
        summary = json.loads(raw) if raw else None
    return Result(wall, proc.returncode, out, err[0], usage.ru_maxrss, summary)


def run_op(op: workloads.Op, traced: bool = False) -> Result:
    if traced:
        return run_process([sys.executable, "-m", "traced_cli", *op.argv],
                           TRACED_ENV, trace=True)
    return run_process([sys.executable, "-m", "kohtrees.cli", *op.argv], PLAIN_ENV)


def check(op: workloads.Op, res: Result) -> None:
    """Set res.error (and res.wrong) from exit status, stderr and the reference."""
    if b"CROSS_CHECK_FAILED" in res.stderr:
        res.error, res.wrong = "cross-check failed", True
    elif b"Traceback" in res.stderr:
        last = res.stderr.strip().splitlines()[-1].decode(errors="replace")
        res.error = f"traceback: {last}"
    elif res.code != 0 and workloads.COUNTEREXAMPLE not in res.stdout:
        res.error = f"exit status {res.code}"
    else:
        # a verify sweep with a failed cell exits 1; its summary decides
        res.error = workloads.answer_error(op, res.stdout)
        res.wrong = res.error is not None


def measure(workload: str, seed: int, seconds: float, step, between=None,
            min_passes: int = MIN_PASSES) -> list:
    """Run passes over the workload's mix through step(op) for about seconds.

    Returns the passes as lists of (op, step result).  A new pass starts
    only while one more pass of the average length ends within seconds,
    and there are at least min_passes.  between() runs before the first
    pass and after each one.
    """
    done = []
    start = time.perf_counter()
    for pass_ in workloads.passes(workload, seed):
        if between:
            between()
        done.append([(op, step(op)) for op in pass_])
        elapsed = time.perf_counter() - start
        if len(done) >= min_passes and elapsed * (len(done) + 1) / len(done) > seconds:
            break
    if between:
        between()
    return done


# a fresh interpreter running a fixed loop that touches nothing of kohtrees
REFERENCE = [sys.executable, "-c", "seen, acc = {}, 0\n"
             "for i in range(150_000):\n"
             "    seen[i & 1023] = acc\n"
             "    acc = (acc + i * i) % 1_000_003\n"]


def reference_s() -> float:
    """Wall time of the reference process: the unit "ref" of the timings.

    It starts a fresh interpreter and runs Python bytecode, as every op
    does, so a slow phase of the host lengthens both about alike; about
    0.1 s on a 2-vCPU VM with Python 3.11.
    """
    res = run_process(REFERENCE, PLAIN_ENV)
    if res.code != 0:
        sys.exit("reference process failed:\n" + res.stderr.decode(errors="replace"))
    return res.wall_s


IMPORT_CLI = [sys.executable, "-c", "import kohtrees.cli"]


def setup_probes(samples: list[float]) -> None:
    """Time SETUP_PROBES fresh interpreters that import kohtrees.cli."""
    if not samples:
        warm = run_process(IMPORT_CLI, PLAIN_ENV)  # writes __pycache__ on a fresh checkout
        if warm.code != 0:
            sys.exit(f"cannot import kohtrees.cli from {SRC}:\n"
                     + warm.stderr.decode(errors="replace"))
    samples.extend(run_process(IMPORT_CLI, PLAIN_ENV).wall_s
                   for _ in range(SETUP_PROBES))


def per_op(passes: list, cost) -> dict:
    """Each op's median cost(res) over the passes in which it succeeded.

    Failed ops are left out here and counted by success_ratio; an op that
    failed in every pass reads OP_TIMEOUT_S.
    """
    costs: dict = {}
    for pass_ in passes:
        for op, res in pass_:
            costs.setdefault(op, [])
            if not res.error:
                costs[op].append(cost(res))
    return {op: statistics.median(c) if c else OP_TIMEOUT_S for op, c in costs.items()}


def latency_samples(workload: str, costs: dict) -> list[float]:
    """One per op of the mix; one per sweep pair on verify-sweep."""
    if workload == "verify-sweep":
        return [sum(costs.values())]
    return list(costs.values())


def p75(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4)[2]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(workload: str, passes: list,
                       setup: list[float]) -> tuple[dict, list, str]:
    """Check every op's answer and compute the end-to-end metrics.

    The timing metrics are in refs (see reference_s): each op's wall time
    over the reference time around it, its median over the passes.  The
    same figures in seconds are printed, not reported: on a shared host
    they move by up to a quarter between runs of the same code.
    """
    results = [pair for pass_ in passes for pair in pass_]
    for op, res in results:
        check(op, res)

    refs = per_op(passes, lambda res: res.wall_s / res.ref_s)
    secs = per_op(passes, lambda res: res.wall_s)
    units = sum(op.units for op in refs)
    lat_refs = latency_samples(workload, refs)
    lat_secs = latency_samples(workload, secs)
    attempted = sum(op.units for op, _ in results)
    ok_units = sum(op.units for op, res in results if not res.error)
    values = {
        "ops_per_ref": units / sum(refs.values()),
        "op_p50_ref": statistics.median(lat_refs),
        "peak_rss_mb": max(res.maxrss_kb for _, res in results) / 1024,
        "success_ratio": ok_units / attempted,
        "setup_s": statistics.median(setup),
    }
    metrics = {name: metric(values[name], unit)
               for name, unit in metric_units("end_to_end").items()}
    unit = "sweep pair" if workload == "verify-sweep" else "CLI op"
    n = f"n={len(lat_refs)} ({unit}, each the median of {len(passes)} passes)"
    ref_s = statistics.median(res.ref_s for _, res in results)
    notes = {
        "ops_per_ref": f"{len(refs)} ops of the mix, each at its median of "
                       f"{len(passes)} passes; {ok_units} of {attempted} units ok",
        "op_p50_ref": n,
        "peak_rss_mb": f"max over n={len(results)} op processes",
        "success_ratio": f"failed_ratio={1 - ok_units / attempted:.4f} "
                         f"({attempted - ok_units} of {attempted})",
        "setup_s": f"median of n={len(setup)} fresh interpreters",
    }
    lines = [f"{workload} {name} = {m['value']:.6g} {m['unit']}  [{notes[name]}]"
             for name, m in metrics.items()]
    lines += [
        f"{workload} (seconds, not reported) ops_per_s = "
        f"{units / sum(secs.values()):.6g} 1/s, op_p50_s = "
        f"{statistics.median(lat_secs):.6g} s, op_p75_s = {p75(lat_secs):.6g} s  "
        f"[{n}; under {P75_MIN_SAMPLES}: fewer than ten beyond p75]",
        f"{workload} (not reported) ref_s = {ref_s:.6g} s  "
        f"[median over n={len(results)} op runs of the mean reference time around each]",
    ]
    return metrics, results, "\n".join(lines)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list, str]:
    """Time the ops with a reference process run between every two of them.

    An op's ref_s is the mean of the reference times just before and just
    after it: a wider window tracked the host's phases worse.
    """
    setup: list[float] = []
    last = [reference_s()]

    def step(op):
        before = last[0]
        res = run_op(op)
        last[0] = reference_s()
        res.ref_s = (before + last[0]) / 2
        return res

    passes = measure(workload, seed, seconds, step, lambda: setup_probes(setup))
    return end_to_end_metrics(workload, passes, setup)


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, list, str]:
    toggle = [False]

    def both(op):
        # alternate which side runs first so drift hits both alike
        toggle[0] = not toggle[0]
        if toggle[0]:
            plain = run_op(op)
            return plain, run_op(op, traced=True)
        traced = run_op(op, traced=True)
        return run_op(op), traced

    # per-layer figures are totals over every op run: one pass will do
    passes = measure(workload, seed, seconds, both, min_passes=1)
    results = [(op, plain) for pass_ in passes for op, (plain, _) in pass_]
    traced = [(op, tr) for pass_ in passes for op, (_, tr) in pass_]
    mismatches = 0
    for (op, plain), (_, tr) in zip(results, traced):
        check(op, plain)
        if (plain.stdout, plain.code) != (tr.stdout, tr.code):
            mismatches += 1
            plain.error, plain.wrong = "traced run printed different bytes", True
    # thin rectangles over the whole r range, run once each, plain: the
    # share answered shows the stack overflow an iterative count removes
    probes = [(op, run_op(op)) for op in workloads.thin_probes(seed)
              ] if workload == "kron-diff" else []
    for op, res in probes:
        check(op, res)
    units = sum(op.units for op, _ in results)
    sections: dict[str, dict] = {"functions": {}, "caches": {}}
    counters: dict[str, int] = {}
    spans = 0
    for _, tr in traced:
        if tr.trace is None:  # killed at the op timeout
            continue
        spans += tr.trace["spans"]
        for section, merged in sections.items():
            for name, rec in tr.trace[section].items():
                acc = merged.setdefault(name, dict.fromkeys(rec, 0))
                for key, value in rec.items():
                    acc[key] += value
        for name, value in tr.trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
    fn, caches = sections["functions"], sections["caches"]

    def ratio(a, b):
        return a / b if b else 0.0

    def hit_ratio(name):
        c = caches.get(name, {"hits": 0, "misses": 0})
        return ratio(c["hits"], c["hits"] + c["misses"])

    units_of = metric_units("per_layer")
    values = {}
    for name in units_of:
        base, _, field = name.rpartition(".")
        if field in ("s", "self_s", "calls") and base in fn:
            values[name] = fn[base][field] / units
    calls = fn.get("marking.count_markings", {}).get("calls", 0)
    values.update({
        "marking.leaf_positions": ratio(counters.get("marking.leaf_positions", 0), units),
        "marking.nonzero_ratio": ratio(counters.get("marking.nonzero", 0), calls),
        "koh.trees": ratio(counters.get("koh.trees", 0), units),
        "goh.configurations": ratio(counters.get("goh.configurations", 0), units),
        "goh.trees": ratio(counters.get("goh.trees", 0), units),
        "partitions.count_in_rectangle.hit_ratio":
            hit_ratio("partitions.count_in_rectangle"),
        "partitions.count_in_rectangle.entries": ratio(
            caches.get("partitions.count_in_rectangle", {}).get("entries", 0), units),
        "qpoly.q_binomial.hit_ratio": hit_ratio("qpoly.q_binomial"),
        "trace.spans": ratio(spans, units),
        "partitions.count_in_rectangle.thin_ok_ratio":
            ratio(sum(not res.error for _, res in probes), len(probes)),
    })
    plain_s = sum(res.wall_s for _, res in results)
    traced_s = sum(res.wall_s for _, res in traced)
    values["trace.untraced_ops_per_s"] = units / plain_s
    values["trace.traced_ops_per_s"] = units / traced_s
    values["trace.overhead"] = 1 - plain_s / traced_s
    metrics = {name: metric(values.get(name, 0.0), unit)
               for name, unit in units_of.items()}
    text = "\n".join(f"{workload} {name} = {m['value']:.6g} {m['unit']}"
                     for name, m in metrics.items())
    text += (f"\n{workload} traced {len(traced)} ops ({units} units); "
             f"stdout mismatches: {mismatches}")
    text += "".join(f"\n{workload} thin probe {' '.join(op.argv)}: {res.error or 'ok'}"
                    for op, res in probes)
    # a wrong probe answer fails the run; a crash is what the ratio counts
    return metrics, results + [(op, res) for op, res in probes if res.wrong], text


def _checkout_ok() -> bool:
    return os.path.isfile(os.path.join(SRC, "kohtrees", "cli.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _checkout_ok():
        print(f"no kohtrees sources under {SRC}", file=sys.stderr)
        return 2
    run = per_layer if args.trace else end_to_end
    metrics, results, text = run(args.workload, args.seed, args.seconds)
    failures = [(op, res) for op, res in results if res.error]
    for op, res in failures[:10]:
        print(f"FAILED {' '.join(op.argv)}: {res.error}")
    if len(failures) > 10:
        print(f"... and {len(failures) - 10} more failed ops")
    print(f"{args.workload} seed={args.seed} python={sys.version.split()[0]} "
          f"nproc={os.cpu_count()} cli='{sys.executable} -m kohtrees.cli'")
    print(text)
    print(json.dumps({
        "correct": not any(res.wrong for _, res in results),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
