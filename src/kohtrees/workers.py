"""The verify command: one cell's identity check, and the sweep over
cells, split between forked worker processes.

verify_cell checks one cell of either family through check_identities,
and sweep runs a cell check over every cell of a sweep and prints the
report.  check_groups runs a cell check over groups of cells, each group
in one process: the calling process and forked children pull the groups,
heaviest first, from a claim channel of at most 4 KiB until it is empty,
and the results come back in cell order whatever the split.  A child
inherits the caller's modules, caches and settings, such as a test's
replacement cell check or the collector switched off, and sends back only
the marshalled results.  Only the verify command loads this module.
"""

from __future__ import annotations

import marshal
import os
import sys

from .coefficients import METHOD_BOTH, koh_family, two_row_counts
from .errors import (BudgetExceededError, CrossCheckFailedError,
                     PreconditionViolationError)
from .partitions import Partition, enumerate_partitions

# trees printed with a failing verify cell; the cell may hold thousands
WITNESS_TREES = 5

_CELL_STATUS = {True: "PASS", False: "FAIL", None: "BUDGET"}


def usable_cpus() -> int:
    """The CPUs this process may run on: the default --workers."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_identities(family: TreeFamily, max_trees: int) -> None:
    """Check one cell of a family both ways, raising CrossCheckFailedError.

    The tree terms must sum to every reference polynomial, then the
    marked count must equal the difference at every r from 0 to half the
    degree, compared as integers (two_row_counts) with no report built.
    The leaf table is read first, so the tree budget, the one budget of a
    cell, fails before any reference is computed.
    """
    from .koh import leaf_term_sum
    total = family.total
    tree_sum = leaf_term_sum(total, family.leaf_table(max_trees).items())
    wrong = [f"the {ref} gives {p}"
             for ref, p in family.references() if p != tree_sum]
    if wrong:
        raise CrossCheckFailedError(
            f"tree terms sum to {tree_sum} but {' and '.join(wrong)} "
            f"for {family.where}")
    two_row_counts(family, range(total // 2 + 1), METHOD_BOTH, max_trees)


def verify_cell(family_name: str, cell: tuple) -> tuple[str, bool | None, str]:
    """Check one cell of either family: (label, ok, detail).  ok is None
    when the cell ran over a budget, its detail the budget message; a
    failing cell's detail is the cross-check message and the first
    WITNESS_TREES trees as JSON."""
    params, k, max_trees = cell
    if family_name == "koh":
        label, family = f"koh n={params} k={k}", koh_family(params, k)
    else:
        from .goh import goh_family
        label = f"goh mu=[{','.join(map(str, params))}] k={k}"
        family = goh_family(Partition(params), k)
    try:
        check_identities(family, max_trees)
    except BudgetExceededError as exc:
        return label, None, str(exc)
    except CrossCheckFailedError as exc:
        import json
        from .render import tree_to_dict
        trees = family.trees(max_trees)
        shown = [tree_to_dict(tree) for tree in trees[:WITNESS_TREES]]
        return label, False, (f"{label}\n  {exc}\n  witness trees ({len(shown)} "
                              f"of {len(trees)}): {json.dumps(shown)}")
    return label, True, ""


def sweep(family_name: str, size: int, max_k: int, max_trees: int, workers: int,
          check) -> int:
    """Check every cell of a family's sweep with check(cell) and print one
    status line per cell, then a summary; the exit status.

    The cells are the (n, k) with n up to size for koh, the (mu, k) with
    |mu| from 1 to size for goh, k from 1 to max_k.  A cell over a budget
    prints BUDGET and the sweep goes on; the summary counts such cells
    when there are any, and the first budget message goes to stderr.
    Exit status 1 when any cell failed or ran over a budget.  One worker
    checks the cells of one shape (n, or mu); the workers pull the shapes
    largest first from a claim channel of at most 4 KiB, and the output
    does not depend on the number of workers.
    """
    if family_name == "koh":
        if size < 0 or max_k < 1:
            raise PreconditionViolationError(
                f"need max-n >= 0 and max-k >= 1, got {size}, {max_k}")
        shapes = range(size + 1)
    else:
        if size < 1 or max_k < 1:
            raise PreconditionViolationError(
                f"need max-size >= 1 and max-k >= 1, got {size}, {max_k}")
        shapes = [mu.parts for n in range(1, size + 1)
                  for mu in enumerate_partitions(n)]
    groups = [[(shape, k, max_trees) for k in range(1, max_k + 1)]
              for shape in shapes]

    # every cell runs these: load them before the fork, so that the
    # workers inherit them instead of each compiling its own copy
    from . import koh, marking, qpoly
    if family_name == "goh":
        from . import goh
    results = check_groups(check, groups, workers)
    failures = [detail for _, ok, detail in results if ok is False]
    over = [detail for _, ok, detail in results if ok is None]
    for label, ok, _ in results:
        print(f"{_CELL_STATUS[ok]} {label}")
    passed = len(results) - len(failures) - len(over)
    print(f"checked {len(results)} cells: {passed} passed, {len(failures)} failed"
          + (f", {len(over)} over budget" if over else ""))
    if failures:
        print("first counterexample:")
        print(failures[0])
    if over:
        print(f"BUDGET_EXCEEDED: {over[0]}", file=sys.stderr)
    return 1 if failures or over else 0


def _can_fork() -> bool:
    """Whether os.fork is there and safe: no other thread runs, whose
    locks a child could inherit held."""
    threading = sys.modules.get("threading")
    return hasattr(os, "fork") and (threading is None
                                    or threading.active_count() == 1)


# the claim channel is a pipe filled before the fork, so a write past its
# buffer would block for good: the groups go out in at most this many
# contiguous runs, one 2-byte record each, 4 KiB, within the smallest pipe
# buffer of Linux and macOS
MAX_CLAIMS = 2048


def _run_share(worker, share: list[list[tuple]]) -> list:
    return [worker(cell) for group in share for cell in group]


def _pull(worker, runs: list[list[list[tuple]]], channel: int) -> dict[int, list]:
    """Claim runs from the channel until it is empty and check each one:
    {run index: its results}.  Every record was written before any reader
    started, so each 2-byte read takes one whole record."""
    done = {}
    while claim := os.read(channel, 2):
        run = int.from_bytes(claim, "little")
        done[run] = _run_share(worker, runs[run])
    return done


def _fork_puller(worker, runs: list[list[list[tuple]]], channel: int,
                 inherited: list[int]) -> tuple[int, int]:
    """Fork a child that pulls runs from the channel and writes its results
    to a pipe, marshalled: {run index: results}, or the traceback text of
    an exception.  Returns (pid, read end).  The child closes the read ends
    in inherited, which belong to its siblings, and ends in os._exit on
    every path: it never returns into the caller's frames, and never
    flushes the buffers or runs the exit handlers it inherited."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:
        for fd in (read_end, *inherited):
            os.close(fd)
        try:
            payload = _pull(worker, runs, channel)
        except BaseException:
            import traceback
            payload = traceback.format_exc()
        with open(write_end, "wb") as pipe:
            pipe.write(marshal.dumps(payload))
        status = 0
    finally:
        os._exit(status)


def check_groups(worker, groups: list[list[tuple]], workers: int) -> list:
    """worker(cell) for every cell of groups, in cell order.

    min(workers, len(groups)) workers, this process and forked children,
    pull the groups from one claim channel, heaviest first: in reverse
    order, since a sweep's groups grow along it.  A claim is one group,
    or past MAX_CLAIMS groups a contiguous run of them, so the channel
    never holds more than 4 KiB and each group is checked in one process.
    A child sends its results back through a pipe, tagged with the runs
    they belong to.  Every child is reaped before this returns or raises;
    a child that raised makes this raise RuntimeError with the child's
    traceback.  One worker, or no safe fork, runs every cell here.
    """
    width = min(workers, len(groups))
    if width < 2 or not _can_fork():
        return _run_share(worker, groups)
    size = -(-len(groups) // MAX_CLAIMS)
    runs = [groups[start:start + size] for start in range(0, len(groups), size)]
    channel, write_end = os.pipe()
    # pid -> read end of every child not yet reaped; None once read
    children: dict[int, int | None] = {}
    try:
        with open(write_end, "wb") as claims:
            claims.write(b"".join(run.to_bytes(2, "little")
                                  for run in reversed(range(len(runs)))))
        for _ in range(width - 1):
            pid, read_end = _fork_puller(worker, runs, channel,
                                         list(children.values()))
            children[pid] = read_end
        done = _pull(worker, runs, channel)
        for pid in list(children):
            with open(children[pid], "rb") as pipe:
                children[pid] = None
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if not data:
                raise RuntimeError(
                    f"verify worker {pid} sent no results (exit status "
                    f"{os.waitstatus_to_exitcode(status)})")
            payload = marshal.loads(data)
            if isinstance(payload, str):
                raise RuntimeError(f"verify worker {pid} raised:\n{payload}")
            done.update(payload)
    finally:
        os.close(channel)
        if children:
            # this process or a child raised: stop the children still running
            import signal
            for pid, read_end in children.items():
                if read_end is not None:
                    os.close(read_end)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [result for run in range(len(runs)) for result in done[run]]
