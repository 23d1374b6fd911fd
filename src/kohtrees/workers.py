"""Verify sweeps split between forked worker processes.

check_groups runs a cell check over groups of cells, each group in one
process: the calling process checks the first share of the groups and a
forked child each other share, and the results come back in cell order
whatever the split.  A child inherits the caller's modules, caches and
settings, such as a test's replacement cell check or the collector
switched off, and sends back only the marshalled results.  Only the
verify command loads this module.
"""

from __future__ import annotations

import marshal
import os
import sys


def _can_fork() -> bool:
    """Whether os.fork is there and safe: no other thread runs, whose
    locks a child could inherit held."""
    threading = sys.modules.get("threading")
    return hasattr(os, "fork") and (threading is None
                                    or threading.active_count() == 1)


def _run_share(worker, share: list[list[tuple]]) -> list:
    return [worker(cell) for group in share for cell in group]


def _fork_share(worker, share: list[list[tuple]], inherited: list[int]
                ) -> tuple[int, int]:
    """Fork a child that runs worker over share and writes its results to
    a pipe, marshalled: the list of results, or the traceback text of an
    exception.  Returns (pid, read end).  The child closes the read ends
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
            payload = _run_share(worker, share)
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

    The groups are dealt in turn to min(workers, len(groups)) workers:
    this process runs the first share and a forked child each other one,
    sending its results back through a pipe.  Every child is reaped
    before this returns or raises; a child that raised makes this raise
    RuntimeError with the child's traceback.  One worker, or no safe
    fork, runs every cell here.
    """
    width = min(workers, len(groups))
    if width < 2 or not _can_fork():
        return _run_share(worker, groups)
    shares = [groups[w::width] for w in range(width)]
    # pid -> read end of every child not yet reaped; None once read
    children: dict[int, int | None] = {}
    try:
        for share in shares[1:]:
            pid, read_end = _fork_share(worker, share, list(children.values()))
            children[pid] = read_end
        outputs = [_run_share(worker, shares[0])]
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
            outputs.append(payload)
    finally:
        if children:
            # this process or a child raised: stop the children still running
            import signal
            for pid, read_end in children.items():
                if read_end is not None:
                    os.close(read_end)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    # group g went to worker g mod width, whose results come in share order
    results = [iter(output) for output in outputs]
    return [next(results[g % width]) for g, group in enumerate(groups) for _ in group]
