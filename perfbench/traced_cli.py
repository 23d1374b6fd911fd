"""Run one kohtrees CLI invocation with spans around its public functions.

Usage (from the checkout root, with PYTHONPATH=src:perfbench):

    KOHBENCH_TRACE_FD=<fd> python3 -m traced_cli <kohtrees arguments>

Stdout, stderr and the exit status are the program's own.  When the
program returns or raises, a JSON summary of the trace is written to the
file descriptor named by KOHBENCH_TRACE_FD.

The program is not edited.  Each traced function is replaced, at every
kohtrees module that binds it (``from .x import f`` makes its own
binding) and on its class for methods, by a wrapper that counts the
call and, for the outermost call of a function that is not already on
the stack, records a span (name, start, end, parent) in memory.  A
span's self time is its duration minus the time its child spans cover.

While a function's outermost call runs, its own module's binding points
back at the original, so a recursion through that binding (``leaves``,
``count_koh_trees``, ``count_in_rectangle``) runs untouched: no wrapper
frames, no tracing cost inside it.  Its nested calls are counted after
the fact instead: from ``cache_info()`` for the cached ones, and for
``leaves``, which makes one call per tree node, by counting the nodes of
each tree it was called on when the process ends.

Every spanning wrapper frame raises the recursion limit by one while it
is on the stack, and this module's own frame does the same, so the
program hits RecursionError at exactly the depth it does untraced and
prints the same bytes (``count_in_rectangle`` recurses hundreds of
frames deep).  The methods in COUNTED get only a bare call counter: one
frame on top of a leaf call made from a shallow stack, whose cost lands
in the caller's span.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array

# (module, attribute path) of the spanned functions
TARGETS = (
    ("cli", "main"),
    ("coefficients", "kronecker_two_row"),
    ("coefficients", "plethysm_two_row"),
    ("coefficients", "hook_content"),
    ("coefficients", "schur_specialization_oracle"),
    ("koh", "enumerate_koh_trees"),
    ("koh", "count_koh_trees"),
    ("koh", "leaves"),
    ("koh", "koh_term"),
    ("koh", "koh_rhs_closed"),
    ("goh", "enumerate_configurations"),
    ("goh", "enumerate_goh_trees"),
    ("goh", "goh_leaves"),
    ("goh", "goh_term"),
    ("goh", "goh_rhs_closed"),
    ("marking", "count_markings"),
    ("partitions", "count_in_rectangle"),
    ("partitions", "enumerate_partitions"),
    ("qpoly", "QPoly.__mul__"),
    ("qpoly", "QPoly.exact_div"),
    ("qpoly", "q_binomial"),
)

# methods whose calls are only counted: a bare counter, no span and no
# recursion-limit bump, since q_stat is a leaf called 10^5 times an op on
# pleth-cli and a full wrapper there would be most of the traced time
COUNTED = (("partitions", "Partition.q_stat"),)

# functools.cache tables whose statistics are reported
CACHES = ("partitions.count_in_rectangle", "qpoly.q_binomial")

MODULES = ("kohtrees", "kohtrees.cli", "kohtrees.coefficients", "kohtrees.goh",
           "kohtrees.koh", "kohtrees.marking", "kohtrees.partitions",
           "kohtrees.qpoly")


class Tracer:
    """Span and call records for one process, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.open_spans: list[int] = []
        self.counters = {"marking.leaf_positions": 0, "marking.nonzero": 0,
                         "koh.trees": 0, "goh.configurations": 0,
                         "goh.trees": 0}
        self._config_shapes: set = set()
        self._leaf_trees: list = []
        self.originals: dict[str, object] = {}

    def _open(self, tid: int) -> int:
        index = len(self.span_name)
        self.span_name.append(tid)
        self.span_parent.append(self.open_spans[-1] if self.open_spans else -1)
        self.span_end.append(0.0)
        self.open_spans.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self.open_spans.pop()

    def _observe(self, name: str, args: tuple, result) -> None:
        c = self.counters
        if name == "koh.leaves":
            self._leaf_trees.append(args[0])
        elif name == "marking.count_markings":
            c["marking.leaf_positions"] += len(args[0])
            c["marking.nonzero"] += result > 0
        elif name == "koh.enumerate_koh_trees":
            c["koh.trees"] += len(result)
        elif name == "goh.enumerate_goh_trees":
            c["goh.trees"] += len(result)
        elif name == "goh.enumerate_configurations":
            # cached per shape: count each shape's configurations once
            if args[0] not in self._config_shapes:
                self._config_shapes.add(args[0])
                c["goh.configurations"] += len(result)

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def count(self, name: str, fn):
        """A method that counts its calls and does nothing else."""
        tid, calls = self._register(name), self.calls

        @functools.wraps(fn)
        def counted(*args):
            calls[tid] += 1
            return fn(*args)

        return counted

    def wrap(self, name: str, fn, home=None):
        """The wrapper of fn; home is (module, attribute) of its own binding."""
        tid, calls = self._register(name), self.calls
        depth = [0]
        observed = name in ("koh.leaves", "marking.count_markings",
                            "koh.enumerate_koh_trees", "goh.enumerate_goh_trees",
                            "goh.enumerate_configurations")
        getlimit, setlimit = sys.getrecursionlimit, sys.setrecursionlimit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[tid] += 1
            limit = getlimit()
            setlimit(limit + 1)
            outermost = not depth[0]
            depth[0] += 1
            if outermost:
                if home:
                    setattr(*home, fn)
                index = self._open(tid)
            try:
                result = fn(*args, **kwargs)
            finally:
                if outermost:
                    self._close(index)
                    if home:
                        setattr(*home, wrapper)
                depth[0] -= 1
                setlimit(limit)
            if observed:
                self._observe(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for short, path in TARGETS + COUNTED:
            name = f"{short}.{path}"
            home = importlib.import_module(f"kohtrees.{short}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self.originals[name] = original
                make = self.count if (short, path) in COUNTED else self.wrap
                setattr(cls, attr, make(name, original))
                continue
            original = getattr(home, path)
            self.originals[name] = original
            wrapper = self.wrap(name, original, (home, path))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _leaves_calls(self) -> int:
        """Calls leaves made: one per node of every tree it was called on."""
        nodes: dict[int, int] = {}

        def count(tree) -> int:
            n = nodes.get(id(tree))
            if n is None:
                n = nodes[id(tree)] = 1 + sum(count(child) for _, child in tree.children)
            return n

        return sum(count(tree) for tree in self._leaf_trees)

    def summary(self) -> dict:
        """Per-name call counts, inclusive and self time, from the spans."""
        n = len(self.names)
        total = [0.0] * n
        self_time = [0.0] * n
        spans = [0] * n
        names, parents = self.span_name, self.span_parent
        durations = [end - start
                     for start, end in zip(self.span_start, self.span_end)]
        child = [0.0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += durations[i]
        for i, tid in enumerate(names):
            total[tid] += durations[i]
            self_time[tid] += durations[i] - child[i]
            spans[tid] += 1
        calls = list(self.calls)
        calls[self.names.index("koh.leaves")] = self._leaves_calls()
        caches = {}
        for name in CACHES:
            info = self.originals[name].cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses,
                            "entries": info.currsize}
        return {
            "spans": len(names),
            "functions": {name: {"calls": calls[t], "spans": spans[t],
                                 "s": total[t], "self_s": self_time[t]}
                          for t, name in enumerate(self.names)},
            "counters": dict(self.counters),
            "caches": caches,
        }


def _run(argv: list[str]) -> int:
    # this frame is one the untraced `python3 -m kohtrees.cli` lacks
    sys.setrecursionlimit(sys.getrecursionlimit() + 1)
    fd = int(os.environ["KOHBENCH_TRACE_FD"])
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("kohtrees.cli")
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with os.fdopen(fd, "w") as out:
            json.dump(tracer.summary(), out)


if __name__ == "__main__":
    raise SystemExit(_run(sys.argv[1:]))
