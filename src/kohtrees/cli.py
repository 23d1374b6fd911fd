"""Command-line front end: coefficients, tree listings, identity sweeps.

Subcommands
    kronecker --n N --k K --r R [--method M]
    plethysm --mu P --k K --r R [--method M]
    plethysm-general --lambda L --mu P --nu V
    trees koh --n N --k K [--r R] [--format text|json|dot]
    trees goh --mu P --k K [--r R] [--format text|json|dot]
    verify koh --max-n A --max-k B [--workers W]
    verify goh --max-size A --max-k B [--workers W]

Exit status: 0 on success, 1 on a verification, cross-check or budget
failure, 2 on a usage error.  Every command takes --max-trees (default
errors.DEFAULT_TREE_BUDGET); verify also takes --workers, by default the
CPUs this process may run on.  Both must be positive.  A sweep prints
the same bytes whatever the split between workers (see workers); with
--workers 1, or no os.fork, this process checks every cell.

Each command imports only what it runs: json and the tree writers where
they print, the worker split in verify, and the tree, marking,
polynomial and GOH modules in the coefficient routes that use them.  A
text coefficient query builds no tree; a kronecker query compiles no GOH
code and a difference query no tree, marking or polynomial code.

As a process entry (main() with no argv: `python -m kohtrees.cli` and
the kohtrees script) a command runs with the cyclic garbage collector
off, from before the imports below under `python -m`: the tables it
builds hold no reference cycle (a test pins it) and would only be
rescanned as they grow; forked verify workers inherit that.  The entry
then flushes stdout and stderr and ends in os._exit with the command's
status, so no table is freed entry by entry.  A reader that closes the
pipe early (`| head`) ends it quietly with status 1; an unhandled
exception keeps its traceback and status 1.  main(argv), as tests and
in-process callers use it, returns the status, leaves the collector
alone and raises what it does not handle, BrokenPipeError included; so
does every library call.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # a process entry: the collector goes off before the imports below
    gc.disable()

import argparse
import os
import sys

from .coefficients import (METHOD_BOTH, METHOD_DIFFERENCE, METHOD_MARKED,
                           check_identities, goh_family, koh_family,
                           kronecker_two_row, marked_listing, plethysm_two_row,
                           plethysm_two_row_general)
from .errors import (DEFAULT_TREE_BUDGET, BudgetExceededError,
                     CrossCheckFailedError, PreconditionViolationError)
from .partitions import Partition, enumerate_partitions

# trees printed with a failing verify cell; the cell may hold thousands
WITNESS_TREES = 5

_METHODS = {
    "marked_trees": METHOD_MARKED,
    "difference": METHOD_DIFFERENCE,
    "difference_formula": METHOD_DIFFERENCE,
    "both": METHOD_BOTH,
}


def _parse_partition(text: str) -> Partition:
    body = text.strip().strip("[]")
    try:
        parts = tuple(int(p) for p in body.split(",") if p.strip())
        return Partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a partition: {exc}") from exc


def _parse_method(text: str) -> str:
    try:
        return _METHODS[text.lower().replace("-", "_")]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown method {text!r}; choose marked-trees, difference or both")


def _add_method_and_format(parser: argparse.ArgumentParser,
                           method_default: str) -> None:
    parser.add_argument("--method", type=_parse_method, default=method_default,
                        metavar="{marked-trees,difference,both}")
    parser.add_argument("--format", dest="output_format", default="text",
                        choices=("text", "json"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kohtrees",
        description="Two-row Kronecker and plethysm coefficients via "
                    "marked expansion trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    limits = argparse.ArgumentParser(add_help=False)
    limits.add_argument("--max-trees", type=int, default=DEFAULT_TREE_BUDGET,
                        help="enumeration budget")

    kron = sub.add_parser("kronecker", parents=[limits],
                          help="two-row rectangular Kronecker coefficient")
    kron.add_argument("--n", type=int, required=True, help="rectangle width")
    kron.add_argument("--k", type=int, required=True, help="rectangle height")
    kron.add_argument("--r", type=int, required=True, help="second-row length")
    _add_method_and_format(kron, METHOD_BOTH)

    plet = sub.add_parser("plethysm", parents=[limits],
                          help="two-row coefficient of s_mu plethysm a row")
    plet.add_argument("--mu", type=_parse_partition, required=True,
                      help="outer partition, e.g. 3,3,2,1")
    plet.add_argument("--k", type=int, required=True, help="inner row length")
    plet.add_argument("--r", type=int, required=True, help="second-row length")
    _add_method_and_format(plet, METHOD_BOTH)

    gen = sub.add_parser("plethysm-general", parents=[limits],
                         help="coefficient of s_lambda in s_mu plethysm s_nu")
    gen.add_argument("--lambda", dest="lam", type=_parse_partition,
                     required=True, help="target partition, at most two rows")
    gen.add_argument("--mu", type=_parse_partition, required=True)
    gen.add_argument("--nu", type=_parse_partition, required=True)
    _add_method_and_format(gen, METHOD_DIFFERENCE)

    trees = sub.add_parser("trees", help="list expansion trees")
    tsub = trees.add_subparsers(dest="family", required=True)
    verify = sub.add_parser("verify", help="run an identity sweep")
    vsub = verify.add_subparsers(dest="family", required=True)
    for family, shape, shape_type, size in (
            ("koh", "--n", int, "--max-n"),
            ("goh", "--mu", _parse_partition, "--max-size")):
        listing = tsub.add_parser(family, parents=[limits])
        listing.add_argument(shape, type=shape_type, required=True)
        listing.add_argument("--k", type=int, required=True)
        listing.add_argument("--r", type=int, default=None,
                             help="list marked trees for this coefficient")
        listing.add_argument("--format", dest="output_format", default="text",
                             choices=("text", "json", "dot"))
        sweep = vsub.add_parser(family, parents=[limits])
        sweep.add_argument(size, type=int, required=True)
        sweep.add_argument("--max-k", type=int, required=True)
        sweep.add_argument("--workers", type=int, default=_usable_cpus(),
                           help="worker processes (default: the usable CPUs)")
    return parser


def _print_report(report, fmt: str) -> None:
    if fmt == "json":
        import json
        payload = {"coefficient": report.value, "method": report.method,
                   "witness_counts": report.witness_counts}
        print(json.dumps(payload))
    else:
        print(f"coefficient: {report.value}")
        print(f"method: {report.method}")


def _run_trees(args: argparse.Namespace) -> int:
    import json
    from .render import tree_to_dict, tree_to_dot, tree_to_text
    family = (koh_family(args.n, args.k) if args.family == "koh"
              else goh_family(args.mu, args.k))
    r = args.r
    entries = ([(tree, None) for tree in family.trees(args.max_trees)] if r is None
               else marked_listing(family, r, args.max_trees))

    if args.output_format == "json":
        try:
            text = json.dumps([tree_to_dict(tree, marks, r) for tree, marks in entries])
        except RecursionError:
            raise BudgetExceededError(
                "a tree is too deep to write as JSON; "
                "--format text or dot prints it") from None
        print(text)
    elif args.output_format == "dot":
        sys.stdout.write("".join(tree_to_dot(tree, marks, r, graph_name=f"tree_{i}")
                                 for i, (tree, marks) in enumerate(entries)))
    else:
        for i, (tree, marks) in enumerate(entries):
            print(f"tree {i}: {tree_to_text(tree, marks)}")
        label = "marked trees" if r is not None else "trees"
        print(f"total {label}: {len(entries)}")
    return 0


def _verify_cell(family_name: str, cell: tuple) -> tuple[str, bool | None, str]:
    """Check one cell of either family: (label, ok, detail).  ok is None
    when the cell ran over a budget, its detail the budget message; a
    failing cell's detail is the cross-check message and the first
    WITNESS_TREES trees as JSON."""
    params, k, max_trees = cell
    if family_name == "koh":
        label, family = f"koh n={params} k={k}", koh_family(params, k)
    else:
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


# the per-family cell checks: module attributes, looked up when a sweep
# starts, so a test can replace them
def _verify_koh_cell(cell: tuple) -> tuple[str, bool | None, str]:
    return _verify_cell("koh", cell)


def _verify_goh_cell(cell: tuple) -> tuple[str, bool | None, str]:
    return _verify_cell("goh", cell)


_CELL_STATUS = {True: "PASS", False: "FAIL", None: "BUDGET"}


def _usable_cpus() -> int:
    """The CPUs this process may run on: the default --workers."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_verify(args: argparse.Namespace) -> int:
    """Check every cell and print one status line per cell, then a summary.

    A cell over a budget prints BUDGET and the sweep goes on; the summary
    counts such cells when there are any, and the first budget message
    goes to stderr.  Exit status 1 when any cell failed or ran over a
    budget.  One worker checks the cells of one shape (n, or mu), so the
    output does not depend on the number of workers.
    """
    if args.family == "koh":
        if args.max_n < 0 or args.max_k < 1:
            raise PreconditionViolationError(
                f"need max-n >= 0 and max-k >= 1, got {args.max_n}, {args.max_k}")
        groups = [[(n, k, args.max_trees) for k in range(1, args.max_k + 1)]
                  for n in range(args.max_n + 1)]
        worker = _verify_koh_cell
    else:
        if args.max_size < 1 or args.max_k < 1:
            raise PreconditionViolationError(
                f"need max-size >= 1 and max-k >= 1, got {args.max_size}, {args.max_k}")
        groups = [[(mu.parts, k, args.max_trees) for k in range(1, args.max_k + 1)]
                  for size in range(1, args.max_size + 1)
                  for mu in enumerate_partitions(size)]
        worker = _verify_goh_cell

    # every cell runs these: load them before the fork, so that the
    # workers inherit them instead of each compiling its own copy
    from . import koh, marking, qpoly
    if args.family == "goh":
        from . import goh
    from .workers import check_groups
    results = check_groups(worker, groups, args.workers)
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


def main(argv: list[str] | None = None) -> int:
    """Run the command in argv and return its exit status; with no argv,
    run sys.argv[1:] as the process entry and end the process (see the
    module docstring)."""
    if argv is not None:
        return _run_command(argv)
    gc.disable()
    try:
        code = _run_command(None)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: drop what is still buffered for it
        code = 1
    try:
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)


def _run_command(argv: list[str] | None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        for name in ("max_trees", "workers"):
            if getattr(args, name, 1) < 1:
                raise PreconditionViolationError(
                    f"{name} must be positive, got {getattr(args, name)}")
        if args.command == "trees":
            return _run_trees(args)
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "kronecker":
            report = kronecker_two_row(args.n, args.k, args.r, args.method,
                                       args.max_trees)
        elif args.command == "plethysm":
            report = plethysm_two_row(args.mu, args.k, args.r, args.method,
                                      args.max_trees)
        else:
            report = plethysm_two_row_general(args.lam, args.mu, args.nu,
                                              args.method, args.max_trees)
        _print_report(report, args.output_format)
        return 0
    except BudgetExceededError as exc:
        print(f"BUDGET_EXCEEDED: {exc}", file=sys.stderr)
        return 1
    except CrossCheckFailedError as exc:
        print(f"CROSS_CHECK_FAILED: {exc}", file=sys.stderr)
        return 1
    except PreconditionViolationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
