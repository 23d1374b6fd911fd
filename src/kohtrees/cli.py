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
failure or when memory runs out, 2 on a usage error.  Every command
takes --max-trees (default errors.DEFAULT_TREE_BUDGET); verify also
takes --workers, by default the CPUs this process may run on.  Both
must be positive.  A sweep prints the same bytes whatever the split
between workers (see workers); with --workers 1, or no os.fork, this
process checks every cell.

This module parses and prints; each command's body lives with what it
runs.  The parser is built for the subcommand the first argument names
alone, and in full only for -h, a missing command or an unknown one.
The tree listing is render's, the sweep and its cell check are
workers', the GOH family is goh's and the general plethysm reduction
general's, each imported where its command runs: a kronecker query
compiles no GOH, listing or sweep code, and a difference query no tree,
marking or polynomial code either.

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
                           koh_family, kronecker_two_row, plethysm_two_row)
from .errors import (DEFAULT_TREE_BUDGET, BudgetExceededError,
                     CrossCheckFailedError, PreconditionViolationError)
from .partitions import Partition

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


def _add_command(sub, name: str, **kwargs) -> argparse.ArgumentParser:
    """The parser of one (sub)command, with --max-trees as its first option."""
    parser = sub.add_parser(name, **kwargs)
    parser.add_argument("--max-trees", type=int, default=DEFAULT_TREE_BUDGET,
                        help="enumeration budget")
    return parser


def _add_method_and_format(parser: argparse.ArgumentParser,
                           method_default: str) -> None:
    parser.add_argument("--method", type=_parse_method, default=method_default,
                        metavar="{marked-trees,difference,both}")
    parser.add_argument("--format", dest="output_format", default="text",
                        choices=("text", "json"))


def _add_kronecker(sub) -> None:
    kron = _add_command(sub, "kronecker",
                        help="two-row rectangular Kronecker coefficient")
    kron.add_argument("--n", type=int, required=True, help="rectangle width")
    kron.add_argument("--k", type=int, required=True, help="rectangle height")
    kron.add_argument("--r", type=int, required=True, help="second-row length")
    _add_method_and_format(kron, METHOD_BOTH)


def _add_plethysm(sub) -> None:
    plet = _add_command(sub, "plethysm",
                        help="two-row coefficient of s_mu plethysm a row")
    plet.add_argument("--mu", type=_parse_partition, required=True,
                      help="outer partition, e.g. 3,3,2,1")
    plet.add_argument("--k", type=int, required=True, help="inner row length")
    plet.add_argument("--r", type=int, required=True, help="second-row length")
    _add_method_and_format(plet, METHOD_BOTH)


def _add_plethysm_general(sub) -> None:
    gen = _add_command(sub, "plethysm-general",
                       help="coefficient of s_lambda in s_mu plethysm s_nu")
    gen.add_argument("--lambda", dest="lam", type=_parse_partition,
                     required=True, help="target partition, at most two rows")
    gen.add_argument("--mu", type=_parse_partition, required=True)
    gen.add_argument("--nu", type=_parse_partition, required=True)
    _add_method_and_format(gen, METHOD_DIFFERENCE)


# per family: its shape option and type in trees, its size option in verify
_FAMILIES = (("koh", "--n", int, "--max-n"),
             ("goh", "--mu", _parse_partition, "--max-size"))


def _add_trees(sub) -> None:
    families = sub.add_parser("trees", help="list expansion trees").add_subparsers(
        dest="family", required=True)
    for family, shape, shape_type, _ in _FAMILIES:
        listing = _add_command(families, family)
        listing.add_argument(shape, type=shape_type, required=True)
        listing.add_argument("--k", type=int, required=True)
        listing.add_argument("--r", type=int, default=None,
                             help="list marked trees for this coefficient")
        listing.add_argument("--format", dest="output_format", default="text",
                             choices=("text", "json", "dot"))


def _add_verify(sub) -> None:
    from .workers import usable_cpus
    families = sub.add_parser("verify", help="run an identity sweep").add_subparsers(
        dest="family", required=True)
    for family, _, _, size in _FAMILIES:
        sweep = _add_command(families, family)
        sweep.add_argument(size, type=int, required=True)
        sweep.add_argument("--max-k", type=int, required=True)
        sweep.add_argument("--workers", type=int, default=usable_cpus(),
                           help="worker processes (default: the usable CPUs)")


# each subcommand's parser builder, in the order the full help lists them
_COMMANDS = {
    "kronecker": _add_kronecker,
    "plethysm": _add_plethysm,
    "plethysm-general": _add_plethysm_general,
    "trees": _add_trees,
    "verify": _add_verify,
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subcommand named command alone, or with every
    subcommand when command names none.

    Built alone, a subcommand's choices are spelled out as the metavar,
    so the top-level usage that an unrecognized argument prints is the
    full parser's.  The errors that list the choices or name the missing
    command come only from the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="kohtrees",
        description="Two-row Kronecker and plethysm coefficients via "
                    "marked expansion trees.")
    if command in _COMMANDS:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
        _COMMANDS[command](sub)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        for add in _COMMANDS.values():
            add(sub)
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


# the per-family cell checks: module attributes, looked up when a sweep
# starts, so a test can replace them
def _verify_koh_cell(cell: tuple) -> tuple[str, bool | None, str]:
    from .workers import verify_cell
    return verify_cell("koh", cell)


def _verify_goh_cell(cell: tuple) -> tuple[str, bool | None, str]:
    from .workers import verify_cell
    return verify_cell("goh", cell)


def main(argv: list[str] | None = None) -> int:
    """Run the command in argv and return its exit status; with no argv,
    run sys.argv[1:] as the process entry and end the process (see the
    module docstring)."""
    if argv is not None:
        return _run_command(argv)
    gc.disable()
    try:
        code = _run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: drop what is still buffered for it
        code = 1
    try:
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)


def _run_command(argv: list[str]) -> int:
    try:
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        for name in ("max_trees", "workers"):
            if getattr(args, name, 1) < 1:
                raise PreconditionViolationError(
                    f"{name} must be positive, got {getattr(args, name)}")
        if args.command == "trees":
            from .render import print_listing
            if args.family == "koh":
                family = koh_family(args.n, args.k)
            else:
                from .goh import goh_family
                family = goh_family(args.mu, args.k)
            print_listing(family, args.r, args.max_trees, args.output_format)
            return 0
        if args.command == "verify":
            from .workers import sweep
            if args.family == "koh":
                return sweep("koh", args.max_n, args.max_k, args.max_trees,
                             args.workers, _verify_koh_cell)
            return sweep("goh", args.max_size, args.max_k, args.max_trees,
                         args.workers, _verify_goh_cell)
        if args.command == "kronecker":
            report = kronecker_two_row(args.n, args.k, args.r, args.method,
                                       args.max_trees)
        elif args.command == "plethysm":
            report = plethysm_two_row(args.mu, args.k, args.r, args.method,
                                      args.max_trees)
        else:
            from .general import plethysm_two_row_general
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
    except MemoryError:
        # the difference route has no budget: a huge box can run out
        print("OUT_OF_MEMORY: the command needs more memory than the process "
              "may use", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
