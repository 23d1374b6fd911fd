"""Benchmark workloads: seeded op lists and the reference check of each answer.

An op is one invocation of the kohtrees CLI.  A workload is one mix of
ops drawn from the seed, and a run measures passes over that mix, each
pass in a new seeded order.  Every mix is built the same way (a lattice
design, see _lattice) and the seed only moves each input within a
quarter of its lattice cell, so a run's figures do not hinge on which
few heavy ops the seed happened to draw.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import re
from collections.abc import Iterator

KRON_CLI_SIDES = (13, 17)
KRON_CLI_OPS = 15
# near-square kron-diff rectangles: side from 25..60, other side within 3
KRON_DIFF_SIDES = (25, 60)
KRON_DIFF_SKEW = 3
KRON_DIFF_SQUARE = 15
# thin kron-diff rectangles: k in 1..3, n in 300..3000
THIN_K = (1, 2, 3)
THIN_N = (300, 3000)
THIN_TIMED = 5
# the recursive count_in_rectangle overflows the default stack on thin
# rectangles from r of about 494, so the timed thin ops stay below this r;
# thin_probes covers the whole r range and reports which ones die
THIN_R_MAX = 400
THIN_PROBES = 12

# pleth-cli ops: shapes of 3-5 rows and size 12-22, each with one k so
# that k spans 6-11 over the mix and no op takes much over 2 s (2 cores);
# the mix of all thirteen runs in about 7 s.  An odd count puts the median
# op on one shape: with fourteen it fell in the gap between the 0.34 s and
# 0.25 s shapes and moved by 10% between runs
PLETH_SHAPES = (
    ((7, 6, 5, 4), 6),
    ((6, 5, 4, 3), 8),
    ((8, 7, 6), 7),
    ((3, 3, 3, 3, 3), 11),
    ((6, 5, 4), 10),
    ((5, 5, 4), 9),
    ((5, 4, 3), 11),
    ((6, 4, 2), 10),
    ((5, 4, 3, 2), 9),
    ((4, 4, 3, 3), 10),
    ((4, 3, 3, 2), 8),
    ((5, 4, 3, 2, 1), 7),
    ((4, 3, 2, 2, 1), 6),
)

VERIFY_KOH = ("verify", "koh", "--max-n", "11", "--max-k", "11")
VERIFY_GOH = ("verify", "goh", "--max-size", "8", "--max-k", "5")
VERIFY_KOH_CELLS = 12 * 11          # n in 0..11, k in 1..11
VERIFY_GOH_CELLS = (1 + 2 + 3 + 5 + 7 + 11 + 15 + 22) * 5  # mu of size 1..8, k in 1..5


# how far, as a share of its lattice cell, the seed moves an input; over a
# whole cell, which heavy ops a seed drew moved peak_rss_mb by 12% and
# the throughput by up to 30% between seeds
JITTER = 0.25


@dataclasses.dataclass(frozen=True)
class Op:
    """One CLI invocation and what its answer is checked against.

    check is ("kron", n, k, r), ("pleth", parts, k, r) or ("verify", cells);
    units is what the op counts for in ops_per_ref (a query, or verify cells).
    """

    argv: tuple[str, ...]
    check: tuple
    units: int = 1


def _lattice(rng: random.Random, count: int, step: int) -> list[float]:
    """A coordinate in [0, 1) for each of count points of a rank-1 lattice.

    Point i lies in cell (i * step) mod count of count equal cells, within
    JITTER of the cell's width around its middle, at a seeded place.  With
    step coprime to count every cell is hit once, and different steps
    give coordinates that are spread against each other, so every mix
    holds the same sizes up to the jitter and costs about the same.
    """
    return [((i * step) % count + 0.5 + JITTER * (rng.random() - 0.5)) / count
            for i in range(count)]


def _pick(lo: int, hi: int, u: float) -> int:
    """The integer of lo..hi at quantile u."""
    return lo + int(u * (hi - lo + 1))


def _pick_r(total: int, u: float) -> int:
    """r in 0..total//2 at quantile u."""
    return _pick(0, total // 2, u)


def _kron(n: int, k: int, r: int, method: str | None = None) -> Op:
    argv = ["kronecker", "--n", str(n), "--k", str(k), "--r", str(r)]
    if method:
        argv += ["--method", method]
    return Op(tuple(argv), ("kron", n, k, r))


def _kron_cli(rng: random.Random) -> list[Op]:
    # each side and r spread over their ranges by a lattice, every side
    # length three times as n and three times as k
    count = KRON_CLI_OPS
    ops = []
    for u_n, u_k, u_r in zip(_lattice(rng, count, 1), _lattice(rng, count, 4),
                             _lattice(rng, count, 7)):
        n, k = _pick(*KRON_CLI_SIDES, u_n), _pick(*KRON_CLI_SIDES, u_k)
        ops.append(_kron(n, k, _pick_r(n * k, u_r)))
    return ops


def _thin(rng: random.Random, count: int, r_max: int | None) -> list[Op]:
    # thin rectangles spread over n and r by a lattice; k cycles through 1..3
    ops = []
    for i, (u_n, u_r) in enumerate(zip(_lattice(rng, count, 1),
                                       _lattice(rng, count, 2))):
        n, k = _pick(*THIN_N, u_n), THIN_K[i % len(THIN_K)]
        top = n * k if r_max is None else min(n * k, 2 * r_max)
        ops.append(_kron(n, k, _pick_r(top, u_r), "difference"))
    return ops


def _kron_diff(rng: random.Random) -> list[Op]:
    # 15 near-square rectangles spread over their side and r ranges by a
    # lattice, and 5 thin ones below the r at which the stack overflows
    lo, hi = KRON_DIFF_SIDES
    ops = []
    square = KRON_DIFF_SQUARE
    for i, (u_side, u_r) in enumerate(zip(_lattice(rng, square, 1),
                                          _lattice(rng, square, 4))):
        n = _pick(lo, hi, u_side)
        skew = i % (2 * KRON_DIFF_SKEW + 1) - KRON_DIFF_SKEW
        k = min(hi, max(lo, n + skew))
        ops.append(_kron(n, k, _pick_r(n * k, u_r), "difference"))
    return ops + _thin(rng, THIN_TIMED, THIN_R_MAX)


def thin_probes(seed: int) -> list[Op]:
    """Thin kron-diff rectangles over the whole r range 0..nk/2.

    Many of them die with RecursionError today; the traced run reports
    the share that succeed instead of timing them.
    """
    return _thin(random.Random(f"thin-probes/{seed}"), THIN_PROBES, None)


def _pleth_cli(rng: random.Random) -> list[Op]:
    # each (shape, k) once, r from a lattice across the shapes
    ops = []
    for (parts, k), u in zip(PLETH_SHAPES, _lattice(rng, len(PLETH_SHAPES), 3)):
        r = _pick_r(sum(parts) * k, u)
        mu = ",".join(map(str, parts))
        ops.append(Op(("plethysm", "--mu", mu, "--k", str(k), "--r", str(r)),
                      ("pleth", parts, k, r)))
    return ops


def _verify_sweep(rng: random.Random) -> list[Op]:
    # fixed inputs: the seed is ignored
    return [Op(VERIFY_KOH, ("verify", VERIFY_KOH_CELLS), VERIFY_KOH_CELLS),
            Op(VERIFY_GOH, ("verify", VERIFY_GOH_CELLS), VERIFY_GOH_CELLS)]


WORKLOADS = {
    "kron-cli": _kron_cli,
    "pleth-cli": _pleth_cli,
    "verify-sweep": _verify_sweep,
    "kron-diff": _kron_diff,
}


def mix(workload: str, seed: int) -> list[Op]:
    """The seed-determined ops of one run of a workload."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


def passes(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless passes over the workload's mix, each in a new seeded order."""
    ops = mix(workload, seed)
    rng = random.Random(f"order/{workload}/{seed}")
    while True:
        yield rng.sample(ops, len(ops))


# --- reference answers, by routes the op itself does not take ---

def box_partition_counts(n: int, k: int, top: int) -> list[int]:
    """Partitions of 0..top inside a k-row, n-column box.

    Coefficients of the Gaussian binomial from its product formula,
    prod over i = 1..k of (1 - q^(n+i)) / (1 - q^i), truncated at
    degree top; iterative, in O(k * top) integer steps.
    """
    c = [1] + [0] * top
    for i in range(1, k + 1):
        m = n + i
        for j in range(top, m - 1, -1):
            c[j] -= c[j - m]
        for j in range(i, top + 1):
            c[j] += c[j - i]
    return c


@functools.cache
def _q_binomial_coeffs(n: int, k: int) -> tuple[int, ...]:
    from kohtrees.qpoly import q_binomial
    return q_binomial(n, k).coeffs


@functools.cache
def _goh_closed_coeffs(parts: tuple[int, ...], k: int) -> tuple[int, ...]:
    from kohtrees.goh import goh_rhs_closed
    from kohtrees.partitions import Partition
    return goh_rhs_closed(Partition(parts), k).coeffs


def _diff(coeffs, r: int) -> int:
    def at(i):
        return coeffs[i] if 0 <= i < len(coeffs) else 0
    return at(r) - at(r - 1)


# q_binomial is used for the small rectangles of kron-cli; the larger and
# thin kron-diff rectangles use box_partition_counts, which stays cheap there
Q_BINOMIAL_MAX_CELLS = 17 * 17


def expected(op: Op):
    """The reference answer: an integer coefficient or a cell count."""
    kind = op.check[0]
    if kind == "kron":
        _, n, k, r = op.check
        if n * k <= Q_BINOMIAL_MAX_CELLS:
            return _diff(_q_binomial_coeffs(n, k), r)
        counts = box_partition_counts(n, k, r)
        return counts[r] - (counts[r - 1] if r else 0)
    if kind == "pleth":
        _, parts, k, r = op.check
        return _diff(_goh_closed_coeffs(parts, k), r)
    return op.check[1]


_COEFF = re.compile(rb"coefficient: (-?\d+)\nmethod: \S+\n")
_VERIFY = re.compile(rb"^checked (\d+) cells: (\d+) passed, (\d+) failed$", re.M)
# what a verify sweep prints, after its summary, when a cell failed (it exits 1)
COUNTEREXAMPLE = b"\nfirst counterexample:\n"


def answer_error(op: Op, stdout: bytes) -> str | None:
    """Why stdout disagrees with the reference, or None when it agrees."""
    if op.check[0] == "verify":
        m = _VERIFY.search(stdout)
        cells = op.check[1]
        if not m or m.groups() != (str(cells).encode(), str(cells).encode(), b"0"):
            summary = m.group(0).decode() if m else "no summary"
            return f"sweep gave '{summary}', not '{cells} passed, 0 failed'"
        return None
    m = _COEFF.fullmatch(stdout)
    if not m:
        return "no coefficient in output"
    want = expected(op)
    got = int(m.group(1))
    if got != want:
        return f"coefficient {got}, reference {want}"
    return None
