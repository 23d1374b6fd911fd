"""Code that no two-row query runs: the reduction of a general inner
shape to the two-row plethysm (plethysm_two_row_general, the
plethysm-general command) and the tableau oracle's pass over horizontal
strips (strip_pass, which only coefficients.schur_specialization_oracle
runs).  A plethysm or kronecker query loads none of this module.
"""

from __future__ import annotations

import functools

from .coefficients import (METHOD_DIFFERENCE, CoefficientReport, _check_method,
                           plethysm_two_row)
from .errors import DEFAULT_TREE_BUDGET, PreconditionViolationError
from .partitions import Partition


def plethysm_two_row_general(lam: Partition, mu: Partition, nu: Partition,
                             method: str = METHOD_DIFFERENCE,
                             max_trees: int = DEFAULT_TREE_BUDGET) -> CoefficientReport:
    """Coefficient of s_lam in the plethysm of mu with nu, for lam with
    at most two rows.

    Reduces to the single-row case: zero when nu has three or more rows
    or when the second row of lam cannot absorb |mu| copies of nu's
    second row; otherwise strip those copies and compute the two-row
    coefficient for the row difference of nu.

    >>> plethysm_two_row_general(Partition((4, 2)), Partition((2,)), Partition((2, 1))).value
    1
    """
    _check_method(method)
    if len(lam) > 2:
        raise PreconditionViolationError(
            f"the target partition must have at most two rows, got {lam!r}")
    if lam.size != mu.size * nu.size:
        raise PreconditionViolationError(
            f"|lam| = {lam.size} must equal |mu| * |nu| = {mu.size * nu.size}")
    if not mu:
        return CoefficientReport(1, method)
    if len(nu) >= 3:
        return CoefficientReport(0, method)
    nu2 = nu[1] if len(nu) >= 2 else 0
    k = (nu[0] if nu else 0) - nu2
    lam2 = lam[1] if len(lam) >= 2 else 0
    if lam2 < mu.size * nu2:
        return CoefficientReport(0, method)
    theta2 = lam2 - mu.size * nu2
    if k == 0:
        theta1 = (lam[0] if lam else 0) - mu.size * nu2
        value = 1 if theta1 == 0 and theta2 == 0 and len(mu) <= 1 else 0
        return CoefficientReport(value, method)
    return plethysm_two_row(mu, k, theta2, method=method, max_trees=max_trees)


class _StripPass:
    """The horizontal-strip pass for one shape mu, extended on demand.

    state is (width, shapes, values) after the entries 0..i run so far:
    shapes maps each shape inside mu that fillings with those entries
    reach to the sum of q^|T| over them, packed at width, and values[i]
    is s_mu(1, q, ..., q^i).  At most (i+1)^|mu| fillings bound every
    coefficient, so the width grows with i and the shapes are repacked.
    An extension stores its new state in one step, so a concurrent
    caller reads the old state or the new one, whole.
    """

    __slots__ = ("rows", "state")

    def __init__(self, rows: tuple[int, ...]) -> None:
        self.rows = rows
        self.state = (1, {(0,) * len(rows): 1}, ())

    def value(self, k: int) -> QPoly:
        """s_mu(1, q, ..., q^k), running the entries up to k not yet run."""
        from .qpoly import pack, pack_width, unpack
        rows = self.rows
        width, shapes, values = self.state
        for i in range(len(values), k + 1):
            wider = pack_width((i + 1) ** sum(rows))
            if wider != width:
                shapes = {lam: pack(unpack(value, width), wider)
                          for lam, value in shapes.items()}
                width = wider
            step = 8 * width * i
            # the strip of entry i, one row at a time from the bottom: row
            # j grows up to the row above it, which has not grown yet
            for j in reversed(range(len(rows))):
                grown: dict[tuple[int, ...], int] = {}
                cap = rows[j]
                for lam, value in shapes.items():
                    low = lam[j]
                    top = min(cap, lam[j - 1]) if j else cap
                    grown[lam] = grown.get(lam, 0) + value
                    if low < top:
                        head, tail = lam[:j], lam[j + 1:]
                        for part in range(low + 1, top + 1):
                            value <<= step
                            nu = head + (part,) + tail
                            grown[nu] = grown.get(nu, 0) + value
                shapes = grown
            values += (unpack(shapes.get(rows, 0), width),)
            self.state = width, shapes, values
        return values[k]


@functools.lru_cache(maxsize=8)
def strip_pass(rows: tuple[int, ...]) -> _StripPass:
    return _StripPass(rows)
