"""Dense integer polynomials in q and the Gaussian binomial family.

Everything here is exact: coefficients are arbitrary-precision ints and
the only division on offer refuses to leave a remainder.

sum_of_products is the one packed product kernel: a tree's term (a
shift times the leaves' q-integers) and each closed-form label (a shift
times its child types' q-binomials) are terms of it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence

from .errors import NonExactDivisionError, _Value


class QPoly(_Value):
    """Polynomial in q, stored as a dense coefficient tuple.

    coeffs[r] is the coefficient of q^r.  Trailing zeros are trimmed on
    construction, so the zero polynomial has coeffs == () and degree -1.

    >>> QPoly([1, 0, 2]).coeffs
    (1, 0, 2)
    >>> QPoly([0, 0]).degree
    -1
    """

    __slots__ = ("_coeffs",)
    _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, r: int) -> int:
        """Coefficient of q^r, zero outside the stored range.

        >>> QPoly([1, 1, 1]).coeff(2)
        1
        >>> QPoly([1, 1, 1]).coeff(-1)
        0
        """
        if 0 <= r < len(self.coeffs):
            return self.coeffs[r]
        return 0

    def shift(self, d: int) -> QPoly:
        """Multiply by q^d; d must be nonnegative."""
        if d < 0:
            raise ValueError(f"shift distance must be nonnegative, got {d}")
        if self.is_zero or d == 0:
            return self
        return QPoly((0,) * d + self.coeffs)

    def __mul__(self, other: QPoly) -> QPoly:
        if self.is_zero or other.is_zero:
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return QPoly(out)

    def exact_div(self, other: QPoly) -> QPoly:
        """Quotient self / other, demanding exactness.

        Raises NonExactDivisionError when a quotient coefficient would
        not be an integer or when a remainder is left over.

        >>> QPoly([1, 2, 3, 3, 2, 1]).exact_div(QPoly([1, 1, 1])).coeffs
        (1, 1, 1, 1)
        """
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return ZERO
        if self.degree < other.degree:
            raise NonExactDivisionError(f"{self!r} is not a multiple of {other!r}")
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        quot = [0] * (len(rem) - len(other.coeffs) + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + other.degree]
            if c % lead:
                raise NonExactDivisionError(
                    f"leading step {c} / {lead} is not an integer")
            quot[i] = c // lead
            if quot[i]:
                for j, d in enumerate(other.coeffs):
                    rem[i + j] -= quot[i] * d
        if any(rem):
            raise NonExactDivisionError(
                f"nonzero remainder {QPoly(rem)!r} dividing by {other!r}")
        return QPoly(quot)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for r, c in enumerate(self.coeffs):
            if not c:
                continue
            if r == 0:
                terms.append(str(c))
                continue
            base = "q" if r == 1 else f"q^{r}"
            terms.append(base if c == 1 else f"{c}*{base}")
        return " + ".join(terms)


ZERO = QPoly()
ONE = QPoly((1,))


# --- packed polynomials ---
#
# A polynomial with nonnegative coefficients, each below 2^(8 width), is
# held as its value at q = 2^(8 width), a Python int: one coefficient per
# width-byte slot.  Evaluation at that q is a ring map, so <<, + and *
# on the ints shift, add and multiply the polynomials; only the final
# result needs its coefficients to fit their slots when it is unpacked.
# Every coefficient of a sum of products of such polynomials is at most
# its value at q = 1, which callers compute beside it with plain ints.


def pack_width(bound: int) -> int:
    """Bytes per slot for packed coefficients in 0..bound.

    >>> pack_width(255), pack_width(256)
    (1, 2)
    """
    return max(1, (bound.bit_length() + 7) // 8)


def pack(p: QPoly, width: int) -> int:
    """p at q = 2^(8 width); every coefficient must lie in 0..2^(8 width) - 1.

    >>> pack(QPoly([1, 2]), 1)
    513
    """
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in p.coeffs),
                          "little")


def packed_q_int(a: int, width: int) -> int:
    """The q-integer [a+1]_q packed at the given width.

    >>> packed_q_int(2, 1) == pack(QPoly([1, 1, 1]), 1)
    True
    """
    if a < 0:
        raise ValueError(f"packed_q_int needs a >= 0, got {a}")
    base = 1 << (8 * width)
    return (base ** (a + 1) - 1) // (base - 1)


def unpack(value: int, width: int) -> QPoly:
    """The polynomial packed in value at the given width.

    >>> unpack(513, 1).coeffs
    (1, 2)
    """
    data = value.to_bytes(-(-value.bit_length() // (8 * width)) * width, "little")
    if width == 1:
        return QPoly(data)
    return QPoly(int.from_bytes(data[i:i + width], "little")
                 for i in range(0, len(data), width))


def q_int_ratio(tops: list[int], bottoms: list[int]) -> QPoly:
    """The product of the q-integers [a + 1]_q over tops divided by the
    product over bottoms, which must be a polynomial with nonnegative
    coefficients, else NonExactDivisionError.

    One exact division of packed ints at the width of the numerator's
    value at q = 1, which bounds every coefficient involved.  A remainder
    raises, and so does a quotient whose value at q = 1 times the
    denominator's is not the numerator's, as when the polynomial quotient
    has a negative coefficient ([6]_q / ([2]_q [3]_q) = 1 - q + q^2).

    >>> q_int_ratio([3], [1]).coeffs
    (1, 0, 1)
    """
    num_at_1 = math.prod(a + 1 for a in tops)
    width = pack_width(num_at_1)
    quot, rem = divmod(math.prod(packed_q_int(a, width) for a in tops),
                       math.prod(packed_q_int(a, width) for a in bottoms))
    ratio = unpack(quot, width)
    if rem or sum(ratio.coeffs) * math.prod(a + 1 for a in bottoms) != num_at_1:
        raise NonExactDivisionError(
            f"the q-integers {tops} are not a multiple of the q-integers {bottoms}")
    return ratio


def sum_of_products(terms: Iterable[tuple[int, Sequence[QPoly]]]) -> QPoly:
    """The sum over terms (shift, factors) of q^shift times the product of
    the factors, whose coefficients must be nonnegative.

    The products run on packed ints, each distinct factor packed once, at
    the width of the sum's value at q = 1: the sum over terms of the
    product of the factors' coefficient sums.

    >>> sum_of_products([(0, [QPoly([1, 1]), QPoly([1, 1])]), (3, [ONE])]).coeffs
    (1, 2, 1, 1)
    """
    # a term with a zero factor is zero, and its other factors need not fit
    kept = [(shift, factors, value) for shift, factors in terms
            if (value := math.prod(sum(f.coeffs) for f in factors))]
    width = pack_width(sum(value for _, _, value in kept))
    packed: dict[QPoly, int] = {}
    total = 0
    for shift, factors, _ in kept:
        term = 1
        for f in factors:
            if f not in packed:
                packed[f] = pack(f, width)
            term *= packed[f]
        total += term << (8 * width * shift)
    return unpack(total, width)


@functools.cache
def q_binomial(n: int, k: int) -> QPoly:
    """Generating function for partitions inside a k-row, n-column box.

    Built from the Pascal-style recurrence
    B(n, k) = B(n, k-1) + q^k B(n-1, k), never by division, so every
    coefficient is an exact partition count.  The recurrence runs on
    packed ints, whose width comes from the same recurrence at q = 1,
    the binomial C(n+k, k).  A negative argument gives the zero
    polynomial.  The cache is safe under concurrent use: the function is
    pure, so racing writes are idempotent.

    >>> q_binomial(2, 2).coeffs
    (1, 1, 2, 1, 1)
    """
    if n < 0 or k < 0:
        return ZERO
    width = pack_width(math.comb(n + k, k))
    # column[i] holds B(i, j) while stage j runs; i ascending keeps the
    # already-updated B(i-1, j) available
    column = [1] * (n + 1)
    for j in range(1, k + 1):
        for i in range(1, n + 1):
            column[i] += column[i - 1] << (8 * width * j)
    return unpack(column[n], width)
