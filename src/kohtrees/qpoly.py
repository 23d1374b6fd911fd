"""Dense integer polynomials in q and the Gaussian binomial family.

Everything here is exact: coefficients are arbitrary-precision ints and
the only division on offer refuses to leave a remainder.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterable, Sequence

from .errors import NonExactDivisionError


class _Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in _fields and keeps each field, and
    anything else it stores, in a slot named after it with a leading
    underscore, which its __init__ sets directly.  Every slot reads
    through a read-only property of the plain name, so assigning or
    deleting it raises AttributeError, and no instance has a __dict__.
    Two values are equal when they have the same class and equal fields;
    they hash as the tuple of their fields and repr as Class(field=...).
    Equality and hashing read that tuple off the field slots with one
    attrgetter per class (_key), not through the properties.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        for slot in cls.__slots__:
            setattr(cls, slot[1:], property(operator.attrgetter(slot)))
        if cls._fields:
            get = operator.attrgetter(*(f"_{name}" for name in cls._fields))
            # attrgetter gives one field bare and several as a tuple
            cls._key = staticmethod(get if len(cls._fields) > 1
                                    else lambda value: (get(value),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


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

        >>> q_int(2).coeff(2)
        1
        >>> q_int(2).coeff(-1)
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

    def __add__(self, other: QPoly) -> QPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

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

        >>> (q_int(2) * q_int(3)).exact_div(q_int(2)).coeffs
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

    def is_symmetric(self, center_times_two: int) -> bool:
        """True when coeff(r) == coeff(center_times_two - r) for all r.

        The center is passed doubled so odd symmetry axes need no
        fractions: a polynomial of degree d symmetric about d/2 passes
        is_symmetric(d).
        """
        hi = max(self.degree, center_times_two)
        return all(self.coeff(r) == self.coeff(center_times_two - r)
                   for r in range(hi + 1))

    def is_unimodal(self) -> bool:
        """True when coefficients weakly rise and then weakly fall.

        >>> QPoly([1, 0, 1]).is_unimodal()
        False
        """
        falling = False
        for prev, cur in zip(self.coeffs, self.coeffs[1:]):
            if cur < prev:
                falling = True
            elif cur > prev and falling:
                return False
        return True

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


def _check_q_int(a: int) -> None:
    if a < 0:
        raise ValueError(f"q_int needs a >= 0, got {a}")


def q_int(a: int) -> QPoly:
    """The q-integer [a+1]_q = 1 + q + ... + q^a.

    >>> q_int(2).coeffs
    (1, 1, 1)
    """
    _check_q_int(a)
    return QPoly((1,) * (a + 1))


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

    >>> packed_q_int(2, 1) == pack(q_int(2), 1)
    True
    """
    _check_q_int(a)
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


def sum_of_products(terms: Iterable[tuple[int, Sequence[QPoly]]]) -> QPoly:
    """The sum over terms (shift, factors) of q^shift times the product of
    the factors, whose coefficients must be nonnegative.

    The products run on packed ints, each distinct factor packed once, at
    the width of the sum's value at q = 1: the sum over terms of the
    product of the factors' coefficient sums.

    >>> sum_of_products([(0, [q_int(1), q_int(1)]), (3, [ONE])]).coeffs
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
