"""Plain QPoly helpers the tests judge the library with: q-integers, sums,
and the symmetry and unimodality predicates, written out coefficient by
coefficient."""

from kohtrees.qpoly import QPoly


def q_int(a):
    """The q-integer [a+1]_q = 1 + q + ... + q^a."""
    if a < 0:
        raise ValueError(f"q_int needs a >= 0, got {a}")
    return QPoly((1,) * (a + 1))


def poly_add(p, q):
    """The sum p + q."""
    a, b = p.coeffs, q.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return QPoly(out)


def is_symmetric(p, center2):
    """True when p.coeff(r) == p.coeff(center2 - r) for all r: symmetric
    about center2 / 2, passed doubled so an odd axis needs no fraction."""
    hi = max(p.degree, center2)
    return all(p.coeff(r) == p.coeff(center2 - r) for r in range(hi + 1))


def is_unimodal(p):
    """True when the coefficients weakly rise and then weakly fall."""
    falling = False
    for prev, cur in zip(p.coeffs, p.coeffs[1:]):
        if cur < prev:
            falling = True
        elif cur > prev and falling:
            return False
    return True
