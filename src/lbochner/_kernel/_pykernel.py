"""Rational vector kernel: the hot inner loops of the scalar algebra.

Vectors are passed as two parallel tuples of ints ``(nums, dens)`` with
every coordinate reduced and every denominator positive; every result is
returned in that form, by the brackets' reduced-pair ``certified._add``
and ``_mul``.
"""

from ..certified import _add, _mul


def vadd(an, ad, bn, bd):
    m = len(an)
    rn = [0] * m
    rd = [0] * m
    for i in range(m):
        rn[i], rd[i] = _add(an[i], ad[i], bn[i], bd[i])
    return tuple(rn), tuple(rd)


def vsub(an, ad, bn, bd):
    m = len(an)
    rn = [0] * m
    rd = [0] * m
    for i in range(m):
        rn[i], rd[i] = _add(an[i], ad[i], -bn[i], bd[i])
    return tuple(rn), tuple(rd)


def vmul(an, ad, bn, bd):
    m = len(an)
    rn = [0] * m
    rd = [0] * m
    for i in range(m):
        rn[i], rd[i] = _mul(an[i], ad[i], bn[i], bd[i])
    return tuple(rn), tuple(rd)


def vneg(an, ad):
    return tuple(-n for n in an), ad


def vabs(an, ad):
    return tuple(-n if n < 0 else n for n in an), ad


def vfirst_above(an, ad, bn, bd):
    """The first coordinate i with a[i] > b[i], or None."""
    for i in range(len(an)):
        if an[i] * bd[i] > bn[i] * ad[i]:
            return i
    return None


def vscale(an, ad, cn, cd):
    m = len(an)
    rn = [0] * m
    rd = [0] * m
    for i in range(m):
        rn[i], rd[i] = _mul(an[i], ad[i], cn, cd)
    return tuple(rn), tuple(rd)


def vaxpy(an, ad, cn, cd, bn, bd):
    # a + c * b, with c a rational scalar
    m = len(an)
    rn = [0] * m
    rd = [0] * m
    for i in range(m):
        pn, pd = _mul(cn, cd, bn[i], bd[i])
        rn[i], rd[i] = _add(an[i], ad[i], pn, pd)
    return tuple(rn), tuple(rd)
