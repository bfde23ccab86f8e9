"""Rational vector kernel: the hot inner loops of the scalar algebra.

Vectors are passed as two parallel tuples of ints ``(nums, dens)`` with
every coordinate reduced and every denominator positive; every result is
returned in that form.
"""

from math import gcd


def vadd(an, ad, bn, bd):
    m = len(an)
    rn = [0] * m
    rd = [0] * m
    for i in range(m):
        num = an[i] * bd[i] + bn[i] * ad[i]
        den = ad[i] * bd[i]
        g = gcd(num, den)
        rn[i] = num // g
        rd[i] = den // g
    return tuple(rn), tuple(rd)


def vsub(an, ad, bn, bd):
    m = len(an)
    rn = [0] * m
    rd = [0] * m
    for i in range(m):
        num = an[i] * bd[i] - bn[i] * ad[i]
        den = ad[i] * bd[i]
        g = gcd(num, den)
        rn[i] = num // g
        rd[i] = den // g
    return tuple(rn), tuple(rd)


def vmul(an, ad, bn, bd):
    m = len(an)
    rn = [0] * m
    rd = [0] * m
    for i in range(m):
        num = an[i] * bn[i]
        den = ad[i] * bd[i]
        g = gcd(num, den)
        rn[i] = num // g
        rd[i] = den // g
    return tuple(rn), tuple(rd)


def vneg(an, ad):
    return tuple(-n for n in an), ad


def vabs(an, ad):
    return tuple(-n if n < 0 else n for n in an), ad


def vleq(an, ad, bn, bd):
    m = len(an)
    for i in range(m):
        if an[i] * bd[i] > bn[i] * ad[i]:
            return False
    return True


def vscale(an, ad, cn, cd):
    m = len(an)
    rn = [0] * m
    rd = [0] * m
    for i in range(m):
        num = an[i] * cn
        den = ad[i] * cd
        g = gcd(num, den)
        rn[i] = num // g
        rd[i] = den // g
    return tuple(rn), tuple(rd)


def vaxpy(an, ad, cn, cd, bn, bd):
    # a + c * b, with c a rational scalar
    m = len(an)
    rn = [0] * m
    rd = [0] * m
    for i in range(m):
        pn = cn * bn[i]
        pd = cd * bd[i]
        num = an[i] * pd + pn * ad[i]
        den = ad[i] * pd
        g = gcd(num, den)
        rn[i] = num // g
        rd[i] = den // g
    return tuple(rn), tuple(rd)
