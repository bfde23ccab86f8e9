"""Exact rational interval arithmetic and certified root extraction.

Everything here works on pairs ``(lo, hi)`` of :class:`~fractions.Fraction`
with the contract that the true real value lies in ``[lo, hi]``.  Roots and
rational powers are bracketed with integer Newton iteration (``math.isqrt``
for square roots), so no binary floating point ever enters a result.

Exponents whose denominator exceeds 64 go through a chain of nested square
roots (``_pow_via_chain``).  All of its entries are nonnegative, so each
level computes only the side it needs (the lower root of the lower end, the
upper root of the upper end), the endpoint products are multiplied as plain
integers, and the result is reduced to a ``Fraction`` once, on return.

Comparison semantics used by all checkers:

* ``leq_with_slack(a, b, tol)`` passes iff ``lo(a) <= hi(b) + tol``.  A true
  inequality always passes (the bracket contains the true value); a false one
  fails once its margin exceeds the bracket widths plus ``tol``.
* ``eq_within(a, b, tol)`` compares midpoints, reporting the gap.

The subset table of ``bochner.verify_sup_representation`` applies the
``leq_with_slack`` rule without building brackets: for each scalar
coordinate it writes every bracket end of its atom terms, and ``tol``, over
one common denominator, sums the ends as integers and compares
lo(a) <= hi(b) + tol as integers scaled by that denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Sequence, Tuple

Interval = Tuple[Fraction, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def exact(q: Fraction) -> Interval:
    return (q, q)


def mid(iv: Interval) -> Fraction:
    return (iv[0] + iv[1]) / 2


def is_exact(iv: Interval) -> bool:
    return iv[0] == iv[1]


def tol_for(compare_tol: Fraction, *interval_lists: Sequence[Interval]) -> Fraction:
    """compare_tol if any interval in the lists is inexact, else 0."""
    for ivs in interval_lists:
        for iv in ivs:
            if not is_exact(iv):
                return compare_tol
    return _ZERO


def iadd(a: Interval, b: Interval) -> Interval:
    return (a[0] + b[0], a[1] + b[1])


def imul(a: Interval, b: Interval) -> Interval:
    # general sign handling; most callers pass nonnegative intervals
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def iscale(a: Interval, c: Fraction) -> Interval:
    if c >= 0:
        return (a[0] * c, a[1] * c)
    return (a[1] * c, a[0] * c)


def iabs(a: Interval) -> Interval:
    if a[0] >= 0:
        return a
    if a[1] <= 0:
        return (-a[1], -a[0])
    return (_ZERO, max(-a[0], a[1]))


def imax(a: Interval, b: Interval) -> Interval:
    return (max(a[0], b[0]), max(a[1], b[1]))


def int_nth_root(x: int, n: int) -> int:
    """floor(x ** (1/n)) for x >= 0, n >= 1, by Newton iteration on integers."""
    if x < 0:
        raise ValueError("negative radicand")
    if n <= 0:
        raise ValueError("root order must be positive")
    if x in (0, 1) or n == 1:
        return x
    if n == 2:
        return isqrt(x)
    if x.bit_length() <= n:  # x < 2**n  =>  root is 1
        return 1
    r = 1 << -(-x.bit_length() // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > x:
        r -= 1
    return r


def _perfect_root(q: Fraction, n: int):
    """Exact n-th root of q >= 0 if q is a perfect n-th power, else None."""
    rn = int_nth_root(q.numerator, n)
    if rn ** n != q.numerator:
        return None
    rd = int_nth_root(q.denominator, n)
    if rd ** n != q.denominator:
        return None
    return Fraction(rn, rd)


def root_bracket(q: Fraction, n: int, bits: int) -> Interval:
    """Certified bracket of q ** (1/n) for q >= 0; exact for perfect powers."""
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0 or q == 1 or n == 1:
        return (q, q)
    ex = _perfect_root(q, n)
    if ex is not None:
        return (ex, ex)
    scale = 1 << bits
    num, den = q.numerator, q.denominator
    scaled = num * scale ** n
    t_lo = int_nth_root(scaled // den, n)
    t_hi = int_nth_root(-(-scaled // den), n) + 1
    return (Fraction(t_lo, scale), Fraction(t_hi, scale))


_SMALL_ROOT_ORDER = 64
_EXACT_POW_BIT_CAP = 1 << 16


def _sqrt_side(num: int, den: int, bits: int, upper: bool) -> Tuple[int, int]:
    """One side of ``root_bracket(num/den, 2, bits)`` for num/den >= 0 in
    lowest terms, returned in lowest terms: exact rational squares (0 and 1
    among them) take their exact root, anything else the lower or upper
    ``t / 2**bits``."""
    rd = isqrt(den)
    if rd * rd == den:
        rn = isqrt(num)
        if rn * rn == num:
            return rn, rd
    scaled = num << (2 * bits)
    if upper:
        t = isqrt(-(-scaled // den)) + 1
    else:
        t = isqrt(scaled // den)
        if t == 0:
            return 0, 1
    shift = min((t & -t).bit_length() - 1, bits)
    return t >> shift, 1 << (bits - shift)


def _pow_via_chain(q: Fraction, frac_exp: Fraction, bits: int) -> Interval:
    """Bracket q ** frac_exp, 0 < frac_exp < 1, via nested certified square
    roots along the binary expansion of the exponent.

    Works for any exponent denominator: the expansion is truncated at m bits
    and the residual factor q**delta, delta in [0, 2**-m), is absorbed by
    widening with the bracket of q**(2**-m).

    Every entry of the chain is nonnegative, so the interval product is the
    endpoint-wise product: the lower side only ever needs the lower square
    root of the lower side, and likewise above.  Both sides are carried as
    integer numerator/denominator pairs and reduced once on return.
    """
    work_bits = bits + 24
    levels = bits + 8
    u, v = frac_exp.numerator, frac_exp.denominator
    while True:
        k, rem = divmod(u << levels, v)
        lo_num = lo_den = hi_num = hi_den = 1
        ln, ld = hn, hd = q.numerator, q.denominator
        for i in range(levels - 1, -1, -1):
            ln, ld = _sqrt_side(ln, ld, work_bits, False)
            hn, hd = _sqrt_side(hn, hd, work_bits, True)
            if (k >> i) & 1:
                lo_num *= ln
                lo_den *= ld
                hi_num *= hn
                hi_den *= hd
        if rem:
            # widen by [min(1, lo), max(1, hi)] of the last level
            if ln < ld:
                lo_num *= ln
                lo_den *= ld
            if hn > hd:
                hi_num *= hn
                hi_den *= hd
        if (hi_num * lo_den - lo_num * hi_den) << bits <= hi_den * lo_den:
            return (Fraction(lo_num, lo_den), Fraction(hi_num, hi_den))
        work_bits += 32
        levels += 16


def pow_bracket(q: Fraction, r: Fraction, bits: int) -> Interval:
    """Certified bracket of q ** r for q >= 0, r >= 0; exact when detectable."""
    if q < 0:
        raise ValueError("negative base")
    if r < 0:
        raise ValueError("negative exponent not supported")
    if r == 0:
        return (_ONE, _ONE)
    if q == 0 or q == 1:
        return (q, q)
    int_part, frac_num = divmod(r.numerator, r.denominator)
    base = q ** int_part
    if frac_num == 0:
        return (base, base)
    eff_bits = bits
    if base > 1:
        # the exact integer-power factor magnifies the fractional bracket
        eff_bits += max(0, base.numerator.bit_length()
                        - base.denominator.bit_length()) + 2
    frac_exp = Fraction(frac_num, r.denominator)
    u, v = frac_exp.numerator, frac_exp.denominator
    if v <= _SMALL_ROOT_ORDER:
        size = (q.numerator.bit_length() + q.denominator.bit_length()) * u
        if size <= _EXACT_POW_BIT_CAP:
            iv = root_bracket(q ** u, v, eff_bits + 4)
            return iscale(iv, base) if base != 1 else iv
    iv = _pow_via_chain(q, frac_exp, eff_bits + 2)
    return iscale(iv, base) if base != 1 else iv


def ipow_frac(a: Interval, r: Fraction, bits: int) -> Interval:
    """Bracket of x ** r over x in a, a nonnegative, r >= 0 (monotone)."""
    if a[0] < 0:
        raise ValueError("interval must be nonnegative")
    if a[0] == a[1]:
        return pow_bracket(a[0], r, bits)
    return (pow_bracket(a[0], r, bits)[0], pow_bracket(a[1], r, bits)[1])


def leq_with_slack(lhs: Interval, rhs: Interval, tol: Fraction) -> Tuple[bool, Fraction]:
    """Toleranced <= on intervals; slack is hi(rhs) - lo(lhs) (>= -tol passes)."""
    slack = rhs[1] - lhs[0]
    return (slack >= -tol, slack)


def eq_within(lhs: Interval, rhs: Interval, tol: Fraction) -> Tuple[bool, Fraction]:
    """Midpoint equality within tol; returns (verdict, |gap|)."""
    gap = abs(mid(lhs) - mid(rhs))
    return (gap <= tol, gap)
