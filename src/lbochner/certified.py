"""Exact rational interval arithmetic and certified root extraction.

Everything here works on pairs ``(lo, hi)`` of :class:`~fractions.Fraction`
with the contract that the true real value lies in ``[lo, hi]``.  Roots and
rational powers are bracketed with integer Newton iteration (``math.isqrt``
for square roots), so no binary floating point ever enters a result.

The p-norm pipeline runs on numerator/denominator pairs.  ``root_bracket``
tests and extracts roots on the radicand's numerator and denominator and
builds only the two endpoints.  ``pow_ends`` (and ``ipow_ends`` over an
interval) is the integer core of ``pow_bracket`` (and ``ipow_frac``): it
returns the bracket of q ** r as unreduced (lo_num, lo_den, hi_num, hi_den),
multiplying the exact factor q ** floor(r) in as integers; ``pow_bracket``
and ``ipow_frac`` reduce its ends once.  ``common_denominator_sum`` adds
numerator/denominator pairs over one common denominator and reduces once:
``lmodule.norm_intervals`` uses it for the one-norm and for the two-norm's
sum of squares, and ``bochner.power_sums_from_atom_norms`` for the lower and
the upper ends of mu(t) * ||f(t)||**s.  Every fractional root still goes
through ``root_bracket`` (or the chain below), with the same radicands as
the ``Fraction`` formulation, so the brackets are the same rationals.

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

import math
from fractions import Fraction
from math import isqrt
from typing import Sequence, Tuple

Interval = Tuple[Fraction, Fraction]

_ZERO = Fraction(0)


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


def root_bracket(q: Fraction, n: int, bits: int) -> Interval:
    """Certified bracket of q ** (1/n) for q >= 0; exact for perfect powers.

    All tests run on q's numerator and denominator; the two endpoints are
    the only fractions built."""
    num, den = q.numerator, q.denominator
    if num < 0:
        raise ValueError("negative radicand")
    if num == 0 or num == den or n == 1:
        return (q, q)
    rn = int_nth_root(num, n)
    if rn ** n == num:
        rd = int_nth_root(den, n)
        if rd ** n == den:
            ex = Fraction(rn, rd)
            return (ex, ex)
    scaled = num << (bits * n)
    t_lo = int_nth_root(scaled // den, n)
    t_hi = int_nth_root(-(-scaled // den), n) + 1
    scale = 1 << bits
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


def pow_ends(q: Fraction, r: Fraction, bits: int) -> Tuple[int, int, int, int]:
    """Integer core of ``pow_bracket``: the bracket of q ** r as
    (lo_num, lo_den, hi_num, hi_den), for q >= 0 and r >= 0.

    The ends need not be in lowest terms; the exact integer-power factor
    q ** floor(r) multiplies the fractional bracket as numerator and
    denominator.  Fractional exponents with denominator up to 64 take one
    ``root_bracket`` of q ** u, larger ones the square-root chain."""
    num, den = q.numerator, q.denominator
    if num < 0:
        raise ValueError("negative base")
    if r.numerator < 0:
        raise ValueError("negative exponent not supported")
    if r.numerator == 0:
        return 1, 1, 1, 1
    if num == 0 or num == den:
        return num, den, num, den
    int_part, u = divmod(r.numerator, r.denominator)
    bn, bd = num ** int_part, den ** int_part
    if u == 0:
        return bn, bd, bn, bd
    if bn > bd:
        # the exact integer-power factor magnifies the fractional bracket
        bits += max(0, bn.bit_length() - bd.bit_length()) + 2
    # r is in lowest terms, so u / r.denominator is too
    v = r.denominator
    if (v <= _SMALL_ROOT_ORDER and (num.bit_length() + den.bit_length()) * u
            <= _EXACT_POW_BIT_CAP):
        lo, hi = root_bracket(q ** u, v, bits + 4)
    else:
        lo, hi = _pow_via_chain(q, Fraction(u, v), bits + 2)
    return (bn * lo.numerator, bd * lo.denominator,
            bn * hi.numerator, bd * hi.denominator)


def ipow_ends(a: Interval, r: Fraction, bits: int) -> Tuple[int, int, int, int]:
    """``pow_ends`` over x in a, a nonnegative (x ** r is monotone): the
    lower end of lo(a) ** r and the upper end of hi(a) ** r."""
    lo, hi = a
    if lo is hi or lo == hi:
        return pow_ends(lo, r, bits)
    return pow_ends(lo, r, bits)[:2] + pow_ends(hi, r, bits)[2:]


def _bracket(lo_num: int, lo_den: int, hi_num: int, hi_den: int) -> Interval:
    lo = Fraction(lo_num, lo_den)
    if lo_num * hi_den == hi_num * lo_den:
        return (lo, lo)
    return (lo, Fraction(hi_num, hi_den))


def pow_bracket(q: Fraction, r: Fraction, bits: int) -> Interval:
    """Certified bracket of q ** r for q >= 0, r >= 0; exact when detectable."""
    return _bracket(*pow_ends(q, r, bits))


def ipow_frac(a: Interval, r: Fraction, bits: int) -> Interval:
    """Bracket of x ** r over x in a, a nonnegative, r >= 0 (monotone)."""
    return _bracket(*ipow_ends(a, r, bits))


def common_denominator_sum(nums: Sequence[int], dens: Sequence[int]) -> Fraction:
    """The sum of nums[i] / dens[i], taken over the least common multiple
    of the denominators and reduced once."""
    den = math.lcm(*dens)
    return Fraction(sum(n * (den // d) for n, d in zip(nums, dens)), den)


def leq_with_slack(lhs: Interval, rhs: Interval, tol: Fraction) -> Tuple[bool, Fraction]:
    """Toleranced <= on intervals; slack is hi(rhs) - lo(lhs) (>= -tol passes)."""
    slack = rhs[1] - lhs[0]
    return (slack >= -tol, slack)


def eq_within(lhs: Interval, rhs: Interval, tol: Fraction) -> Tuple[bool, Fraction]:
    """Midpoint equality within tol; returns (verdict, |gap|)."""
    gap = abs(mid(lhs) - mid(rhs))
    return (gap <= tol, gap)
