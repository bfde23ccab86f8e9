"""Exact rational brackets and certified root extraction.

A bracket of a real value is carried as its integer ends
``(lo_num, lo_den, hi_num, hi_den)`` (``Ends``): each end in lowest terms
with a positive denominator, the true value in [lo_num/lo_den,
hi_num/hi_den].  Sums (``add``), nonnegative scales (``scale``),
products (``mul``), moduli (``iabs``), maxima (``imax``) and both
comparisons below are integer arithmetic: sums and products reduce the
way ``Fraction``'s own operators do, by gcds of the cross factors, and
comparisons cross-multiply.  The same reduced-pair sum and product
(``_add``, ``_mul``) are the coordinate arithmetic of
``falgebra.LElement``, through the kernel loops.  A ``Fraction`` is built
only for a value that enters a report (``mid``, a slack or a gap) and for
a ``root_bracket`` radicand; the root's two ends come back as reduced
(num, den) pairs, one pair twice when the root is exact.  Roots and
rational powers are bracketed with integer Newton iteration
(``math.isqrt`` for square roots), so no binary floating point ever
enters a result.

The p-norm pipeline, norm -> power sum -> root, runs on these ends:

* ``lmodule.norm_ends`` gives each coordinate's norm as ends, from the
  unreduced (num, den) of ``lmodule.column_norms``; only the two-norm
  builds a fraction, its ``root_bracket`` radicand.
* ``pow_ends`` (``ipow_ends`` over a bracket) brackets q ** r for a base
  and an exponent each given as a ``Fraction`` or as a reduced
  (num, den) pair: a fractional part u/v with v <= 64 by one
  ``root_bracket`` of q ** u (a ``Fraction`` base with u = 1 is the
  radicand itself), larger v by the square-root chain, and both through
  one tail that decides exactness and then multiplies by the exact
  integer-power factor q ** floor(r).
* ``common_denominator_sum`` adds numerator/denominator pairs over one
  common denominator and leaves the sum unreduced, so that each caller
  reduces it once with ``reduced``: ``bochner``'s power sums, each end
  of which is a later root's base, and the one-norm.

Exponents whose denominator exceeds 64 go through a chain of nested square
roots (``_pow_via_chain``).  The ladder q ** (1/2), q ** (1/4), ... of those
roots (``_sqrt_ladder``) depends only on the base and the working
precision, so one ladder per (base, precision) is built, memoised, and
shared by every exponent taken of that base: the exponent bootstrap takes
one base to every s_n.  All of its entries are nonnegative, so each level
holds only the side it needs (the lower root of the lower end, the upper
root of the upper end).  From the first inexact level on, each side is a
fixed-point integer t over 2**w, w the working precision, and its next
root is ``isqrt(t << w)``, rounded up on the upper side unless exact: no
division and no denominator.  The chain multiplies the numerators of the
levels its exponent's bits select and shifts the denominator left by w per
selected fixed-point level, so it multiplies no power of two; only the
exact levels before fixed point (a base whose first roots are exact) carry
a denominator.  It returns the unreduced ends to ``pow_ends``, which
reduces each end once (by a shift when, as usual, its denominator is a
power of two).

Comparison semantics used by all checkers, which reach these two
functions through ``reports.CheckReport.at_most`` and ``within``:

* ``leq_with_slack(a, b, tol)`` passes iff ``lo(a) <= hi(b) + tol``.  A true
  inequality always passes (the bracket contains the true value); a false one
  fails once its margin exceeds the bracket widths plus ``tol``.
* ``eq_within(a, b, tol)`` compares midpoints, reporting the gap.

Both return the margin as an unreduced (num, den) pair; a caller that
reports it builds the ``Fraction`` then.

Two subset checks sum integers over one common denominator per scalar
coordinate.  ``bochner.verify_sup_representation`` applies the
``leq_with_slack`` rule without building brackets: it writes every end
lo_i, hi_i of its atom terms, and ``tol``, over that denominator, and
decides lo(a) <= hi(b) + tol over all the subset pairs of a pass from the
pass's largest lo(a) - hi(b), which has a closed form.  With
P = sum max(lo_i - hi_i, 0), the passes fail exactly when

* every subset against the whole space: sum max(lo_i, 0) > sum hi_i + tol;
* single-atom extensions: P - max(lo_t - hi_t, 0) > hi_t + tol for some t;
* every subset pair, at m <= 6: sum max(lo_i - hi_i, -hi_i, 0) > tol.

Only when one holds does it sum the 2**m subset tables, as integers, to
name the first witness.  The mu-continuity table of
``vecmeasure.check_mu_continuity`` sums each coordinate over one common
denominator as well and reads every subset's norm off the integer sums.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt
from typing import Sequence, Tuple, Union

Ends = Tuple[int, int, int, int]
Ratio = Tuple[int, int]
Rational = Union[Fraction, Ratio]

_ZERO = Fraction(0)


def exact(num: int, den: int = 1) -> Ends:
    """The degenerate bracket of num/den, given in lowest terms."""
    return (num, den, num, den)


def reduced(num: int, den: int) -> Ratio:
    """num/den, den > 0, in lowest terms.  A power-of-two denominator (the
    square-root chain's) shares only factors two, which a shift removes
    in linear time."""
    if den & (den - 1) == 0 and num:
        shift = min((num & -num).bit_length(), den.bit_length()) - 1
        return num >> shift, den >> shift
    g = gcd(num, den)
    return (num // g, den // g) if g != 1 else (num, den)


def is_exact(e: Ends) -> bool:
    return e[0] == e[2] and e[1] == e[3]


def tol_for(compare_tol: Fraction, *ends_lists: Sequence[Ends]) -> Fraction:
    """compare_tol if any bracket in the lists is inexact, else 0."""
    for brackets in ends_lists:
        for e in brackets:
            if not is_exact(e):
                return compare_tol
    return _ZERO


def _add(an: int, ad: int, bn: int, bd: int) -> Ratio:
    # a + b for reduced a, b: reduced, as Fraction's own addition
    g = gcd(ad, bd)
    if g == 1:
        return an * bd + bn * ad, ad * bd
    s = ad // g
    t = an * (bd // g) + bn * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * bd
    return t // g2, s * (bd // g2)


def _mul(an: int, ad: int, bn: int, bd: int) -> Ratio:
    # a * b for reduced a, b: reduced, as Fraction's own multiplication
    g1 = gcd(an, bd)
    if g1 > 1:
        an //= g1
        bd //= g1
    g2 = gcd(bn, ad)
    if g2 > 1:
        bn //= g2
        ad //= g2
    return an * bn, ad * bd


def add(a: Ends, b: Ends) -> Ends:
    lo = _add(a[0], a[1], b[0], b[1])
    if is_exact(a) and is_exact(b):
        return lo + lo
    return lo + _add(a[2], a[3], b[2], b[3])


def scale(a: Ends, cn: int, cd: int) -> Ends:
    """a times c = cn/cd >= 0 (in lowest terms)."""
    if is_exact(a):
        lo = _mul(a[0], a[1], cn, cd)
        return lo + lo
    return _mul(a[0], a[1], cn, cd) + _mul(a[2], a[3], cn, cd)


def _less(a: Ratio, b: Ratio) -> bool:
    return a[0] * b[1] < b[0] * a[1]


def mul(a: Ends, b: Ends) -> Ends:
    """The product of two brackets: endpoint-wise when both are
    nonnegative, else the least and the greatest of the four end products."""
    if a[0] >= 0 and b[0] >= 0:
        lo = _mul(a[0], a[1], b[0], b[1])
        if is_exact(a) and is_exact(b):
            return lo + lo
        return lo + _mul(a[2], a[3], b[2], b[3])
    products = [_mul(x[0], x[1], y[0], y[1])
                for x in (a[:2], a[2:]) for y in (b[:2], b[2:])]
    lo = hi = products[0]
    for r in products[1:]:
        if _less(r, lo):
            lo = r
        if _less(hi, r):
            hi = r
    return lo + hi


def iabs(a: Ends) -> Ends:
    if a[0] >= 0:
        return a
    if a[2] <= 0:
        return (-a[2], a[3], -a[0], a[1])
    return (0, 1) + (a[2:] if a[2] * a[1] >= -a[0] * a[3] else (-a[0], a[1]))


def imax(a: Ends, b: Ends) -> Ends:
    lo = b[:2] if _less(a[:2], b[:2]) else a[:2]
    hi = b[2:] if _less(a[2:], b[2:]) else a[2:]
    return lo + hi


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
    if n % 2 == 0:
        # floor(floor(y) ** (1/m)) = floor(y ** (1/m)) with y = sqrt(x)
        return int_nth_root(isqrt(x), n // 2)
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


def root_bracket(q: Fraction, n: int, bits: int) -> Tuple[Ratio, Ratio]:
    """Certified bracket of q ** (1/n) for q >= 0 as its two ends, each a
    reduced (num, den) pair; a perfect power's exact root is one pair
    returned twice.

    All tests run on q's numerator and denominator; no fraction is
    built."""
    num, den = q.numerator, q.denominator
    if num < 0:
        raise ValueError("negative radicand")
    if num == 0 or num == den or n == 1:
        ex = (num, den)
        return ex, ex
    rn = int_nth_root(num, n)
    if rn ** n == num:
        rd = int_nth_root(den, n)
        if rd ** n == den:
            ex = (rn, rd)
            return ex, ex
    scaled = num << (bits * n)
    floor_q, rem = divmod(scaled, den)
    t_lo = int_nth_root(floor_q, n)
    # the ceiling floor_q + 1 has a larger root only if it is (t_lo + 1)**n
    t_hi = t_lo + 1
    if rem and t_hi ** n == floor_q + 1:
        t_hi += 1
    scale = 1 << bits
    return reduced(t_lo, scale), reduced(t_hi, scale)


_SMALL_ROOT_ORDER = 64
_EXACT_POW_BIT_CAP = 1 << 16


def _sqrt_side(num: int, den: int, bits: int, upper: bool) -> Ratio:
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


@functools.lru_cache(maxsize=128)
def _sqrt_ladder(num: int, den: int, work_bits: int,
                 levels: int) -> Tuple[Tuple[int, ...], Tuple[int, ...],
                                       Tuple[int, ...]]:
    """The nested square roots q ** (2 ** -i), i = 1 .. levels, of
    q = num/den >= 0 in lowest terms, as columns (lows, highs, dens): the
    lower root of the level above's lower end and the upper root of its
    upper end, the two sides of ``_sqrt_side``.

    Both sides agree until a level is inexact, and each is t / 2**w
    (w = work_bits) from the first inexact level on, or from an exact one
    whose denominator is a power of two of at most 2**w.  Up to there
    ``_sqrt_side`` takes each level in lowest terms, and ``dens`` holds
    their denominators; from there on a level holds t alone, over the
    implicit 2**w, and takes its root on integers: q * 2**(2w) is t << w,
    an exact square exactly when t/2**w is one, so the lower side is
    isqrt(t << w) and the upper one that root, plus one unless it is exact.
    The levels from index ``len(dens)`` on are in fixed point.

    The ladder depends on the base and the precision only, so one ladder
    serves every exponent taken of the same base."""
    w = work_bits
    lows, highs, dens = [], [], []
    ln, ld = hn, hd = num, den
    while ld & (ld - 1) or ld.bit_length() > w + 1:
        if len(lows) == levels:
            return tuple(lows), tuple(highs), tuple(dens)
        ln, ld = _sqrt_side(ln, ld, w, False)
        hn, hd = _sqrt_side(hn, hd, w, True)
        lows.append(ln)
        highs.append(hn)
        dens.append(ld)
    # both sides are t / 2**w from here on
    lo = ln << (w + 1 - ld.bit_length())
    hi = hn << (w + 1 - hd.bit_length())
    if dens:
        dens.pop()
        lows[-1], highs[-1] = lo, hi
    for _ in range(levels - len(lows)):
        lo = isqrt(lo << w)
        s = hi << w
        hi = isqrt(s)
        if hi * hi != s:
            hi += 1
        lows.append(lo)
        highs.append(hi)
    return tuple(lows), tuple(highs), tuple(dens)


def _pow_via_chain(num: int, den: int, u: int, v: int,
                   bits: int) -> Tuple[int, int, int, int]:
    """Bracket (num/den) ** (u/v), num/den >= 0 and 0 < u/v < 1 both in
    lowest terms, via nested certified square roots along the binary
    expansion of the exponent, as unreduced (lo_num, lo_den, hi_num, hi_den).

    Works for any exponent denominator: the expansion is truncated at m bits
    and the residual factor q**delta, delta in [0, 2**-m), is absorbed by
    widening with the bracket of q**(2**-m).

    Every entry of the chain is nonnegative, so the interval product is the
    endpoint-wise product: the lower side multiplies the lower ends of the
    ``_sqrt_ladder`` levels the exponent's bits select, and likewise above.
    Each selected fixed-point level adds w to a shift of the denominators
    instead of a factor 2**w.  A bracket wider than 2**-bits asks for a
    deeper, finer ladder.
    """
    work_bits = bits + 24
    levels = bits + 8
    while True:
        k, rem = divmod(u << levels, v)
        lows, highs, dens = _sqrt_ladder(num, den, work_bits, levels)
        mask = [c == "1" for c in format(k, f"0{levels}b")]
        lo_num = math.prod(compress(lows, mask))
        hi_num = math.prod(compress(highs, mask))
        lo_den = hi_den = math.prod(compress(dens, mask))
        lo_shift = hi_shift = work_bits * sum(mask[len(dens):])
        if rem:
            # widen by [min(1, lo), max(1, hi)] of the last level
            ln, hn = lows[-1], highs[-1]
            if len(dens) == levels:
                d = dens[-1]
                if ln < d:
                    lo_num *= ln
                    lo_den *= d
                if hn > d:
                    hi_num *= hn
                    hi_den *= d
            else:
                one = 1 << work_bits
                if ln < one:
                    lo_num *= ln
                    lo_shift += work_bits
                if hn > one:
                    hi_num *= hn
                    hi_shift += work_bits
        lo_den <<= lo_shift
        hi_den <<= hi_shift
        if lo_den & (lo_den - 1) == 0 == hi_den & (hi_den - 1):
            a = lo_den.bit_length() - 1
            b = hi_den.bit_length() - 1
            accepted = (((hi_num << a) - (lo_num << b)) << bits
                        <= 1 << (a + b))
        else:
            accepted = ((hi_num * lo_den - lo_num * hi_den) << bits
                        <= hi_den * lo_den)
        if accepted:
            return lo_num, lo_den, hi_num, hi_den
        work_bits += 32
        levels += 16


def pow_ends(q: Rational, r: Rational, bits: int) -> Ends:
    """Certified bracket of q ** r for q >= 0, r >= 0; exact when detectable.

    q and r are each a ``Fraction`` or a (num, den) pair in lowest terms
    with den > 0.  Fractional exponents u/v with v up to 64 take one
    ``root_bracket`` of q ** u (q itself when u = 1 and q is a
    ``Fraction``), larger ones the square-root chain.  Both share one tail:
    it reads exactness off the fractional bracket (its two ends agree)
    before it multiplies by the exact integer-power factor q ** floor(r)."""
    if type(q) is tuple:
        num, den = q
    else:
        num, den = q.numerator, q.denominator
    rn, v = r if type(r) is tuple else (r.numerator, r.denominator)
    if num < 0:
        raise ValueError("negative base")
    if rn < 0:
        raise ValueError("negative exponent not supported")
    if rn == 0:
        return 1, 1, 1, 1
    if num == 0 or num == den:
        return num, den, num, den
    int_part, u = divmod(rn, v)
    bn, bd = num ** int_part, den ** int_part
    if u == 0:
        return bn, bd, bn, bd
    if bn > bd:
        # the exact integer-power factor magnifies the fractional bracket
        bits += max(0, bn.bit_length() - bd.bit_length()) + 2
    # r is in lowest terms, so u / v is too
    if (v <= _SMALL_ROOT_ORDER and (num.bit_length() + den.bit_length()) * u
            <= _EXACT_POW_BIT_CAP):
        if type(q) is tuple:
            radicand = Fraction(num ** u, den ** u)
        else:
            radicand = q if u == 1 else q ** u
        lo, hi = root_bracket(radicand, v, bits + 4)
    else:
        ln, ld, hn, hd = _pow_via_chain(num, den, u, v, bits + 2)
        lo = reduced(ln, ld)
        hi = reduced(hn, hd)
    if int_part:
        # exactness is read off the fractional bracket, before the factor
        exact_root = lo == hi
        lo = _mul(bn, bd, *lo)
        hi = lo if exact_root else _mul(bn, bd, *hi)
    return lo + hi


def ipow_ends(lo: Rational, hi: Rational, r: Rational, bits: int) -> Ends:
    """``pow_ends`` over x in [lo, hi], lo >= 0 (x ** r is monotone): the
    lower end of lo ** r and the upper end of hi ** r."""
    if lo is hi or lo == hi:
        return pow_ends(lo, r, bits)
    return pow_ends(lo, r, bits)[:2] + pow_ends(hi, r, bits)[2:]


def common_denominator_sum(nums: Sequence[int], dens: Sequence[int]) -> Ratio:
    """The sum of nums[i] / dens[i] as (num, den) over the least common
    multiple of the denominators, not reduced."""
    den = math.lcm(*dens)
    return sum(n * (den // d) for n, d in zip(nums, dens)), den


def leq_with_slack(lhs: Ends, rhs: Ends, tol: Fraction) -> Tuple[bool, Ratio]:
    """Toleranced <= on brackets; the slack hi(rhs) - lo(lhs), unreduced,
    passes at >= -tol."""
    num = rhs[2] * lhs[1] - lhs[0] * rhs[3]
    den = rhs[3] * lhs[1]
    return num * tol.denominator >= -tol.numerator * den, (num, den)


def _mid_ratio(e: Ends) -> Ratio:
    if is_exact(e):
        return e[0], e[1]
    return e[0] * e[3] + e[2] * e[1], 2 * e[1] * e[3]


def mid(e: Ends) -> Fraction:
    """The bracket's midpoint, for a report."""
    return Fraction(*_mid_ratio(e))


def eq_within(lhs: Ends, rhs: Ends, tol: Fraction) -> Tuple[bool, Ratio]:
    """Midpoint equality within tol; the gap |mid(lhs) - mid(rhs)|,
    unreduced."""
    an, ad = _mid_ratio(lhs)
    bn, bd = _mid_ratio(rhs)
    num = abs(an * bd - bn * ad)
    den = ad * bd
    return num * tol.denominator <= tol.numerator * den, (num, den)
