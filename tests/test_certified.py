import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbochner import certified
from lbochner.falgebra import ToleranceConfig


def decimal_pow(base: Fraction, exponent: Fraction, digits: int = 60) -> Fraction:
    """Independent oracle: exp(r ln x) in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        x = decimal.Decimal(base.numerator) / decimal.Decimal(base.denominator)
        r = decimal.Decimal(exponent.numerator) / decimal.Decimal(exponent.denominator)
        return Fraction((r * x.ln()).exp())


def fractions_of(e):
    """Integer ends as a pair of fractions."""
    return (Fraction(e[0], e[1]), Fraction(e[2], e[3]))


def ends_of(iv):
    """A pair of fractions as integer ends."""
    lo, hi = iv
    return (lo.numerator, lo.denominator, hi.numerator, hi.denominator)


def root_fractions(q, n, bits):
    """``certified.root_bracket``'s two (num, den) ends as fractions."""
    return tuple(Fraction(*end) for end in certified.root_bracket(q, n, bits))


def pow_bracket(q, r, bits):
    """``certified.pow_ends`` as a pair of fractions."""
    return fractions_of(certified.pow_ends(q, r, bits))


def imul(a, b):
    """Product of two Fraction brackets of any signs."""
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


class TestIntNthRoot:
    def test_small_values(self):
        assert certified.int_nth_root(0, 3) == 0
        assert certified.int_nth_root(1, 7) == 1
        assert certified.int_nth_root(8, 3) == 2
        assert certified.int_nth_root(80, 3) == 4
        assert certified.int_nth_root(81, 4) == 3

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 40),
           st.integers(min_value=1, max_value=12))
    def test_floor_property(self, x, n):
        r = certified.int_nth_root(x, n)
        assert r ** n <= x < (r + 1) ** n

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            certified.int_nth_root(-1, 2)


class TestRootBracket:
    def test_sqrt19_against_decimal_oracle(self):
        lo, hi = root_fractions(Fraction(19), 2, 48)
        true = decimal_pow(Fraction(19), Fraction(1, 2))
        assert lo <= true <= hi
        assert hi - lo <= Fraction(1, 2 ** 46)

    def test_perfect_square_exact(self):
        assert certified.root_bracket(Fraction(9, 4), 2, 40) == ((3, 2),) * 2

    def test_perfect_cube_exact(self):
        assert certified.root_bracket(Fraction(27, 8), 3, 40) == ((3, 2),) * 2

    def test_unit_fixed_point(self):
        assert certified.root_bracket(Fraction(1), 5, 40) == ((1, 1), (1, 1))

    def test_ends_are_reduced_int_pairs(self):
        lo, hi = certified.root_bracket(Fraction(2), 2, 8)
        # 362/256 reduces, 363/256 does not
        assert (lo, hi) == ((181, 128), (363, 256))
        assert certified.root_bracket(Fraction(0), 3, 8) == ((0, 1), (0, 1))


class TestPowBracket:
    @pytest.mark.parametrize("base,expo", [
        (Fraction(2), Fraction(1, 2)),
        (Fraction(19, 7), Fraction(3, 2)),
        (Fraction(5, 3), Fraction(2, 3)),
        (Fraction(1, 10), Fraction(5, 7)),
        (Fraction(42), Fraction(7, 3)),
    ])
    def test_small_exponents_contain_oracle(self, base, expo):
        lo, hi = pow_bracket(base, expo, 48)
        true = decimal_pow(base, expo)
        assert lo <= true <= hi
        assert hi - lo <= Fraction(1, 2 ** 44)

    @pytest.mark.parametrize("base", [Fraction(2), Fraction(1, 2), Fraction(7, 5)])
    def test_chain_path_large_denominator(self, base):
        # denominator 2**20 forces the nested square-root chain
        expo = Fraction(2 ** 21 - 1, 2 ** 20)
        lo, hi = pow_bracket(base, expo, 48)
        true = decimal_pow(base, expo)
        assert lo <= true <= hi
        assert hi - lo <= Fraction(1, 2 ** 44)

    def test_chain_path_non_dyadic_denominator(self):
        expo = Fraction(1, 3 ** 10)
        lo, hi = pow_bracket(Fraction(3), expo, 48)
        true = decimal_pow(Fraction(3), expo)
        assert lo <= true <= hi

    def test_exact_cases(self):
        assert pow_bracket(Fraction(16), Fraction(3, 4), 40) == (8, 8)
        assert pow_bracket(Fraction(5), Fraction(0), 40) == (1, 1)
        assert pow_bracket(Fraction(0), Fraction(7, 2), 40) == (0, 0)
        assert pow_bracket(Fraction(9), Fraction(3), 40) == (729, 729)

    def test_exactness_is_decided_before_the_integer_factor(self,
                                                            monkeypatch):
        # the chain bracket [4/9, 1] times (3/2)**2 = 9/4 is [1, 9/4]: its
        # rescaled lower end equals the unscaled upper end, which must not
        # make the bracket exact
        monkeypatch.setattr(certified, "_pow_via_chain",
                            lambda num, den, u, v, bits: (4, 9, 1, 1))
        assert certified.pow_ends(Fraction(3, 2), Fraction(131, 65), 40) \
            == (1, 1, 9, 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pow_bracket(Fraction(-1), Fraction(1, 2), 40)
        with pytest.raises(ValueError):
            pow_bracket(Fraction(2), Fraction(-1), 40)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(min_value=0, max_value=60,
                                 max_denominator=20), min_size=3, max_size=3),
           st.integers(min_value=2, max_value=5))
    def test_pow_roundtrip_bound(self, coords, n):
        # |mid(q**(1/n))**n - q| <= n (max + 1)**(n-1) root_tol
        cfg = ToleranceConfig()
        allowance = n * (max(coords) + 1) ** (n - 1) * cfg.root_tol
        for q in coords:
            e = certified.pow_ends(q, Fraction(1, n), cfg.root_bits + 2)
            assert abs(certified.mid(e) ** n - q) <= allowance


def fraction_chain(q, frac_exp, bits, rounds=None):
    """Reference power chain: interval products on Fraction pairs and
    two-sided root brackets at every level.  ``rounds`` collects how many
    widening rounds each call took."""
    work_bits = bits + 24
    levels = bits + 8
    target = Fraction(1, 1 << bits)
    n_rounds = 0
    while True:
        n_rounds += 1
        scaled = frac_exp * (1 << levels)
        k = int(scaled)
        residual_exact = scaled == k
        chain = []
        cur = (q, q)
        for _ in range(levels):
            cur = (root_fractions(cur[0], 2, work_bits)[0],
                   root_fractions(cur[1], 2, work_bits)[1])
            chain.append(cur)
        prod = (Fraction(1), Fraction(1))
        for i in range(levels):
            if (k >> (levels - 1 - i)) & 1:
                prod = imul(prod, chain[i])
        if not residual_exact:
            last = chain[-1]
            prod = imul(prod, (min(Fraction(1), last[0]),
                               max(Fraction(1), last[1])))
        if prod[1] - prod[0] <= target:
            if rounds is not None:
                rounds.append(n_rounds)
            return prod
        work_bits += 32
        levels += 16


def fraction_ipow_frac(a, r, bits):
    """Reference bracket of x ** r over x in a: one pow_bracket per
    endpoint."""
    return (pow_bracket(a[0], r, bits)[0],
            pow_bracket(a[1], r, bits)[1])


def _chain_grid():
    rng = random.Random(20240906)
    cases = [
        # exact rational squares at the first levels: the chain starts
        # non-dyadic (4/9 -> 2/3, 16/81 -> 4/9 -> 2/3)
        (Fraction(4, 9), Fraction(1, 3 ** 10), 42),
        (Fraction(16, 81), Fraction(37, 65), 42),
        (Fraction(16, 81), Fraction(999, 1000), 20),
        (Fraction(9, 4), Fraction(3, 2 ** 20), 42),
        # dyadic exponents: the truncated expansion is exact, no residual
        (Fraction(7, 5), Fraction(2 ** 20 - 1, 2 ** 20), 42),
        (Fraction(3, 10), Fraction(5, 2 ** 12), 20),
        # a 64-bit prime near 2**64 needs more levels than the first round
        (Fraction(2 ** 64 - 59), Fraction(999, 1000), 42),
        (Fraction(1, 2 ** 64 - 59), Fraction(1, 65), 20),
        # a round whose width lies within a factor two of 2**-bits
        (Fraction(24919), Fraction(22342, 3 ** 10), 20),
    ]
    for _ in range(10):
        num = rng.getrandbits(64) | 1
        den = rng.getrandbits(64) | 1
        q = Fraction(min(num, den), max(num, den))   # q < 1
        if rng.random() < 0.5:
            q = 1 / q                                # q > 1
        den_exp = rng.choice([3 ** 10, 65, 1000])
        frac_exp = Fraction(rng.randrange(1, den_exp), den_exp)
        cases.append((q, frac_exp, rng.choice([20, 42])))
    cases += [
        # exact roots for several levels, then fixed point: 2**256 and
        # 2**64 are t / 2**w from the base on, the exact roots of 2**-200
        # have denominators above 2**w for two levels
        (Fraction(2 ** 256), Fraction(999, 1000), 42),
        (Fraction(1, 2 ** 200), Fraction(37, 65), 42),
        (Fraction(2 ** 64), Fraction(22342, 3 ** 10), 20),
        # a perfect square with an odd denominator: four exact levels
        (Fraction(2 ** 32, 3 ** 16), Fraction(1, 65), 42),
        (Fraction(3 ** 40, 2049), Fraction(40, 81), 42),
    ]
    return cases


def fraction_chain_ends(num, den, u, v, bits):
    """``fraction_chain`` with the integer arguments and ends of the
    chain."""
    lo, hi = fraction_chain(Fraction(num, den), Fraction(u, v), bits)
    return lo.numerator, lo.denominator, hi.numerator, hi.denominator


def _chain_brackets(cases):
    out = []
    for q, frac_exp, bits in cases:
        ln, ld, hn, hd = certified._pow_via_chain(
            q.numerator, q.denominator, frac_exp.numerator,
            frac_exp.denominator, bits)
        out.append((Fraction(ln, ld), Fraction(hn, hd)))
    return out


def ladder_fractions(ladder, work_bits):
    """``certified._sqrt_ladder``'s columns as per-level (lo, hi)
    fractions: the levels past the denominators are over 2**work_bits."""
    lows, highs, dens = ladder
    dens = dens + (1 << work_bits,) * (len(lows) - len(dens))
    return [(Fraction(ln, d), Fraction(hn, d))
            for ln, hn, d in zip(lows, highs, dens, strict=True)]


class TestPowChainOracle:
    """The integer chain must return exactly the reference chain's
    rationals, not merely a valid bracket."""

    def test_chain_matches_reference(self):
        rounds = []
        grid = _chain_grid()
        expected = [fraction_chain(q, frac_exp, bits, rounds)
                    for q, frac_exp, bits in grid]
        certified._sqrt_ladder.cache_clear()
        assert _chain_brackets(grid) == expected
        assert max(rounds) > 1   # the widening loop was exercised

    def test_pow_bracket_and_ipow_frac_match_reference(self, monkeypatch):
        # pow_ends and ipow_ends, given fractions or reduced integer pairs,
        # against the same powers over the Fraction chain
        for q, frac_exp, bits in _chain_grid()[:12]:
            r = 1 + frac_exp
            top = q + Fraction(1, 3)
            pair = (q.numerator, q.denominator)
            actual = [certified.pow_ends(q, r, bits),
                      certified.pow_ends(pair, r, bits),
                      certified.ipow_ends(q, q, r, bits),
                      certified.ipow_ends(pair, pair, r, bits),
                      certified.ipow_ends(q, top, r, bits),
                      certified.ipow_ends(
                          pair, (top.numerator, top.denominator), r, bits)]
            with monkeypatch.context() as m:
                m.setattr(certified, "_pow_via_chain", fraction_chain_ends)
                power = pow_bracket(q, r, bits)
                wide = fraction_ipow_frac((q, top), r, bits)
            expected = [ends_of(power)] * 4 + [ends_of(wide)] * 2
            assert actual == expected, (q, r, bits)


class TestSqrtLadder:
    """The memoised ladder must not change a bracket: the chain gives the
    same rationals from a cold cache, a warm one, and in any call order."""

    @staticmethod
    def _grid():
        # every base also at 16 more bits: its first round asks for as many
        # levels as the coarser call's second round, at another precision
        return [(q, e, b) for q, e, bits in _chain_grid()
                for b in (bits, bits + 16)]

    def test_cold_warm_and_reversed_agree(self):
        grid = self._grid()
        cold = []
        for case in grid:
            certified._sqrt_ladder.cache_clear()
            cold += _chain_brackets([case])
        certified._sqrt_ladder.cache_clear()
        first = _chain_brackets(grid)
        warm = _chain_brackets(grid)
        certified._sqrt_ladder.cache_clear()
        backwards = _chain_brackets(grid[::-1])[::-1]
        assert first == cold
        assert warm == cold
        assert backwards == cold

    def test_one_ladder_per_base_across_the_bootstrap_exponents(self):
        # s_n = sum_{k <= n} 3**-k has denominator 3**n > 64 from n = 4 on
        certified._sqrt_ladder.cache_clear()
        q = Fraction(5, 7)
        s, power = Fraction(0), Fraction(1)
        for n in range(13):
            s += power
            power /= 3
            if n >= 4:
                pow_bracket(q, s, 42)
        info = certified._sqrt_ladder.cache_info()
        assert (info.misses, info.hits) == (1, 8)

    def test_ladder_levels_and_precision(self):
        ladder = certified._sqrt_ladder(2, 1, 40, 30)
        assert len(ladder_fractions(ladder, 40)) == 30
        assert certified._sqrt_ladder(2, 1, 72, 30) != ladder
        lo, hi = Fraction(2), Fraction(2)
        for level in ladder_fractions(ladder, 40):
            lo = root_fractions(lo, 2, 40)[0]
            hi = root_fractions(hi, 2, 40)[1]
            assert level == (lo, hi)

    @pytest.mark.parametrize("q,exact_levels,prefix", [
        (Fraction(2), 0, 0),                   # t / 2**w from the base on
        (Fraction(2 ** 256), 8, 0),
        (Fraction(4, 9), 1, 1),                # 2/3, then fixed point
        (Fraction(2 ** 32, 3 ** 16), 4, 4),
        (Fraction(1, 2 ** 200), 3, 2),         # 2**100, 2**50 > 2**44
        (Fraction(3 ** 256, 5 ** 256), 8, 8),  # exact to the last level
        (Fraction(0), 8, 0),
    ])
    def test_fixed_point_starts_where_a_side_is_t_over_2_to_the_w(
            self, q, exact_levels, prefix):
        w = 44
        ladder = certified._sqrt_ladder(q.numerator, q.denominator, w, 8)
        assert len(ladder[2]) == prefix
        lo = hi = q
        for i, level in enumerate(ladder_fractions(ladder, w)):
            lo = root_fractions(lo, 2, w)[0]
            hi = root_fractions(hi, 2, w)[1]
            assert level == (lo, hi)
            assert (lo == hi) == (i < exact_levels)

    @pytest.mark.parametrize("q", [Fraction(3 ** 256, 5 ** 256),
                                   Fraction(5 ** 256, 3 ** 256)])
    def test_chain_on_a_ladder_without_fixed_point(self, q):
        # at bits = 0 the first round has 8 levels, all exact with the
        # denominators 5**128 .. 5 (or 3**128 .. 3): the widening by the
        # last level reads its denominator from the ladder
        certified._sqrt_ladder.cache_clear()
        for frac_exp in (Fraction(1, 3), Fraction(255, 256)):
            assert _chain_brackets([(q, frac_exp, 0)]) \
                == [fraction_chain(q, frac_exp, 0)]


class TestPowEndsThroughTheChain:
    def test_large_base_at_a_non_dyadic_exponent(self, monkeypatch):
        # 3**40/2049 ** (121/81): the integer factor raises the chain's
        # precision by the bits of 3**40/2049
        q, r = Fraction(3 ** 40, 2049), Fraction(121, 81)
        certified._sqrt_ladder.cache_clear()
        actual = certified.pow_ends(q, r, 42)
        with monkeypatch.context() as m:
            m.setattr(certified, "_pow_via_chain", fraction_chain_ends)
            expected = certified.pow_ends(q, r, 42)
        assert actual == expected
        lo, hi = fractions_of(actual)
        assert lo <= decimal_pow(q, r, 90) <= hi
        assert lo < hi


class TestIntervalOps:
    def test_mul_signs(self):
        a = ends_of((Fraction(-2), Fraction(3)))
        b = ends_of((Fraction(-5), Fraction(1)))
        assert certified.mul(a, b) == (-15, 1, 10, 1)

    def test_abs(self):
        assert certified.iabs(ends_of((Fraction(-3), Fraction(-1)))) \
            == (1, 1, 3, 1)
        assert certified.iabs(ends_of((Fraction(-2), Fraction(5)))) \
            == (0, 1, 5, 1)

    def test_leq_with_slack_semantics(self):
        exact = certified.exact
        ok, slack = certified.leq_with_slack(exact(1), exact(2), Fraction(0))
        assert ok and Fraction(*slack) == 1
        ok, _ = certified.leq_with_slack(exact(2), exact(1), Fraction(0))
        assert not ok
        ok, _ = certified.leq_with_slack(exact(2), exact(2), Fraction(0))
        assert ok


# Fraction references for the integer-end primitives: the bracket
# arithmetic as it was computed on pairs of fractions.

def fraction_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def fraction_scale(a, c):
    return (a[0] * c, a[1] * c)


def fraction_abs(a):
    if a[0] >= 0:
        return a
    if a[1] <= 0:
        return (-a[1], -a[0])
    return (Fraction(0), max(-a[0], a[1]))


def fraction_max(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]))


def fraction_mid(a):
    return a[0] if a[0] == a[1] else (a[0] + a[1]) / 2


def fraction_leq(lhs, rhs, tol):
    slack = rhs[1] - lhs[0]
    return slack >= -tol, slack


def fraction_eq(lhs, rhs, tol):
    gap = abs(fraction_mid(lhs) - fraction_mid(rhs))
    return gap <= tol, gap


_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=10 ** 6)
_tolerances = st.sampled_from([Fraction(0), Fraction(1, 2 ** 30),
                               Fraction(1, 3), Fraction(2)])


@st.composite
def brackets(draw):
    """A Fraction bracket: mixed signs, zero among its ends, exact (one
    rational twice) or inexact."""
    lo = draw(st.one_of(st.just(Fraction(0)), _rationals))
    if draw(st.booleans()):
        return (lo, lo)
    hi = draw(st.one_of(st.just(Fraction(0)), _rationals))
    return (min(lo, hi), max(lo, hi))


@st.composite
def wide_ratios(draw):
    """(num, den) pairs past one machine word: den a factor up to 2**256
    times a power of two up to 2**6000, alone and with the factor, and num
    zero or a signed integer times its own power of two, so that either
    side may hold the shorter power."""
    shift = draw(st.integers(min_value=0, max_value=6000))
    factor = draw(st.integers(min_value=1, max_value=2 ** 256))
    num = draw(st.one_of(st.just(0), st.integers(
        min_value=-2 ** 300, max_value=2 ** 300))) << draw(
            st.integers(min_value=0, max_value=6000))
    return [(num, 1 << shift), (num, factor << shift)]


class TestEndsAgainstFractions:
    """Each integer-end primitive returns exactly the rationals, in lowest
    terms, of its Fraction reference."""

    @settings(max_examples=150, deadline=None)
    @given(brackets(), brackets())
    def test_add_mul_max(self, a, b):
        ea, eb = ends_of(a), ends_of(b)
        assert certified.add(ea, eb) == ends_of(fraction_add(a, b))
        assert certified.mul(ea, eb) == ends_of(imul(a, b))
        assert certified.imax(ea, eb) == ends_of(fraction_max(a, b))

    @settings(max_examples=150, deadline=None)
    @given(brackets(), st.fractions(min_value=0, max_value=40,
                                    max_denominator=10 ** 6))
    def test_scale(self, a, c):
        assert certified.scale(ends_of(a), c.numerator, c.denominator) \
            == ends_of(fraction_scale(a, c))

    @settings(max_examples=150, deadline=None)
    @given(brackets())
    def test_abs_mid_interval_exactness(self, a):
        e = ends_of(a)
        assert certified.iabs(e) == ends_of(fraction_abs(a))
        assert certified.mid(e) == fraction_mid(a)
        assert fractions_of(e) == a
        assert certified.is_exact(e) == (a[0] == a[1])
        assert certified.tol_for(Fraction(1, 7), [e]) \
            == (0 if a[0] == a[1] else Fraction(1, 7))

    @settings(max_examples=150, deadline=None)
    @given(brackets(), brackets(), _tolerances)
    def test_comparisons(self, a, b, tol):
        ok, slack = certified.leq_with_slack(ends_of(a), ends_of(b), tol)
        assert (ok, Fraction(*slack)) == fraction_leq(a, b, tol)
        ok, gap = certified.eq_within(ends_of(a), ends_of(b), tol)
        assert (ok, Fraction(*gap)) == fraction_eq(a, b, tol)

    @settings(max_examples=150, deadline=None)
    @given(wide_ratios())
    def test_reduced(self, pairs):
        # a denominator ending in 64 or more zero bits sheds the power of
        # two it shares with the numerator by a shift and takes the gcd
        # against its odd part only; any other takes the plain gcd
        for num, den in pairs:
            q = Fraction(num, den)
            got = certified.reduced(num, den)
            assert got == (q.numerator, q.denominator)
            assert got[1] > 0 and math.gcd(*got) == 1

    @settings(max_examples=150, deadline=None)
    @given(wide_ratios(), wide_ratios())
    def test_mul_past_one_word(self, a_pairs, b_pairs):
        for a, b in zip(a_pairs, b_pairs):
            a, b = Fraction(*a), Fraction(*b)
            got = certified._mul(a.numerator, a.denominator,
                                 b.numerator, b.denominator)
            assert got == ((a * b).numerator, (a * b).denominator)
            assert got[1] > 0 and math.gcd(*got) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
               st.integers(min_value=-10 ** 12, max_value=10 ** 12),
               st.integers(min_value=1, max_value=10 ** 9)), max_size=6))
    def test_common_denominator_sum(self, terms):
        nums = [n for n, _ in terms]
        dens = [d for _, d in terms]
        total = sum((Fraction(n, d) for n, d in terms), Fraction(0))
        assert Fraction(*certified.common_denominator_sum(nums, dens)) \
            == total


# The root kernel as it was before the single-root bracket, the even-order
# square-root descent and the exact-bracket midpoint; the class below
# checks that the current kernel returns exactly what these returned.

def previous_int_nth_root(x, n):
    if x in (0, 1) or n == 1:
        return x
    if n == 2:
        return math.isqrt(x)
    if x.bit_length() <= n:
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


def previous_root_bracket(q, n, bits):
    num, den = q.numerator, q.denominator
    if num == 0 or num == den or n == 1:
        return (q, q)
    rn = previous_int_nth_root(num, n)
    if rn ** n == num:
        rd = previous_int_nth_root(den, n)
        if rd ** n == den:
            ex = Fraction(rn, rd)
            return (ex, ex)
    scaled = num << (bits * n)
    t_lo = previous_int_nth_root(scaled // den, n)
    t_hi = previous_int_nth_root(-(-scaled // den), n) + 1
    scale = 1 << bits
    return (Fraction(t_lo, scale), Fraction(t_hi, scale))


def previous_mid(iv):
    return (iv[0] + iv[1]) / 2


def _radicands(rng, count):
    """Random integers with perfect powers and perfect powers +- 1 mixed in."""
    out = []
    for _ in range(count):
        n = rng.randint(1, 12)
        r = rng.getrandbits(rng.randint(1, 90))
        x = r ** n + rng.choice((-1, 0, 0, 1, rng.getrandbits(40)))
        out.append((max(x, 0), n))
    return out


def _odd_order_radicands(rng):
    """Odd orders 27 to 729, whose Newton iteration starts from a float
    seed: radicands up to about 5,000 bits with perfect powers and perfect
    powers +- 1 among them, and the roots 1 to 3 at every order, where a
    seed below the root would overshoot by about (root / seed) ** (n - 1)."""
    out = []
    for n in (27, 81, 243, 729):
        out += [(r ** n + d, n) for r in (1, 2, 3) for d in (-1, 0, 1)]
        for _ in range(100):
            r = rng.getrandbits(rng.randint(2, 5000 // n))
            out += [(max(r ** n + d, 0), n) for d in (-1, 0, 1)]
            out.append((rng.getrandbits(rng.randint(1, 5000)), n))
    return out


class TestRootKernelAgainstPrevious:
    def test_int_nth_root(self):
        rng = random.Random(1401)
        for x, n in _radicands(rng, 3000) + _odd_order_radicands(rng):
            assert certified.int_nth_root(x, n) == \
                previous_int_nth_root(x, n), (x, n)

    def test_root_bracket(self):
        rng = random.Random(1402)
        cases = 0
        for (a, n), (b, _) in zip(_radicands(rng, 2000),
                                  _radicands(rng, 2000)):
            q = Fraction(a, b or 1)
            bits = rng.choice((8, 20, 42, 64))
            got = certified.root_bracket(q, n, bits)
            want = previous_root_bracket(q, n, bits)
            assert tuple(Fraction(*end) for end in got) == want
            # each end a reduced int pair
            assert all(type(num) is int and type(den) is int and den > 0
                       and math.gcd(num, den) == 1 for num, den in got)
            cases += 1
        assert cases == 2000

    def test_root_bracket_upper_end_on_perfect_power_ceilings(self):
        # q * 2**(bits*n) just below the perfect power t**n: its ceiling is
        # t**n, whose root t is one above the floor's, so the upper end is
        # two steps above the lower one
        for bits in (0, 3, 8):
            for n in (2, 3, 4, 5, 6):
                for t in (3, 17, 100):
                    scale = 1 << (bits * n)
                    den = scale + 1
                    q = Fraction((t ** n - 1) * den // scale + 1, den)
                    got = root_fractions(q, n, bits)
                    assert got == previous_root_bracket(q, n, bits)
                    assert got[1] - got[0] == Fraction(2, 1 << bits)

    def test_mid(self):
        rng = random.Random(1403)
        for _ in range(2000):
            lo = Fraction(rng.randint(-10 ** 9, 10 ** 9),
                          rng.randint(1, 10 ** 6))
            for iv in ((lo, lo), (lo, Fraction(lo.numerator, lo.denominator)),
                       (lo, lo + Fraction(1, rng.randint(1, 10 ** 6)))):
                got = certified.mid(ends_of(iv))
                assert got == previous_mid(iv) and type(got) is Fraction
