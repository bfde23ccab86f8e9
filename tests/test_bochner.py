import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lbochner import bochner, certified
from lbochner.bochner import (
    INF,
    LFunction,
    TruncatedSequenceSpec,
    check_chebyshev_step,
    check_holder,
    check_minkowski,
    conjugate_exponent,
    integrate,
    integrate_over,
    lp_from_atom_ends,
    lp_norm,
    run_completeness_harness,
    run_dct_experiment,
    verify_sup_representation,
)
from lbochner.falgebra import DEFAULT_TOLERANCES, LElement, ToleranceConfig
from lbochner.lmodule import (
    ModuleSpace,
    ModuleVector,
    NormKind,
    collapse,
    norm_ends,
)
from lbochner.measure import MeasureSpace, SpaceMismatch, TooManySubsets
from lbochner.sampling import random_measure_space, random_module_vector, rng_for
from support import basis_vector, first_envelope_violation, subset_of_names


def L(*coords):
    return LElement(list(coords))


def fractions_of(e):
    """Integer ends as a pair of fractions."""
    return (Fraction(e[0], e[1]), Fraction(e[2], e[3]))


def ends_of(iv):
    """A pair of fractions as integer ends."""
    lo, hi = iv
    return (lo.numerator, lo.denominator, hi.numerator, hi.denominator)


def value_brackets(value):
    """A norm result, an exact element or a tuple of ``ApproxReal``s, as
    one pair of fractions per coordinate."""
    if isinstance(value, LElement):
        return [(q, q) for q in value.coords]
    return [(a.value - a.abs_error_bound, a.value + a.abs_error_bound)
            for a in value]


def dec_sqrt(q: Fraction) -> Fraction:
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return Fraction((decimal.Decimal(q.numerator)
                         / decimal.Decimal(q.denominator)).sqrt())


MOD = ModuleSpace(1, 2, NormKind.SUP)


def fn(space, *vectors):
    return LFunction(space, MOD, tuple(
        ModuleVector(MOD, (v,)) for v in vectors))


@pytest.fixture
def base():
    # d=2, k=1, S={a,b}, mu=(1,2), f(a)=(1,2), f(b)=(3,1)
    space = MeasureSpace.build(["a", "b"], [1, 2])
    return space, fn(space, L(1, 2), L(3, 1))


class TestExponents:
    def test_conjugates(self):
        assert conjugate_exponent(Fraction(1)) is INF
        assert conjugate_exponent(INF) == 1
        assert conjugate_exponent(Fraction(2)) == 2
        assert conjugate_exponent(Fraction(3)) == Fraction(3, 2)


class TestIntegrate:
    def test_example(self, base):
        space, f = base
        assert integrate(f).entries[0] == L(7, 4)

    def test_zero_function(self, base):
        space, _ = base
        assert integrate(LFunction.zero(space, MOD)).entries[0] == L(0, 0)

    def test_integrate_over(self, base):
        space, f = base
        assert integrate_over(f, space.full_set()) == integrate(f)
        assert integrate_over(f, space.subset(())).entries[0] == L(0, 0)
        a = subset_of_names(space, ["a"])
        assert integrate_over(f, a).entries[0] == L(1, 2)

    def test_linearity_random(self):
        rng = rng_for(31, 1)
        space = MeasureSpace.build(["a", "b", "c"], [1, "1/3", 2])
        codomain = ModuleSpace(2, 2, NormKind.SUP)
        for _ in range(100):
            from lbochner.sampling import random_lelement
            f = LFunction(space, codomain, tuple(
                random_module_vector(rng, codomain) for _ in range(3)))
            g = LFunction(space, codomain, tuple(
                random_module_vector(rng, codomain) for _ in range(3)))
            alpha = random_lelement(rng, 2)
            lhs = integrate(f.scale(alpha) + g)
            rhs_f = integrate(f)
            rhs = ModuleVector(codomain, tuple(
                alpha * e for e in rhs_f.entries)) + integrate(g)
            assert lhs == rhs

    def test_triangle_bound_exact(self):
        from lbochner.lmodule import norm
        rng = rng_for(32, 2)
        space = MeasureSpace.build(["a", "b", "c"], [1, "1/3", 2])
        for kind in (NormKind.SUP, NormKind.ONE):
            codomain = ModuleSpace(2, 2, kind)
            p = Fraction(1)
            for _ in range(100):
                f = LFunction(space, codomain, tuple(
                    random_module_vector(rng, codomain) for _ in range(3)))
                assert norm(integrate(f)) <= lp_norm(f, p)


class TestLpNorm:
    def test_p1_equals_integral_of_modulus(self, base):
        space, f = base
        p = Fraction(1)
        assert lp_norm(f, p) == L(7, 4)

    def test_p2_example_against_sqrt_oracle(self, base):
        space, f = base
        p = Fraction(2)
        got = value_brackets(lp_norm(f, p))
        for iv, target in zip(got, (Fraction(19), Fraction(6))):
            true = dec_sqrt(target)
            assert iv[0] <= true <= iv[1]

    def test_ess_sup_excludes_null_atoms(self):
        space = MeasureSpace.build(["a", "b", "c"], [1, 2, 0])
        f = fn(space, L(1, 1), L(2, 5), L(9, 9))
        p = INF
        assert lp_norm(f, p) == L(2, 5)

    def test_homogeneity_exact_p1(self):
        space = MeasureSpace.build(["a", "b"], [1, "2/3"])
        f = fn(space, L(1, -2), L("4/7", 3))
        p = Fraction(1)
        doubled = f.scale_rational(Fraction(-2))
        assert lp_norm(doubled, p) == lp_norm(f, p).scale(2)


class TestLpFromAtomNorms:
    # per atom, per coordinate; the null atom's bracket is negative, so
    # raising it to a power would raise ValueError
    NORMS = [[(3, 1, 3, 1), (1, 1, 1, 1)],
             [(-1, 1, 9, 1), (-1, 1, 9, 1)],
             [(4, 1, 4, 1), (0, 1, 0, 1)]]
    MASSES = [Fraction(1), Fraction(0), Fraction(1)]

    @pytest.mark.parametrize("p,expected", [
        (Fraction(1), [7, 1]),
        (Fraction(2), [5, 1]),  # sqrt(9 + 16), sqrt(1)
        (INF, [4, 1]),
    ], ids=["p1", "p2", "inf"])
    def test_null_atoms_skipped(self, p, expected):
        got = lp_from_atom_ends(self.NORMS, self.MASSES, p, ToleranceConfig())
        assert got == [certified.exact(q) for q in expected]

    def test_inf_starts_from_zero(self):
        got = lp_from_atom_ends(self.NORMS[1:2], [Fraction(0)], INF,
                                ToleranceConfig())
        assert got == [certified.exact(0)] * 2


# The Fraction code that the integer p-norm pipeline replaced, kept as the
# oracle the pipeline must reproduce rational for rational.

def fraction_root_bracket(q, n, bits):
    if q == 0 or q == 1 or n == 1:
        return (q, q)
    rn = certified.int_nth_root(q.numerator, n)
    rd = certified.int_nth_root(q.denominator, n)
    if rn ** n == q.numerator and rd ** n == q.denominator:
        return (Fraction(rn, rd),) * 2
    scale = 1 << bits
    scaled = q.numerator * scale ** n
    return (Fraction(certified.int_nth_root(scaled // q.denominator, n), scale),
            Fraction(certified.int_nth_root(-(-scaled // q.denominator), n)
                     + 1, scale))


def fraction_norm_intervals(entries, kind, bits):
    out = []
    for j in range(entries[0].dim):
        if kind is NormKind.SUP:
            best = max((abs(e[j]) for e in entries), default=Fraction(0))
            out.append((best, best))
        elif kind is NormKind.ONE:
            total = sum((abs(e[j]) for e in entries), Fraction(0))
            out.append((total, total))
        else:
            sq = sum((e[j] * e[j] for e in entries), Fraction(0))
            out.append(fraction_root_bracket(sq, 2, bits))
    return out


def fraction_pow_bracket(q, r, bits):
    if r == 0:
        return (Fraction(1), Fraction(1))
    if q == 0 or q == 1:
        return (q, q)
    int_part, frac_num = divmod(r.numerator, r.denominator)
    base = q ** int_part
    if frac_num == 0:
        return (base, base)
    if base > 1:
        bits += max(0, base.numerator.bit_length()
                    - base.denominator.bit_length()) + 2
    frac_exp = Fraction(frac_num, r.denominator)
    u, v = frac_exp.numerator, frac_exp.denominator
    size = (q.numerator.bit_length() + q.denominator.bit_length()) * u
    if v <= 64 and size <= 1 << 16:
        lo, hi = fraction_root_bracket(q ** u, v, bits + 4)
    else:
        ln, ld, hn, hd = certified._pow_via_chain(
            q.numerator, q.denominator, frac_num, r.denominator, bits + 2)
        lo, hi = Fraction(ln, ld), Fraction(hn, hd)
    return (lo * base, hi * base)


def fraction_ipow_frac(a, r, bits):
    if a[0] == a[1]:
        return fraction_pow_bracket(a[0], r, bits)
    return (fraction_pow_bracket(a[0], r, bits)[0],
            fraction_pow_bracket(a[1], r, bits)[1])


def fraction_power_sums(atom_norms, masses, s, bits):
    total = [(Fraction(0), Fraction(0))] * len(atom_norms[0])
    for norms, mass in zip(atom_norms, masses):
        if mass == 0:
            continue
        total = [(a[0] + mass * lo, a[1] + mass * hi)
                 for a, (lo, hi) in zip(
                     total, (fraction_ipow_frac(b, s, bits) for b in norms))]
    return total


def fraction_lp(atom_norms, masses, p, bits):
    if p is INF:
        out = [(Fraction(0), Fraction(0))] * len(atom_norms[0])
        for norms, mass in zip(atom_norms, masses):
            if mass != 0:
                out = [(max(a[0], b[0]), max(a[1], b[1]))
                       for a, b in zip(out, norms)]
        return out
    return [fraction_ipow_frac(iv, 1 / p, bits)
            for iv in fraction_power_sums(atom_norms, masses, p, bits)]


class TestPNormOracle:
    """norm_ends, pow_ends, power_sums_from_atom_ends and lp_from_atom_ends
    return exactly the Fraction code's brackets.  The
    grid has null atoms, an all-zero coordinate, 64-bit numerators, exact
    (sup, one) and wide (two, widened) brackets, integer and fractional
    exponents, and exponents whose denominator exceeds 64, which take the
    square-root chain."""

    CFG = ToleranceConfig()
    BITS = CFG.root_bits + 2
    MASSES = [Fraction(0), Fraction(1, 3), Fraction(2), Fraction(5, 7)]
    EXPONENTS = [Fraction(1), Fraction(2), Fraction(3), Fraction(3, 2),
                 Fraction(5, 2), Fraction(7, 4),
                 # bootstrap-style partial sums: denominators 81 and 100
                 sum((Fraction(1, 3 ** k) for k in range(5)), Fraction(0)),
                 Fraction(127, 100)]

    @staticmethod
    def _coordinate(rng):
        kind = rng.randrange(4)
        if kind == 0:
            return Fraction(0)
        if kind == 1:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return Fraction(rng.getrandbits(64) - (1 << 63),
                        rng.getrandbits(64 if kind == 2 else 8) | 1)

    def _atoms(self):
        """Per atom, the entries of its value; coordinate 2 is zero in
        every entry of every atom."""
        rng = random.Random(20240906)
        return [[LElement([self._coordinate(rng), self._coordinate(rng), 0])
                 for _ in range(rank)]
                for rank in (1, 2, 3, 2)]

    def _norm_intervals(self, entries, kind):
        space = ModuleSpace(len(entries), entries[0].dim, kind)
        return [fractions_of(e) for e in norm_ends(
            ModuleVector(space, tuple(entries)), self.CFG)]

    def _atom_norms(self, kind):
        return [self._norm_intervals(entries, kind)
                for entries in self._atoms()]

    @staticmethod
    def _widened(atom_norms):
        # wide brackets whose ends are both in lowest terms
        return [[(lo, hi + Fraction(1, 3)) for lo, hi in norms]
                for norms in atom_norms]

    @staticmethod
    def _ends(atom_norms):
        return [[ends_of(iv) for iv in norms] for norms in atom_norms]

    def _norm_grids(self):
        """(kind, atom norms) with exact (sup, one) and wide (two) brackets,
        and each widened."""
        for kind in NormKind:
            atom_norms = self._atom_norms(kind)
            yield kind, atom_norms
            yield kind, self._widened(atom_norms)

    @pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
    def test_norm_intervals(self, kind):
        for entries in self._atoms():
            assert (self._norm_intervals(entries, kind)
                    == fraction_norm_intervals(entries, kind, self.BITS))
        zero = [LElement.zero(3)] * 2
        assert self._norm_intervals(zero, kind) == [(0, 0)] * 3
        if kind is NormKind.TWO:
            assert any(lo != hi for norms in self._atom_norms(kind)
                       for lo, hi in norms)

    def test_pow_bracket(self):
        ends = {end for _, atom_norms in self._norm_grids()
                for norms in atom_norms for iv in norms for end in iv}
        cases = [(q, r) for r in self.EXPONENTS + [Fraction(0)]
                 for q in sorted(ends)]
        # above the exact-power bit cap: the chain at denominator 64
        cases.append((Fraction(3 ** 700, 2 ** 11 + 1), Fraction(63, 64)))
        for q, r in cases:
            want = ends_of(fraction_pow_bracket(q, r, self.BITS))
            assert certified.pow_ends(q, r, self.BITS) == want, (q, r)
            assert certified.pow_ends((q.numerator, q.denominator), r,
                                      self.BITS) == want, (q, r)

    @pytest.mark.parametrize("s", EXPONENTS, ids=str)
    def test_power_sums_and_lp(self, s):
        for kind, atom_norms in self._norm_grids():
            atom_ends = self._ends(atom_norms)
            got = bochner.power_sums_from_atom_ends(
                atom_ends, self.MASSES, s, self.CFG)
            assert got == [ends_of(iv) for iv in fraction_power_sums(
                atom_norms, self.MASSES, s, self.BITS)], kind
            assert (lp_from_atom_ends(atom_ends, self.MASSES, s, self.CFG)
                    == [ends_of(iv) for iv in fraction_lp(
                        atom_norms, self.MASSES, s, self.BITS)]), kind

    @settings(max_examples=150, deadline=None)
    @given(st.fractions(min_value=0, max_value=60, max_denominator=10 ** 4),
           st.fractions(min_value=0, max_value=40, max_denominator=10 ** 4),
           st.sampled_from([Fraction(0), Fraction(1), Fraction(3),
                            Fraction(1, 2), Fraction(5, 3), Fraction(7, 64),
                            Fraction(100, 67)]))
    def test_ipow_ends(self, lo, width, r):
        # exact and inexact bases, given as fractions or integer pairs,
        # against the Fraction code's bracket
        hi = lo + width
        want = ends_of(fraction_ipow_frac((lo, hi), r, 42))
        assert certified.ipow_ends(lo, hi, r, 42) == want
        assert certified.ipow_ends((lo.numerator, lo.denominator),
                                   (hi.numerator, hi.denominator),
                                   (r.numerator, r.denominator), 42) == want

    def test_inf_and_all_null(self):
        for kind, atom_norms in self._norm_grids():
            atom_ends = self._ends(atom_norms)
            assert (lp_from_atom_ends(atom_ends, self.MASSES, INF, self.CFG)
                    == [ends_of(iv) for iv in fraction_lp(
                        atom_norms, self.MASSES, INF, self.BITS)])
            null = [Fraction(0)] * len(self.MASSES)
            assert bochner.power_sums_from_atom_ends(
                atom_ends, null, Fraction(3, 2), self.CFG) \
                == [(0, 1, 0, 1)] * 3


class TestLpNormAgainstFractionPipeline:
    """lp_norm_ends on seeded functions finds the same rationals as the
    Fraction pipeline above: the norms, the power sums and the p-th roots
    all in fractions, sharing with the package only ``_pow_via_chain``
    (which ``test_certified.TestPowChainOracle`` pins to a Fraction chain).
    131/67 takes the chain both for the power sums (denominator 67) and for
    the root (exponent 67/131)."""

    CFG = ToleranceConfig()
    BITS = CFG.root_bits + 2

    @pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("p", [Fraction(1), Fraction(3, 2), Fraction(2),
                                   Fraction(3), Fraction(5, 2), INF,
                                   Fraction(131, 67)], ids=str)
    def test_seeded_functions(self, kind, p):
        codomain = ModuleSpace(2, 2, kind)
        for trial in range(4):
            rng = rng_for(1515, trial)
            space = random_measure_space(rng, 4, null_atoms=trial % 2)
            f = LFunction(space, codomain, tuple(
                random_module_vector(rng, codomain) for _ in range(4)))
            atom_norms = [fraction_norm_intervals(v.entries, kind, self.BITS)
                          for v in f.values]
            expected = fraction_lp(atom_norms, space.masses, p, self.BITS)
            got = bochner.lp_norm_ends(f, p, self.CFG)
            assert got == [ends_of(iv) for iv in expected], trial
            assert [fractions_of(e) for e in got] == expected


class TestSupRepresentation:
    def test_exhaustive_max_at_full_space(self, base):
        space, f = base
        rep = verify_sup_representation(f, Fraction(2))
        assert rep.passed
        assert rep.details["subsets"] == 4
        assert rep.details["max_at_full_space"] == L(19, 6)

    def test_zero_function(self, base):
        space, _ = base
        rep = verify_sup_representation(
            LFunction.zero(space, MOD), Fraction(1))
        assert rep.passed
        assert rep.details["max_at_full_space"] == L(0, 0)

    def test_single_atom_support(self):
        space = MeasureSpace.build(["a", "b", "c"], [1, 1, 1])
        f = fn(space, L(0, 0), L(2, 3), L(0, 0))
        rep = verify_sup_representation(f, Fraction(1))
        assert rep.passed

    def test_m10_exhaustive(self):
        rng = rng_for(33, 3)
        space = MeasureSpace.build([f"a{i}" for i in range(10)],
                                   [Fraction(i + 1, 7) for i in range(10)])
        f = LFunction(space, MOD, tuple(
            random_module_vector(rng, MOD) for _ in range(10)))
        rep = verify_sup_representation(f, Fraction(2))
        assert rep.passed
        assert rep.details["subsets"] == 1024


def interval_sup_rep(f, p, cfg):
    """The subset table as (lo, hi) Fraction brackets with every comparison
    lo(a) <= hi(b) + tol, as the checker computed it before its integer
    table; returns (verdict, max_at_full_space, pairs_checked).  The atom
    terms are weighted through ``certified.scale``, the seam the tests
    below corrupt."""
    m = f.space.size
    d = f.codomain.scalar_dim
    bits = cfg.root_bits + 2
    powers = [[fraction_ipow_frac(fractions_of(e), p, bits)
               for e in norm_ends(v, cfg)]
              for v in f.values]
    weighted = [[fractions_of(certified.scale(
                    ends_of(powers[t][j]),
                    f.space.masses[t].numerator,
                    f.space.masses[t].denominator))
                 for j in range(d)] for t in range(m)]
    zero = (Fraction(0), Fraction(0))
    sums = [[zero] * d for _ in range(1 << m)]
    for mask in range(1, 1 << m):
        low = (mask & -mask).bit_length() - 1
        prev = sums[mask ^ (1 << low)]
        sums[mask] = [(prev[j][0] + weighted[low][j][0],
                       prev[j][1] + weighted[low][j][1]) for j in range(d)]
    exact = all(lo == hi for row in powers for lo, hi in row)
    tol = Fraction(0) if exact else cfg.compare_tol
    full = (1 << m) - 1

    def leq(a, b):
        return all(sums[a][j][0] <= sums[b][j][1] + tol for j in range(d))

    passed = all(leq(mask, full) for mask in range(1 << m))
    passed = passed and all(leq(mask, mask | (1 << t))
                            for mask in range(1 << m) for t in range(m)
                            if not (mask >> t) & 1)
    pairs_checked = 0
    if passed and m <= 6:
        for mask in range(1 << m):
            sub = mask
            while True:
                passed = passed and leq(sub, mask)
                pairs_checked += 1
                if sub == 0:
                    break
                sub = (sub - 1) & mask
    return passed, collapse([ends_of(iv) for iv in sums[full]]), \
        pairs_checked


def table_sup_rep(f, p, cfg):
    """The sup-representation verdict as every comparison of its three
    passes on 2**m integer subset sums, in bitmask order, as the checker
    computed it before its closed-form decision; returns (passed, witness,
    pairs_checked, max_at_full_space)."""
    m, d = f.space.size, f.codomain.scalar_dim
    bits = cfg.root_bits + 2
    powers = [[certified.ipow_ends(e[:2], e[2:], p, bits)
               for e in norm_ends(v, cfg)] for v in f.values]
    weighted = [[certified.scale(e, q.numerator, q.denominator) for e in row]
                for row, q in zip(powers, f.space.masses)]
    tol = certified.tol_for(cfg.compare_tol, *powers)

    def table(terms):
        return [sum(x for i, x in enumerate(terms) if mask >> i & 1)
                for mask in range(1 << m)]

    lo, hi, at_full = [], [], []
    for j in range(d):
        column = [row[j] for row in weighted]
        den = math.lcm(tol.denominator, *(e[1] for e in column),
                       *(e[3] for e in column))
        tol_j = tol.numerator * den // tol.denominator
        lo.append(table([e[0] * den // e[1] for e in column]))
        hi.append(table([e[2] * den // e[3] for e in column]))
        at_full.append(ends_of((Fraction(lo[j][-1], den),
                                Fraction(hi[j][-1], den))))
        hi[j] = [s + tol_j for s in hi[j]]
    full = (1 << m) - 1

    def first_bad_coordinate(a, b):
        return next((j for j in range(d) if lo[j][a] > hi[j][b]), None)

    def verdict(witness, pairs_checked):
        return witness is None, witness, pairs_checked, collapse(at_full)

    for a in range(full + 1):
        j = first_bad_coordinate(a, full)
        if j is not None:
            return verdict({"subset_mask": a, "coordinate": j}, 0)
    for a in range(full + 1):
        for t in range(m):
            j = None if a >> t & 1 else first_bad_coordinate(a, a | 1 << t)
            if j is not None:
                return verdict({"subset_mask": a, "atom": t,
                                "coordinate": j}, 0)
    pairs_checked = 0
    if m <= 6:
        for b in range(full + 1):
            for a in range(b, -1, -1):
                if a & b != a:
                    continue
                pairs_checked += 1
                j = first_bad_coordinate(a, b)
                if j is not None:
                    return verdict({"subset_mask": a, "superset_mask": b,
                                    "coordinate": j}, pairs_checked)
    return verdict(None, pairs_checked)


class TestSupRepIntegerTable:
    """The integer table against the bracket table it replaced, the
    closed-form decision against the table and loop it stands in for, and
    the first-failure witnesses of the three passes."""

    @pytest.mark.parametrize("m,kind,rank,p,null_atoms", [
        (12, NormKind.SUP, 1, Fraction(2), 0),     # exact: tol = 0
        (8, NormKind.TWO, 2, Fraction(3, 2), 0),   # brackets: tol != 0
        (6, NormKind.TWO, 2, Fraction(3, 2), 1),   # pair pass, null atom
        (5, NormKind.ONE, 2, Fraction(3), 2),
        (4, NormKind.SUP, 1, Fraction(1), 1),
    ])
    def test_matches_interval_table(self, m, kind, rank, p, null_atoms):
        rng = rng_for(404, m, rank)
        codomain = ModuleSpace(rank, 2, kind)
        space = random_measure_space(rng, m, null_atoms=null_atoms)
        f = LFunction(space, codomain, tuple(
            random_module_vector(rng, codomain) for _ in range(m)))
        cfg = ToleranceConfig()
        rep = verify_sup_representation(f, p, cfg)
        passed, at_full, pairs_checked = interval_sup_rep(f, p, cfg)
        assert rep.passed and passed
        assert rep.details["max_at_full_space"] == at_full
        assert rep.details["pairs_checked"] == pairs_checked
        assert pairs_checked == (3 ** m if m <= 6 else 0)
        assert isinstance(at_full, LElement) == (kind is not NormKind.TWO)

    @pytest.mark.parametrize("depth", [Fraction(1, 2), Fraction(2)])
    def test_tolerance_rule_matches_leq_with_slack(self, monkeypatch, depth):
        # a term depth * tol below zero among bracketed ones: within the
        # tolerance it passes, beyond it fails, as leq_with_slack decides
        cfg = ToleranceConfig()
        codomain = ModuleSpace(2, 2, NormKind.TWO)
        space = MeasureSpace.build(["a", "b", "c", "d"], [1, 2, 3, 4])
        rng = rng_for(405)
        f = LFunction(space, codomain, tuple(
            random_module_vector(rng, codomain) for _ in range(4)))
        below = -depth * cfg.compare_tol
        self._corrupt(monkeypatch, {1: (below, below)})
        p = Fraction(3, 2)
        rep = verify_sup_representation(f, p, cfg)
        passed, at_full, _ = interval_sup_rep(f, p, cfg)
        assert rep.passed == passed == (depth < 1)
        assert rep.details["max_at_full_space"] == at_full

    @staticmethod
    def _corrupt(monkeypatch, by_mass):
        """Replace the weighted term of the atom with the given mass: in
        every coordinate under the key ``mass``, in the one coordinate
        whose power ends are ``e`` under the key ``(mass, e)``."""
        real = certified.scale

        def scale(a, cn, cd):
            c = Fraction(cn, cd)
            term = by_mass.get((c, a), by_mass.get(c))
            return (ends_of(term) if term is not None
                    else real(a, cn, cd))

        monkeypatch.setattr(certified, "scale", scale)

    @staticmethod
    def _count_tables(monkeypatch):
        """The sizes of the term lists ``subset_sums`` is called on."""
        built = []
        real = bochner.subset_sums

        def subset_sums(terms):
            built.append(len(terms))
            return real(terms)

        monkeypatch.setattr(bochner, "subset_sums", subset_sums)
        return built

    @staticmethod
    def _run(*norms):
        space = MeasureSpace.build(["a", "b", "c"][:len(norms)],
                                   range(1, len(norms) + 1))
        codomain = ModuleSpace(1, 1, NormKind.SUP)
        f = LFunction(space, codomain, tuple(
            ModuleVector(codomain, (L(n),)) for n in norms))
        return verify_sup_representation(f, Fraction(1))

    def test_negative_term_fails_against_full_space(self, monkeypatch):
        # terms -1, 2, 3: the full space sums to 4, and {b, c} (mask 6) is
        # the first subset above it
        self._corrupt(monkeypatch, {1: (Fraction(-1), Fraction(-1))})
        built = self._count_tables(monkeypatch)
        rep = self._run(1, 1, 1)
        assert not rep.passed
        assert built == [3, 3]  # one lo and one hi table
        assert rep.witness == {"subset_mask": 6, "coordinate": 0}
        assert rep.failures == 1

    def test_extension_pass_reports_first_failure(self, monkeypatch):
        # terms [0, 100], -1, 0: no subset exceeds the full space, and
        # adding b fails from {} (mask 0) and again from {c} (mask 4)
        self._corrupt(monkeypatch, {1: (Fraction(0), Fraction(100)),
                                    2: (Fraction(-1), Fraction(-1))})
        built = self._count_tables(monkeypatch)
        rep = self._run(1, 1, 0)
        assert not rep.passed
        assert built == [3, 3]  # one lo and one hi table
        assert rep.witness == {"subset_mask": 0, "atom": 1, "coordinate": 0}
        assert rep.details["pairs_checked"] == 0

    def test_pair_pass_reports_first_failure(self, monkeypatch):
        # an inverted bracket [5, 0] at a passes the first two passes but
        # not the pair ({a}, {a})
        self._corrupt(monkeypatch, {1: (Fraction(5), Fraction(0)),
                                    2: (Fraction(0), Fraction(10))})
        built = self._count_tables(monkeypatch)
        rep = self._run(1, 1)
        assert not rep.passed
        assert built == [2, 2]  # one lo and one hi table
        assert rep.witness == {"subset_mask": 1, "superset_mask": 1,
                               "coordinate": 0}
        assert rep.details["pairs_checked"] == 2

    TERMS = st.lists(st.one_of(st.none(), st.tuples(st.integers(-3, 8),
                                                    st.integers(-3, 8))),
                     min_size=21, max_size=21)

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 7), d=st.integers(1, 3), exact=st.booleans(),
           terms=TERMS)
    # three terms each tol/2 below zero: the whole space falls 3/2 tol
    # below the other atoms' subset, though no single extension fails
    @example(m=7, d=1, exact=False,
             terms=[(-1, -1), None, None] * 3 + [None] * 12)
    # a bracket [0, -tol] inverted by tol: it passes, with no table
    @example(m=3, d=1, exact=False, terms=[(0, -2)] + [None] * 20)
    def test_decision_matches_table_and_loop(self, m, d, exact, terms):
        # every atom takes the value (2, 3, 4)[:d]: p = 1 keeps the powers
        # exact (tol = 0), p = 3/2 brackets them (tol != 0).  terms[3t + j]
        # replaces atom t's term in coordinate j by a multiple of tol/2 (or
        # of 1) in -3..8, so terms go negative, brackets invert and sums
        # tie at exactly tol
        cfg = ToleranceConfig()
        codomain = ModuleSpace(1, d, NormKind.SUP)
        space = MeasureSpace.build([f"a{i}" for i in range(m)],
                                   range(1, m + 1))
        value = ModuleVector(codomain, (L(*range(2, d + 2)),))
        f = LFunction(space, codomain, (value,) * m)
        p = Fraction(1) if exact else Fraction(3, 2)
        unit = Fraction(1) if exact else cfg.compare_tol / 2
        power_ends = [certified.ipow_ends(e[:2], e[2:], p, cfg.root_bits + 2)
                      for e in norm_ends(value, cfg)]
        by_mass = {(mass, e): (ends[0] * unit, ends[1] * unit)
                   for t, mass in enumerate(space.masses)
                   for j, e in enumerate(power_ends)
                   if (ends := terms[3 * t + j]) is not None}
        with pytest.MonkeyPatch.context() as mp:
            self._corrupt(mp, by_mass)
            built = self._count_tables(mp)
            rep = verify_sup_representation(f, p, cfg)
            expected = table_sup_rep(f, p, cfg)
        assert (rep.passed, rep.witness, rep.details["pairs_checked"],
                rep.details["max_at_full_space"]) == expected
        # the tables are built exactly when a pass fails
        assert bool(built) != rep.passed

    def test_passing_check_builds_no_table(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a passing check built a subset table")

        monkeypatch.setattr(bochner, "subset_sums", unreachable)
        m = bochner.SUP_REP_MAX_ATOMS
        rng = rng_for(406)
        space = random_measure_space(rng, m)
        f = LFunction(space, MOD, tuple(
            random_module_vector(rng, MOD) for _ in range(m)))
        rep = verify_sup_representation(f, Fraction(3, 2))
        assert rep.passed
        assert rep.details["subsets"] == 65536
        assert rep.details["pairs_checked"] == 0

    def test_atom_cap_refused_before_allocation(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("table work started above the cap")

        monkeypatch.setattr(bochner, "subset_sums", unreachable)
        monkeypatch.setattr(certified, "ipow_ends", unreachable)
        m = bochner.SUP_REP_MAX_ATOMS + 1
        space = MeasureSpace.build([f"a{i}" for i in range(m)], [1] * m)
        f = LFunction.zero(space, MOD)
        with pytest.raises(TooManySubsets):
            verify_sup_representation(f, Fraction(2))
        assert issubclass(TooManySubsets, ValueError)


DUAL = MOD.dual()


def dual_fn(space, *vectors):
    """A dual function of ``fn``'s functions: into the dual of MOD."""
    return fn(space, *vectors).moved_to(DUAL)


class TestHolder:
    def test_p2_example_with_componentwise_oracle(self, base):
        # u as in the base fixture, v constant (1,1): the right side is
        # (sqrt(19)*sqrt(3), sqrt(6)*sqrt(3)) componentwise
        space, u = base
        v = dual_fn(space, L(1, 1), L(1, 1))
        rep = check_holder(u, v, Fraction(2))
        assert rep.passed
        lhs = value_brackets(rep.details["lhs"])
        rhs = value_brackets(rep.details["rhs"])
        assert lhs[0][0] == 7 and lhs[1][0] == 4
        for iv, prod in zip(rhs, (Fraction(57), Fraction(18))):
            true = dec_sqrt(prod)
            assert iv[0] <= true <= iv[1]

    def test_p1_with_unit_v_is_equality(self, base):
        space, u = base
        v = dual_fn(space, L(1, 1), L(1, 1))
        rep = check_holder(u, v, Fraction(1))
        assert rep.passed
        assert all(s == 0 for s in rep.details["slack"])

    def test_zero_function(self, base):
        space, u = base
        zero = LFunction.zero(space, DUAL)
        rep = check_holder(u, zero, Fraction(2))
        assert rep.passed
        assert value_brackets(rep.details["lhs"])[0] == (0, 0)

    def test_tight_for_aligned_pairs(self):
        # v = |u| sign-aligned at p = q = 2, rank one: equality up to brackets
        cfg = ToleranceConfig()
        rng = rng_for(34, 4)
        space = MeasureSpace.build(["a", "b", "c"], [1, "1/2", 2])
        for _ in range(50):
            u = LFunction(space, MOD, tuple(
                random_module_vector(rng, MOD) for _ in range(3)))
            from lbochner.falgebra import sgn
            v = LFunction(space, DUAL, tuple(
                ModuleVector(DUAL, (abs(val.entries[0]) * sgn(val.entries[0]),))
                for val in u.values))
            rep = check_holder(u, v, Fraction(2))
            assert rep.passed
            for s in rep.details["slack"]:
                assert abs(s) <= cfg.compare_tol

    def test_k2_uses_dual_norm_for_second_factor(self):
        # sup-normed u with all-ones entries: the pairing hits k, which
        # exceeds ||u|| ||v|| unless v is measured in the one-norm dual
        space = MeasureSpace.build(["a"], [1])
        codomain = ModuleSpace(2, 1, NormKind.SUP)
        ones = ModuleVector(codomain, (L(1), L(1)))
        u = LFunction(space, codomain, (ones,))
        rep = check_holder(u, u.moved_to(codomain.dual()), Fraction(1))
        assert rep.passed
        assert rep.details["rhs"] == L(2)

    @pytest.mark.parametrize("kind", [NormKind.SUP, NormKind.ONE])
    def test_v_outside_the_dual_module_refused(self, kind):
        # a v into u's own module is no dual function unless the kind is
        # self-dual; a v of another shape never is
        space = MeasureSpace.build(["a"], [1])
        codomain = ModuleSpace(2, 1, kind)
        u = LFunction(space, codomain, (basis_vector(codomain, 0),))
        other = ModuleSpace(1, 1, kind).dual()
        for v in (u, LFunction.zero(space, other)):
            with pytest.raises(SpaceMismatch, match="cannot be paired"):
                check_holder(u, v, Fraction(1))

    def test_two_norm_is_its_own_dual(self):
        space = MeasureSpace.build(["a"], [1])
        codomain = ModuleSpace(2, 1, NormKind.TWO)
        u = LFunction(space, codomain, (basis_vector(codomain, 0),))
        assert check_holder(u, u, Fraction(2)).passed


class TestMovedTo:
    def test_same_entries_new_codomain(self, base):
        space, f = base
        moved = f.moved_to(DUAL)
        assert moved.codomain == DUAL and moved.space == space
        assert [x.entries for x in moved.values] == \
            [x.entries for x in f.values]
        assert moved.moved_to(MOD) == f

    def test_other_shape_refused(self, base):
        _, f = base
        with pytest.raises(ValueError):
            f.moved_to(ModuleSpace(2, 2, NormKind.ONE))


class TestNegativeControls:
    """Each check FAILs through its own report, with a witness, when one of
    its two sides is corrupted."""

    def test_holder_fails_on_halved_right_side(self, base, monkeypatch):
        # moves the right-hand side only: u's norm is halved, so
        # ||u||_p * ||v||_q halves; the pairing integral does not use it.
        # At p = 1 with unit v the two sides are equal, so half fails.
        space, u = base
        real = bochner.lp_norm_ends

        def halved_for_u(f, p, cfg):
            brackets = real(f, p, cfg)
            if f is not u:
                return brackets
            return [certified.scale(e, 1, 2) for e in brackets]

        monkeypatch.setattr(bochner, "lp_norm_ends", halved_for_u)
        v = dual_fn(space, L(1, 1), L(1, 1))
        rep = check_holder(u, v, Fraction(1))
        assert not rep.passed
        assert rep.failures == 2
        assert rep.witness == {"coordinate": 0, "lhs": 7,
                               "rhs": Fraction(7, 2)}
        assert rep.details["rhs"] == L(Fraction(7, 2), 2)

    def test_minkowski_fails_on_doubled_summand(self, base, monkeypatch):
        # moves the left-hand side only: u + v becomes u + 2v, while
        # ||u||_p + ||v||_p are computed from u and v themselves.  With
        # v = u the left side is 3 ||u||_p against 2 ||u||_p.
        space, u = base
        real = LFunction.__add__
        monkeypatch.setattr(LFunction, "__add__",
                            lambda f, g: real(real(f, g), g))
        rep = check_minkowski(u, u, Fraction(1))
        assert not rep.passed
        assert rep.failures == 2
        assert rep.witness == {"coordinate": 0}
        assert rep.details["lhs"] == L(21, 12)
        assert rep.details["rhs"] == L(14, 8)

    @staticmethod
    def _zero_integrals(monkeypatch):
        # the integral of the atom norms reads 0 in every coordinate
        monkeypatch.setattr(
            bochner, "lp_from_atom_ends",
            lambda norms, masses, p, cfg: [certified.exact(0)]
            * len(norms[0]))

    def test_chebyshev_fails_on_zeroed_integral(self, base, monkeypatch):
        # moves the right-hand side only: the integral of ||h_n - h|| reads
        # 0, while gamma * mu([||h_n - h|| >= gamma]) comes from the atom
        # norms.  h_n - h is (2, 0) on atom a (mass 1) and 0 on b, so at
        # gamma = 1 coordinate 0 has 1 <= 2, read as 1 <= 0.
        space, h = base
        hn = fn(space, L(3, 2), L(3, 1))
        assert check_chebyshev_step([hn], h, Fraction(1)).passed
        self._zero_integrals(monkeypatch)
        rep = check_chebyshev_step([hn], h, Fraction(1))
        assert not rep.passed
        assert rep.failures == 1
        assert rep.witness == {"n": 0, "coordinate": 0, "level_measure": 1}

    def test_dct_fails_on_zeroed_bound(self, monkeypatch):
        # moves the right-hand side only: the integral of ||g_n - g|| reads
        # 0, so the bound is the tail allowance 2 * phi * tail = 1/2, while
        # the error ||integral(g_n) - integral(g)|| is computed from the
        # integrals themselves.  At n = 0 the error is (3/4, 1/4).
        space = MeasureSpace.build(["t1", "t2"], ["1/2", "1/4"])
        values = (ModuleVector(MOD, (L(1, 1),)),
                  ModuleVector(MOD, (L(1, -1),)))
        spec = TruncatedSequenceSpec(
            space=space, codomain=MOD,
            term=lambda n, t: values[t] if t < n else MOD.zero(),
            limit=LFunction(space, MOD, values), dominator=(L(1, 1),) * 2,
            scalar_bound=Fraction(1), tail_mass=Fraction(1, 4))
        assert run_dct_experiment(spec, 2).passed
        self._zero_integrals(monkeypatch)
        rep = run_dct_experiment(spec, 2)
        assert not rep.passed
        assert rep.failures == 1
        assert rep.witness == {"n": 0, "coordinate": 0}
        assert rep.series[0]["error"] == [Fraction(3, 4), Fraction(1, 4)]
        assert rep.series[0]["bound"] == [Fraction(1, 2)] * 2


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(0)], ids=str)
@pytest.mark.parametrize("call", [
    lambda f, p: lp_norm(f, p),
    lambda f, p: verify_sup_representation(f, p),
    lambda f, p: run_completeness_harness(f.space, f.codomain, p, seed=1,
                                          n_terms=2),
], ids=["lp_norm", "verify_sup_representation", "run_completeness_harness"])
def test_exponent_below_one_rejected(call, p, base):
    _, f = base
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        call(f, p)


class TestMinkowski:
    def test_v_equals_minus_u(self, base):
        space, u = base
        rep = check_minkowski(u, u.scale_rational(-1), Fraction(2))
        assert rep.passed
        assert value_brackets(rep.details["lhs"])[0] == (0, 0)

    def test_v_equals_u_is_equality(self, base):
        space, u = base
        rep = check_minkowski(u, u, Fraction(3))
        assert rep.passed

    @pytest.mark.parametrize("p", [Fraction(1), Fraction(2), Fraction(3)])
    def test_seeded_random_pairs(self, p):
        rng = rng_for(35, int(p))
        space = MeasureSpace.build(["a", "b", "c"], [1, "1/3", 2])
        for _ in range(100):
            u = LFunction(space, MOD, tuple(
                random_module_vector(rng, MOD) for _ in range(3)))
            v = LFunction(space, MOD, tuple(
                random_module_vector(rng, MOD) for _ in range(3)))
            assert check_minkowski(u, v, p).passed


class TestChebyshev:
    def test_spec_example(self):
        # d=1: mu=(1,1), differences (1/2, 1/20), gamma=1/10
        space = MeasureSpace.build(["a", "b"], [1, 1])
        mod1 = ModuleSpace(1, 1, NormKind.SUP)
        h = LFunction.zero(space, mod1)
        hn = LFunction(space, mod1, (
            ModuleVector(mod1, (L("1/2"),)),
            ModuleVector(mod1, (L("1/20"),)),
        ))
        rep = check_chebyshev_step([hn], h, Fraction(1, 10))
        assert rep.passed
        row = rep.series[0]
        assert row["level_measure"] == 1       # A = {a}
        assert row["integral"] == Fraction(11, 20)

    def test_equal_functions(self):
        space = MeasureSpace.build(["a", "b"], [1, 1])
        mod1 = ModuleSpace(1, 1, NormKind.SUP)
        h = LFunction.zero(space, mod1)
        rep = check_chebyshev_step([h], h, Fraction(1, 10))
        assert rep.passed
        assert rep.series[0]["level_measure"] == 0

    def test_constant_gamma_is_tight(self):
        space = MeasureSpace.build(["a", "b", "c"], [1, 2, "1/2"])
        mod1 = ModuleSpace(1, 1, NormKind.SUP)
        h = LFunction.zero(space, mod1)
        gamma = Fraction(3, 7)
        hn = LFunction(space, mod1, tuple(
            ModuleVector(mod1, (LElement([gamma]),)) for _ in range(3)))
        rep = check_chebyshev_step([hn], h, gamma)
        assert rep.passed
        assert rep.series[0]["slack"] == 0  # equality gamma*mu(S) = integral


def geometric_spec(seed, levels):
    from lbochner.cli import _dct_spec
    return _dct_spec(seed, levels)


class TestDct:
    def test_truncation_family_bound(self):
        spec = geometric_spec(5, 16)
        rep = run_dct_experiment(spec, 12)
        assert rep.passed
        # tail of the geometric masses: e_n <= 2**-n
        for row in rep.series:
            n = row["n"]
            for coord in row["error"]:
                assert coord <= Fraction(1, 2 ** n)

    def test_constant_sequence_zero_error(self):
        spec = geometric_spec(6, 10)
        stable = TruncatedSequenceSpec(
            space=spec.space, codomain=spec.codomain,
            term=lambda n, t: spec.limit.values[t],
            limit=spec.limit, dominator=spec.dominator,
            scalar_bound=spec.scalar_bound, tail_mass=spec.tail_mass)
        rep = run_dct_experiment(stable, 6)
        assert rep.passed
        for row in rep.series:
            assert all(c == 0 for c in row["error"])

    def test_dominator_violation_fails_with_witness(self):
        spec = geometric_spec(7, 8)
        small = TruncatedSequenceSpec(
            space=spec.space, codomain=spec.codomain, term=spec.term,
            limit=spec.limit,
            dominator=tuple(LElement(["1/1000", "1/1000"])
                            for _ in range(8)),
            scalar_bound=spec.scalar_bound, tail_mass=spec.tail_mass)
        rep = run_dct_experiment(small, 6)
        assert not rep.passed and rep.failures == 1
        # the first term whose sup norm leaves 1/1000 at some atom
        n, t = next((n, t) for n in range(7) for t in range(8)
                    if any(abs(c) > Fraction(1, 1000)
                           for c in spec.term(n, t).entries[0].coords))
        assert rep.witness == {"n": n, "atom": spec.space.atom_names[t],
                               "dominator_violated": True}
        assert [row["n"] for row in rep.series] == list(range(n))


class TestCompleteness:
    def test_exact_residuals_p1(self):
        space = MeasureSpace.build(["a", "b", "c"],
                                   [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        rep = run_completeness_harness(
            space, ModuleSpace(2, 2, NormKind.SUP), Fraction(1), seed=11,
            n_terms=8)
        assert rep.passed
        norm_w = rep.details["norm_w"]
        for row in rep.series:
            n = row["n"]
            expected = [q / 2 ** n for q in norm_w.coords]
            assert row["residual"] == expected

    @pytest.mark.parametrize("n_terms", [0, -3])
    def test_no_terms_refused_before_any_work(self, n_terms, monkeypatch):
        def unreachable(*args):
            raise AssertionError("harness work started without terms")

        monkeypatch.setattr(bochner, "lp_norm_ends", unreachable)
        monkeypatch.setattr(bochner, "rng_for", unreachable)
        space = MeasureSpace.build(["a"], [1])
        with pytest.raises(ValueError, match="n_terms must be >= 1"):
            run_completeness_harness(space, MOD, Fraction(1), seed=1,
                                     n_terms=n_terms)

    def test_distances_computed_once(self, monkeypatch):
        # one p-norm for w, one per pair a <= b, one residual per term; and
        # per coordinate one comparison per pair, after the anchor's two
        # Lyapunov inequalities and before one bound per residual
        real = bochner.lp_norm_ends
        real_leq = certified.leq_with_slack
        calls = []
        comparisons = []

        def counting(f, p, cfg):
            calls.append(f)
            return real(f, p, cfg)

        def counting_leq(lhs, rhs, tol):
            comparisons.append(len(calls))
            return real_leq(lhs, rhs, tol)

        monkeypatch.setattr(bochner, "lp_norm_ends", counting)
        monkeypatch.setattr(certified, "leq_with_slack", counting_leq)
        space = MeasureSpace.build(["a", "b"], ["1/2", "1/2"])
        rep = run_completeness_harness(space, MOD, Fraction(2), seed=3,
                                       n_terms=8)
        assert rep.passed
        pairs = 8 * 9 // 2
        assert len(calls) == 1 + pairs + 8
        d = MOD.scalar_dim
        # the comparisons made while the last distance was the latest norm
        pairwise = [n for n in comparisons if 1 < n <= 1 + pairs]
        assert len(pairwise) == pairs * d
        assert len(comparisons) == (2 + pairs + 8) * d

    def test_zero_direction_constant_sequence(self):
        # engineered via a harness-equivalent check: w = 0 means all terms
        # coincide, so every residual is zero
        space = MeasureSpace.build(["a"], [1])
        codomain = ModuleSpace(1, 1, NormKind.SUP)
        u_star = LFunction(space, codomain,
                           (ModuleVector(codomain, (L(3),)),))
        zero = LFunction.zero(space, codomain)
        terms = [u_star + zero.scale_rational(Fraction(1, 2 ** n))
                 for n in range(1, 5)]
        p = Fraction(1)
        for t in terms:
            assert lp_norm(u_star - t, p) == LElement.zero(1)



def completeness_inputs(space, codomain, seed, n_terms):
    """u*, w and the terms u_n = u* + 2**-n w, drawn as the harness draws
    them."""
    rng = rng_for(seed)
    u_star, w = (LFunction(space, codomain, tuple(
        random_module_vector(rng, codomain) for _ in range(space.size)))
        for _ in range(2))
    return u_star, w, [u_star + w.scale_rational(Fraction(1, 2 ** n))
                       for n in range(1, n_terms + 1)]


def reference_completeness_witness(space, codomain, p, seed, n_terms,
                                   cfg=DEFAULT_TOLERANCES):
    """The first witness of the harness's pairwise and pointwise stages by
    the long way: a table of every distance, every (k, a, b, coordinate)
    compared in that order, and the pointwise envelope certificate of
    ``support.first_envelope_violation``.  None when both stages pass."""
    u_star, w, terms = completeness_inputs(space, codomain, seed, n_terms)
    norm_w = bochner.lp_norm_ends(w, p, cfg)
    tol = certified.tol_for(cfg.compare_tol, norm_w)
    dist = {(a, b): bochner.lp_norm_ends(terms[a - 1] - terms[b - 1], p, cfg)
            for a in range(1, n_terms + 1) for b in range(a, n_terms + 1)}
    for k in range(1, n_terms + 1):
        eps = [certified.scale(e, 1, 2 ** (k - 1)) for e in norm_w]
        for a in range(k, n_terms + 1):
            for b in range(a, n_terms + 1):
                for j, e in enumerate(eps):
                    if not certified.leq_with_slack(dist[a, b][j], e, tol)[0]:
                        return {"stage": "pairwise", "k": k, "n": a, "m": b,
                                "coordinate": j}
    for t in range(space.size):
        for i in range(codomain.rank):
            wt = abs(w.values[t].entries[i])
            violation = first_envelope_violation(
                [term.values[t].entries[i] for term in terms],
                u_star.values[t].entries[i],
                [(wt.scale(Fraction(1, 2 ** n)), n - 1)
                 for n in range(1, n_terms + 1)])
            if violation is not None:
                return {"stage": "pointwise", "atom": t, "entry": i,
                        "violation": violation}
    return None


class TestCompletenessAgainstLongWay:
    """The harness decides each pair and each pointwise entry with one
    comparison; its verdict and witness are those of the long way."""

    SPACE = MeasureSpace.build(["a", "b", "c"], ["1/2", "1/3", "1/6"])

    @pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("p", [Fraction(1), Fraction(3, 2), Fraction(3)],
                             ids=str)
    def test_seeded_passing_cases(self, p, kind):
        codomain = ModuleSpace(2, 2, kind)
        for seed in range(3):
            assert reference_completeness_witness(
                self.SPACE, codomain, p, seed, 6) is None
            assert run_completeness_harness(
                self.SPACE, codomain, p, seed, 6).passed

    @pytest.mark.parametrize("factor", [Fraction(3, 2), Fraction(2),
                                        Fraction(7), Fraction(100)], ids=str)
    @pytest.mark.parametrize("a,b", [(1, 2), (2, 5), (4, 6)])
    @pytest.mark.parametrize("p", [Fraction(1), Fraction(2)], ids=str)
    def test_inflated_distance(self, p, a, b, factor, monkeypatch):
        codomain = ModuleSpace(2, 2, NormKind.SUP)
        _, _, terms = completeness_inputs(self.SPACE, codomain, 5, 6)
        target = terms[a - 1] - terms[b - 1]
        real = bochner.lp_norm_ends

        def inflated(f, p, cfg):
            ends = real(f, p, cfg)
            if f != target:
                return ends
            return [certified.scale(e, factor.numerator, factor.denominator)
                    for e in ends]

        monkeypatch.setattr(bochner, "lp_norm_ends", inflated)
        expected = reference_completeness_witness(self.SPACE, codomain, p,
                                                  5, 6)
        rep = run_completeness_harness(self.SPACE, codomain, p, 5, 6)
        assert rep.witness == expected
        # factor * (2**-a - 2**-b) ||w|| against 2**(1-a) ||w|| at k = a
        if factor * (1 - Fraction(2) ** (a - b)) > 2:
            assert expected["stage"] == "pairwise"
            assert rep.failures == 1
        else:
            assert rep.passed

    @pytest.mark.parametrize("p", [Fraction(1), Fraction(3, 2)], ids=str)
    def test_corrupted_term(self, p, monkeypatch):
        # one entry of one term moved by a seeded amount, from 48 down to
        # 2**-30: large moves fail pairs, small ones only the pointwise
        # diagonal, and moves that the sup norm hides only the closing
        codomain = ModuleSpace(2, 2, NormKind.SUP)
        real = LFunction.scale_rational
        rng = random.Random(97)
        stages = set()
        for case in range(40):
            n0 = rng.randint(1, 6)
            t0 = rng.randrange(3)
            delta = LElement([rng.randint(-3, 3)
                              * Fraction(2) ** -rng.randint(-4, 30)
                              for _ in range(2)])

            def corrupted(f, c, n0=n0, t0=t0, delta=delta):
                g = real(f, c)
                if c != Fraction(1, 2 ** n0):
                    return g
                values = list(g.values)
                first, *rest = values[t0].entries
                values[t0] = ModuleVector(g.codomain, (first + delta, *rest))
                return LFunction(g.space, g.codomain, tuple(values))

            monkeypatch.setattr(LFunction, "scale_rational", corrupted)
            expected = reference_completeness_witness(self.SPACE, codomain, p,
                                                      case, 6)
            rep = run_completeness_harness(self.SPACE, codomain, p, case, 6)
            if expected is None:
                assert rep.passed or rep.witness["stage"] == "closing"
            else:
                assert rep.witness == expected
            stages.add(rep.witness["stage"] if rep.witness else None)
        assert {"pairwise", "pointwise"} <= stages


class TestCompletenessAnchor:
    """Every stage but the anchor compares p-norms with multiples of
    ||w||_p, so a fault that scales the p-norm code moves both of its
    sides; the anchor's ||w||_1 comes from the atom norms alone."""

    @pytest.mark.parametrize("name", ["lp_norm_ends", "lp_from_atom_ends"])
    @pytest.mark.parametrize("p", [Fraction(1), Fraction(2), Fraction(3)],
                             ids=str)
    def test_doubled_p_norm_fails_at_anchor(self, name, p, monkeypatch):
        space = MeasureSpace.build(["a", "b", "c"], ["1/2", "1/4", "1/4"])
        codomain = ModuleSpace(2, 2, NormKind.SUP)
        assert run_completeness_harness(space, codomain, p, 11, 6).passed
        real = getattr(bochner, name)

        def doubled(*args):
            return [certified.scale(e, 2, 1) for e in real(*args)]

        monkeypatch.setattr(bochner, name, doubled)
        rep = run_completeness_harness(space, codomain, p, 11, 6)
        assert not rep.passed
        assert rep.witness["stage"] == "anchor"

    @pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
    def test_single_atom_is_lyapunov_equality(self, kind):
        # one atom: both Lyapunov inequalities hold with equality
        space = MeasureSpace.build(["a"], ["2/3"])
        for p in (Fraction(1), Fraction(3, 2), Fraction(4)):
            assert run_completeness_harness(
                space, ModuleSpace(2, 2, kind), p, 13, 4).passed

class TestLpNormAxioms:
    """The p-norm makes the function space a normed module: definiteness up
    to null atoms, homogeneity under scalar-algebra multiples, triangle."""

    def test_axioms_sampled_p1_exact(self):
        rng = rng_for(36, 1)
        space = MeasureSpace.build(["a", "b", "c"], [1, "1/2", 2])
        codomain = ModuleSpace(2, 2, NormKind.SUP)
        p = Fraction(1)
        from lbochner.sampling import random_lelement
        for _ in range(200):
            u = LFunction(space, codomain, tuple(
                random_module_vector(rng, codomain) for _ in range(3)))
            v = LFunction(space, codomain, tuple(
                random_module_vector(rng, codomain) for _ in range(3)))
            lam = random_lelement(rng, 2)
            assert lp_norm(u.scale(lam), p) == \
                abs(lam) * lp_norm(u, p)
            assert lp_norm(u + v, p) <= \
                lp_norm(u, p) + lp_norm(v, p)
        assert lp_norm(LFunction.zero(space, codomain), p) \
            == LElement.zero(2)

    def test_definiteness_up_to_null_atoms(self):
        space = MeasureSpace.build(["a", "b"], [1, 0])
        codomain = ModuleSpace(1, 2, NormKind.SUP)
        p = Fraction(1)
        supported_on_null = LFunction(space, codomain, (
            codomain.zero(),
            ModuleVector(codomain, (L(5, 5),)),
        ))
        # vanishes almost everywhere, so the norm is zero
        assert lp_norm(supported_on_null, p) == LElement.zero(2)
        somewhere = LFunction(space, codomain, (
            ModuleVector(codomain, (L(0, 3),)),
            codomain.zero(),
        ))
        assert lp_norm(somewhere, p) != LElement.zero(2)

    def test_axioms_sampled_p2_toleranced(self):
        from lbochner import certified
        cfg = ToleranceConfig()
        rng = rng_for(36, 2)
        space = MeasureSpace.build(["a", "b"], [1, "1/2"])
        codomain = ModuleSpace(1, 2, NormKind.TWO)
        p = Fraction(2)
        from lbochner.sampling import random_lelement
        for _ in range(100):
            u = LFunction(space, codomain, tuple(
                random_module_vector(rng, codomain) for _ in range(2)))
            lam = random_lelement(rng, 2)
            lhs = value_brackets(lp_norm(u.scale(lam), p))
            base = value_brackets(lp_norm(u, p))
            alam = abs(lam)
            for j in range(2):
                rhs = (base[j][0] * alam[j], base[j][1] * alam[j])
                ok, _ = certified.eq_within(ends_of(lhs[j]),
                                            ends_of(rhs),
                                            cfg.compare_tol)
                assert ok
