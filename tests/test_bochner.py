import decimal
import random
from fractions import Fraction

import pytest

from lbochner import bochner, certified
from lbochner.bochner import (
    INF,
    DominatorViolation,
    LFunction,
    LpHandle,
    TruncatedSequenceSpec,
    check_chebyshev_step,
    check_holder,
    check_minkowski,
    conjugate_exponent,
    integrate,
    integrate_over,
    is_conjugate_pair,
    lp_from_atom_norms,
    lp_norm,
    run_completeness_harness,
    run_dct_experiment,
    verify_sup_representation,
)
from lbochner.falgebra import LElement, ToleranceConfig
from lbochner.lmodule import (
    ModuleSpace,
    ModuleVector,
    NormKind,
    collapse_intervals,
    norm_intervals,
    value_intervals,
)
from lbochner.measure import MeasureSpace, TooManySubsets
from lbochner.sampling import random_measure_space, random_module_vector, rng_for


def L(*coords):
    return LElement(list(coords))


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
        assert is_conjugate_pair(Fraction(3), Fraction(3, 2))
        assert not is_conjugate_pair(Fraction(2), Fraction(3))


class TestIntegrate:
    def test_example(self, base):
        space, f = base
        assert integrate(f).entries[0] == L(7, 4)

    def test_zero_function(self, base):
        space, _ = base
        assert integrate(LFunction.zero(space, MOD)).entries[0] == L(0, 0)

    def test_indicator_scaling(self, base):
        space, _ = base
        f = LFunction.indicator_times(
            ModuleVector(MOD, (L(3, 1),)), space.subset_of_names(["b"]))
        assert integrate(f).entries[0] == L(6, 2)

    def test_integrate_over(self, base):
        space, f = base
        assert integrate_over(f, space.full_set()) == integrate(f)
        assert integrate_over(f, space.empty_set()).entries[0] == L(0, 0)
        assert integrate_over(f, space.subset_of_names(["a"])).entries[0] == L(1, 2)

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
            handle = LpHandle(Fraction(1), space, codomain)
            for _ in range(100):
                f = LFunction(space, codomain, tuple(
                    random_module_vector(rng, codomain) for _ in range(3)))
                assert norm(integrate(f)) <= lp_norm(f, handle)


class TestLpNorm:
    def test_p1_equals_integral_of_modulus(self, base):
        space, f = base
        handle = LpHandle(Fraction(1), space, MOD)
        assert lp_norm(f, handle) == L(7, 4)

    def test_p2_example_against_sqrt_oracle(self, base):
        space, f = base
        handle = LpHandle(Fraction(2), space, MOD)
        got = value_intervals(lp_norm(f, handle))
        for iv, target in zip(got, (Fraction(19), Fraction(6))):
            true = dec_sqrt(target)
            assert iv[0] <= true <= iv[1]

    def test_ess_sup_excludes_null_atoms(self):
        space = MeasureSpace.build(["a", "b", "c"], [1, 2, 0])
        f = fn(space, L(1, 1), L(2, 5), L(9, 9))
        handle = LpHandle(INF, space, MOD)
        assert lp_norm(f, handle) == L(2, 5)

    def test_homogeneity_exact_p1(self):
        space = MeasureSpace.build(["a", "b"], [1, "2/3"])
        f = fn(space, L(1, -2), L("4/7", 3))
        handle = LpHandle(Fraction(1), space, MOD)
        doubled = f.scale_rational(Fraction(-2))
        assert lp_norm(doubled, handle) == lp_norm(f, handle).scale(2)


class TestLpFromAtomNorms:
    # per atom, per coordinate; the null atom's bracket is negative, so
    # raising it to a power would raise ValueError
    NORMS = [[(Fraction(3), Fraction(3)), (Fraction(1), Fraction(1))],
             [(Fraction(-1), Fraction(9)), (Fraction(-1), Fraction(9))],
             [(Fraction(4), Fraction(4)), (Fraction(0), Fraction(0))]]
    MASSES = [Fraction(1), Fraction(0), Fraction(1)]

    @pytest.mark.parametrize("p,expected", [
        (Fraction(1), [Fraction(7), Fraction(1)]),
        (Fraction(2), [Fraction(5), Fraction(1)]),  # sqrt(9 + 16), sqrt(1)
        (INF, [Fraction(4), Fraction(1)]),
    ], ids=["p1", "p2", "inf"])
    def test_null_atoms_skipped(self, p, expected):
        got = lp_from_atom_norms(self.NORMS, self.MASSES, p, ToleranceConfig())
        assert got == [(q, q) for q in expected]

    def test_inf_starts_from_zero(self):
        got = lp_from_atom_norms(self.NORMS[1:2], [Fraction(0)], INF,
                                 ToleranceConfig())
        assert got == [(Fraction(0), Fraction(0))] * 2


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
        lo, hi = certified._pow_via_chain(q, frac_exp, bits + 2)
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
    """norm_intervals, pow_bracket, power_sums_from_atom_norms and
    lp_from_atom_norms return exactly the Fraction code's brackets.  The
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

    def _atom_norms(self, kind):
        return [norm_intervals(entries, kind, self.CFG)
                for entries in self._atoms()]

    @staticmethod
    def _widened(atom_norms):
        # wide brackets whose ends are both in lowest terms
        return [[(lo, hi + Fraction(1, 3)) for lo, hi in norms]
                for norms in atom_norms]

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
            assert (norm_intervals(entries, kind, self.CFG)
                    == fraction_norm_intervals(entries, kind, self.BITS))
        zero = [LElement.zero(3)] * 2
        assert norm_intervals(zero, kind, self.CFG) == [(0, 0)] * 3
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
            assert (certified.pow_bracket(q, r, self.BITS)
                    == fraction_pow_bracket(q, r, self.BITS)), (q, r)

    @pytest.mark.parametrize("s", EXPONENTS, ids=str)
    def test_power_sums_and_lp(self, s):
        for kind, atom_norms in self._norm_grids():
            got = bochner.power_sums_from_atom_norms(
                atom_norms, self.MASSES, s, self.CFG)
            assert got == fraction_power_sums(
                atom_norms, self.MASSES, s, self.BITS), kind
            assert (lp_from_atom_norms(atom_norms, self.MASSES, s, self.CFG)
                    == fraction_lp(atom_norms, self.MASSES, s, self.BITS)), kind

    def test_inf_and_all_null(self):
        for kind, atom_norms in self._norm_grids():
            assert (lp_from_atom_norms(atom_norms, self.MASSES, INF, self.CFG)
                    == fraction_lp(atom_norms, self.MASSES, INF, self.BITS))
            null = [Fraction(0)] * len(self.MASSES)
            assert bochner.power_sums_from_atom_norms(
                atom_norms, null, Fraction(3, 2), self.CFG) == [(0, 0)] * 3


class TestSupRepresentation:
    def test_exhaustive_max_at_full_space(self, base):
        space, f = base
        rep = verify_sup_representation(f, LpHandle(Fraction(2), space, MOD))
        assert rep.passed
        assert rep.details["subsets"] == 4
        assert rep.details["max_at_full_space"] == L(19, 6)

    def test_zero_function(self, base):
        space, _ = base
        rep = verify_sup_representation(
            LFunction.zero(space, MOD), LpHandle(Fraction(1), space, MOD))
        assert rep.passed
        assert rep.details["max_at_full_space"] == L(0, 0)

    def test_single_atom_support(self):
        space = MeasureSpace.build(["a", "b", "c"], [1, 1, 1])
        f = fn(space, L(0, 0), L(2, 3), L(0, 0))
        rep = verify_sup_representation(f, LpHandle(Fraction(1), space, MOD))
        assert rep.passed

    def test_m10_exhaustive(self):
        rng = rng_for(33, 3)
        space = MeasureSpace.build([f"a{i}" for i in range(10)],
                                   [Fraction(i + 1, 7) for i in range(10)])
        f = LFunction(space, MOD, tuple(
            random_module_vector(rng, MOD) for _ in range(10)))
        rep = verify_sup_representation(f, LpHandle(Fraction(2), space, MOD))
        assert rep.passed
        assert rep.details["subsets"] == 1024


def interval_sup_rep(f, p, cfg):
    """The subset table as (lo, hi) Fraction brackets with every comparison
    a ``leq_with_slack`` call, as the checker computed it before its integer
    table; returns (verdict, max_at_full_space, pairs_checked)."""
    m = f.space.size
    d = f.codomain.scalar_dim
    bits = cfg.root_bits + 2
    powers = [[certified.ipow_frac(iv, p, bits)
               for iv in norm_intervals(v.entries, f.codomain.norm_kind, cfg)]
              for v in f.values]
    weighted = [[certified.iscale(powers[t][j], f.space.masses[t])
                 for j in range(d)] for t in range(m)]
    sums = [[certified.exact(Fraction(0))] * d for _ in range(1 << m)]
    for mask in range(1, 1 << m):
        low = (mask & -mask).bit_length() - 1
        prev = sums[mask ^ (1 << low)]
        sums[mask] = [certified.iadd(prev[j], weighted[low][j])
                      for j in range(d)]
    tol = certified.tol_for(cfg.compare_tol, *powers)
    full = (1 << m) - 1

    def leq(a, b):
        return all(certified.leq_with_slack(sums[a][j], sums[b][j], tol)[0]
                   for j in range(d))

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
    return passed, collapse_intervals(sums[full]), pairs_checked


class TestSupRepIntegerTable:
    """The integer table against the bracket table it replaced, and the
    first-failure witnesses of the three passes."""

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
        rep = verify_sup_representation(f, LpHandle(p, space, codomain), cfg)
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
        rep = verify_sup_representation(f, LpHandle(p, space, codomain), cfg)
        passed, at_full, _ = interval_sup_rep(f, p, cfg)
        assert rep.passed == passed == (depth < 1)
        assert rep.details["max_at_full_space"] == at_full

    @staticmethod
    def _corrupt(monkeypatch, by_mass):
        """Replace the weighted term of the atom with the given mass."""
        real = certified.iscale

        def iscale(a, c):
            return by_mass[c] if c in by_mass else real(a, c)

        monkeypatch.setattr(certified, "iscale", iscale)

    @staticmethod
    def _run(*norms):
        space = MeasureSpace.build(["a", "b", "c"][:len(norms)],
                                   range(1, len(norms) + 1))
        codomain = ModuleSpace(1, 1, NormKind.SUP)
        f = LFunction(space, codomain, tuple(
            ModuleVector(codomain, (L(n),)) for n in norms))
        return verify_sup_representation(
            f, LpHandle(Fraction(1), space, codomain))

    def test_negative_term_fails_against_full_space(self, monkeypatch):
        # terms -1, 2, 3: the full space sums to 4, and {b, c} (mask 6) is
        # the first subset above it
        self._corrupt(monkeypatch, {1: (Fraction(-1), Fraction(-1))})
        rep = self._run(1, 1, 1)
        assert not rep.passed
        assert rep.witness == {"subset_mask": 6, "coordinate": 0}

    def test_extension_pass_reports_first_failure(self, monkeypatch):
        # terms [0, 100], -1, 0: no subset exceeds the full space, and
        # adding b fails from {} (mask 0) and again from {c} (mask 4)
        self._corrupt(monkeypatch, {1: (Fraction(0), Fraction(100)),
                                    2: (Fraction(-1), Fraction(-1))})
        rep = self._run(1, 1, 0)
        assert not rep.passed
        assert rep.witness == {"subset_mask": 0, "atom": 1, "coordinate": 0}
        assert rep.details["pairs_checked"] == 0

    def test_pair_pass_reports_first_failure(self, monkeypatch):
        # an inverted bracket [5, 0] at a passes the first two passes but
        # not the pair ({a}, {a})
        self._corrupt(monkeypatch, {1: (Fraction(5), Fraction(0)),
                                    2: (Fraction(0), Fraction(10))})
        rep = self._run(1, 1)
        assert not rep.passed
        assert rep.witness == {"subset_mask": 1, "superset_mask": 1,
                               "coordinate": 0}
        assert rep.details["pairs_checked"] == 2

    def test_atom_cap_refused_before_allocation(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("table work started above the cap")

        monkeypatch.setattr(bochner, "subset_sums", unreachable)
        monkeypatch.setattr(certified, "ipow_frac", unreachable)
        m = bochner.SUP_REP_MAX_ATOMS + 1
        space = MeasureSpace.build([f"a{i}" for i in range(m)], [1] * m)
        f = LFunction.zero(space, MOD)
        with pytest.raises(TooManySubsets):
            verify_sup_representation(f, LpHandle(Fraction(2), space, MOD))
        assert issubclass(TooManySubsets, ValueError)


class TestHolder:
    def test_p2_example_with_componentwise_oracle(self, base):
        # u as in the base fixture, v constant (1,1): the right side is
        # (sqrt(19)*sqrt(3), sqrt(6)*sqrt(3)) componentwise
        space, u = base
        v = fn(space, L(1, 1), L(1, 1))
        rep = check_holder(u, v, Fraction(2), Fraction(2))
        assert rep.passed
        lhs = value_intervals(rep.details["lhs"])
        rhs = value_intervals(rep.details["rhs"])
        assert lhs[0][0] == 7 and lhs[1][0] == 4
        for iv, prod in zip(rhs, (Fraction(57), Fraction(18))):
            true = dec_sqrt(prod)
            assert iv[0] <= true <= iv[1]

    def test_p1_with_unit_v_is_equality(self, base):
        space, u = base
        v = fn(space, L(1, 1), L(1, 1))
        rep = check_holder(u, v, Fraction(1), INF)
        assert rep.passed
        assert all(s == 0 for s in rep.details["slack"])

    def test_zero_function(self, base):
        space, u = base
        zero = LFunction.zero(space, MOD)
        rep = check_holder(u, zero, Fraction(2), Fraction(2))
        assert rep.passed
        assert value_intervals(rep.details["lhs"])[0] == (0, 0)

    def test_non_conjugate_rejected(self, base):
        space, u = base
        with pytest.raises(ValueError):
            check_holder(u, u, Fraction(2), Fraction(3))

    def test_tight_for_aligned_pairs(self):
        # v = |u| sign-aligned at p = q = 2, rank one: equality up to brackets
        cfg = ToleranceConfig()
        rng = rng_for(34, 4)
        space = MeasureSpace.build(["a", "b", "c"], [1, "1/2", 2])
        for _ in range(50):
            u = LFunction(space, MOD, tuple(
                random_module_vector(rng, MOD) for _ in range(3)))
            from lbochner.falgebra import sgn
            v = LFunction(space, MOD, tuple(
                ModuleVector(MOD, (abs(val.entries[0]) * sgn(val.entries[0]),))
                for val in u.values))
            rep = check_holder(u, v, Fraction(2), Fraction(2))
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
        rep = check_holder(u, u, Fraction(1), INF)
        assert rep.passed


class TestMinkowski:
    def test_v_equals_minus_u(self, base):
        space, u = base
        rep = check_minkowski(u, u.scale_rational(-1), Fraction(2))
        assert rep.passed
        assert value_intervals(rep.details["lhs"])[0] == (0, 0)

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

    def test_dominator_violation_raises_with_witness(self):
        spec = geometric_spec(7, 8)
        small = TruncatedSequenceSpec(
            space=spec.space, codomain=spec.codomain, term=spec.term,
            limit=spec.limit,
            dominator=tuple(LElement(["1/1000", "1/1000"])
                            for _ in range(8)),
            scalar_bound=spec.scalar_bound, tail_mass=spec.tail_mass)
        with pytest.raises(DominatorViolation) as err:
            run_dct_experiment(small, 6)
        assert err.value.n >= 0 and err.value.t >= 0


class TestCompleteness:
    def test_exact_residuals_p1(self):
        space = MeasureSpace.build(["a", "b", "c"],
                                   [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        handle = LpHandle(Fraction(1), space, ModuleSpace(2, 2, NormKind.SUP))
        rep = run_completeness_harness(handle, seed=11, n_terms=8)
        assert rep.passed
        norm_w = rep.details["norm_w"]
        for row in rep.series:
            n = row["n"]
            expected = [q / 2 ** n for q in norm_w.coords]
            assert row["residual"] == expected

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
        handle = LpHandle(Fraction(1), space, codomain)
        for t in terms:
            assert lp_norm(u_star - t, handle) == LElement.zero(1)


class TestLpNormAxioms:
    """The p-norm makes the function space a normed module: definiteness up
    to null atoms, homogeneity under scalar-algebra multiples, triangle."""

    def test_axioms_sampled_p1_exact(self):
        rng = rng_for(36, 1)
        space = MeasureSpace.build(["a", "b", "c"], [1, "1/2", 2])
        codomain = ModuleSpace(2, 2, NormKind.SUP)
        handle = LpHandle(Fraction(1), space, codomain)
        from lbochner.sampling import random_lelement
        for _ in range(200):
            u = LFunction(space, codomain, tuple(
                random_module_vector(rng, codomain) for _ in range(3)))
            v = LFunction(space, codomain, tuple(
                random_module_vector(rng, codomain) for _ in range(3)))
            lam = random_lelement(rng, 2)
            assert lp_norm(u.scale(lam), handle) == \
                abs(lam) * lp_norm(u, handle)
            assert lp_norm(u + v, handle) <= \
                lp_norm(u, handle) + lp_norm(v, handle)
        assert lp_norm(LFunction.zero(space, codomain), handle) \
            == LElement.zero(2)

    def test_definiteness_up_to_null_atoms(self):
        space = MeasureSpace.build(["a", "b"], [1, 0])
        codomain = ModuleSpace(1, 2, NormKind.SUP)
        handle = LpHandle(Fraction(1), space, codomain)
        supported_on_null = LFunction(space, codomain, (
            codomain.zero(),
            ModuleVector(codomain, (L(5, 5),)),
        ))
        # vanishes almost everywhere, so the norm is zero
        assert lp_norm(supported_on_null, handle) == LElement.zero(2)
        somewhere = LFunction(space, codomain, (
            ModuleVector(codomain, (L(0, 3),)),
            codomain.zero(),
        ))
        assert lp_norm(somewhere, handle) != LElement.zero(2)

    def test_axioms_sampled_p2_toleranced(self):
        from lbochner import certified
        cfg = ToleranceConfig()
        rng = rng_for(36, 2)
        space = MeasureSpace.build(["a", "b"], [1, "1/2"])
        codomain = ModuleSpace(1, 2, NormKind.TWO)
        handle = LpHandle(Fraction(2), space, codomain)
        from lbochner.sampling import random_lelement
        for _ in range(100):
            u = LFunction(space, codomain, tuple(
                random_module_vector(rng, codomain) for _ in range(2)))
            lam = random_lelement(rng, 2)
            lhs = value_intervals(lp_norm(u.scale(lam), handle))
            base = value_intervals(lp_norm(u, handle))
            alam = abs(lam)
            for j in range(2):
                rhs = certified.iscale(base[j], alam[j])
                ok, _ = certified.eq_within(lhs[j], rhs, cfg.compare_tol)
                assert ok
