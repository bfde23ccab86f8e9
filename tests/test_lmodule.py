from fractions import Fraction

import pytest

from lbochner.falgebra import LElement, ToleranceConfig
from lbochner.lmodule import (
    ModuleSpace,
    ModuleVector,
    NormKind,
    ShapeMismatch,
    alignment_vector,
    check_norm_axioms,
    contract,
    norm,
    norm_ends,
)
from lbochner.sampling import (
    random_lelement,
    random_module_vector,
    rng_for,
)


def L(*coords):
    return LElement(list(coords))


def vec(space, *entries):
    return ModuleVector(space, tuple(entries))


def fractions_of(e):
    """Integer ends as a pair of fractions."""
    return (Fraction(e[0], e[1]), Fraction(e[2], e[3]))


SUP2 = ModuleSpace(2, 2, NormKind.SUP)
ONE2 = ModuleSpace(2, 2, NormKind.ONE)
TWO2 = ModuleSpace(2, 2, NormKind.TWO)


class TestNorm:
    def test_sup_example(self):
        assert norm(vec(SUP2, L(1, 2), L(3, 1))) == L(3, 2)

    def test_one_example(self):
        assert norm(vec(ONE2, L(1, 2), L(3, 1))) == L(4, 3)

    def test_two_perfect_square(self):
        # 3**2 + 4**2 = 25 per first coordinate
        got = norm(vec(TWO2, L(3, 0), L(4, 0)))
        assert got == L(5, 0)

    def test_two_irrational_is_bracketed(self):
        import decimal
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            sqrt2 = Fraction(decimal.Decimal(2).sqrt())
        got = norm_ends(vec(TWO2, L(1, 1), L(1, 1)))
        for iv in (fractions_of(e) for e in got):
            assert iv[0] <= sqrt2 <= iv[1]
            assert iv[1] - iv[0] <= 2 * ToleranceConfig().root_tol

    def test_shape_guards(self):
        with pytest.raises(ShapeMismatch):
            vec(SUP2, L(1, 2))
        with pytest.raises(Exception):
            vec(SUP2, L(1), L(2))


class TestNormAxioms:
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_500_seeded_samples(self, kind):
        rng = rng_for(99, 1)
        space = ModuleSpace(2, 2, kind)
        samples = []
        for _ in range(500):
            lam = random_lelement(rng, 2)
            samples.append((lam, random_module_vector(rng, space),
                            random_module_vector(rng, space)))
        report = check_norm_axioms(space, samples)
        assert report.passed, report.witness

    def test_zero_vector_has_zero_norm(self):
        assert norm(SUP2.zero()) == LElement.zero(2)
        assert norm(TWO2.zero()) == LElement.zero(2)

    def test_unit_scalar_is_identity(self):
        x = vec(SUP2, L(1, -2), L("7/3", 5))
        assert norm(x.scale(LElement.unit(2))) == norm(x)


def apply(phi, x):
    """A functional, a vector of the dual module, acting on x."""
    assert phi.space == x.space.dual()
    return contract(phi.entries, x.entries)


class TestApply:
    def test_example(self):
        space = ModuleSpace(2, 2, NormKind.SUP)
        phi = vec(space.dual(), L(1, 0), L(0, 1))
        x = vec(space, L(2, 3), L(4, 5))
        assert apply(phi, x) == L(2, 5)

    def test_zero_functional(self):
        space = ModuleSpace(2, 2, NormKind.SUP)
        phi = space.dual().zero()
        rng = rng_for(4, 2)
        for _ in range(10):
            assert apply(phi, random_module_vector(rng, space)) == L(0, 0)

    def test_identity_coefficient(self):
        space = ModuleSpace(1, 2, NormKind.SUP)
        phi = vec(space.dual(), L(1, 1))
        x = vec(space, L("3/7", -2))
        assert apply(phi, x) == L("3/7", -2)

    def test_shape_mismatch(self):
        phi = vec(ModuleSpace(2, 2, NormKind.ONE), L(1, 0), L(0, 1))
        x = vec(ModuleSpace(1, 2, NormKind.SUP), L(1, 1))
        with pytest.raises(ValueError):
            contract(phi.entries, x.entries)
        with pytest.raises(ShapeMismatch):
            ModuleVector(x.space.dual(), phi.entries)


class TestDualNorm:
    def test_examples(self):
        # a functional's norm is its norm in the dual module
        sup_dual = ModuleSpace(2, 2, NormKind.SUP).dual()
        one_dual = ModuleSpace(2, 2, NormKind.ONE).dual()
        assert norm(vec(sup_dual, L(1, 2), L(3, 1))) == L(4, 3)
        assert norm(vec(one_dual, L(1, 2), L(3, 1))) == L(3, 2)
        assert norm(sup_dual.zero()) == L(0, 0)

    def test_dual_kind_involution(self):
        for kind, dual in ((NormKind.SUP, NormKind.ONE),
                           (NormKind.ONE, NormKind.SUP),
                           (NormKind.TWO, NormKind.TWO)):
            space = ModuleSpace(2, 3, kind)
            assert space.dual() == ModuleSpace(2, 3, dual)
            assert space.dual().dual() == space

    @pytest.mark.parametrize("kind", [NormKind.SUP, NormKind.ONE])
    def test_bound_is_valid_exact(self, kind):
        rng = rng_for(7, int(kind is NormKind.ONE))
        space = ModuleSpace(3, 2, kind)
        for _ in range(1000):
            phi = random_module_vector(rng, space.dual())
            x = random_module_vector(rng, space)
            bound = norm(phi)
            assert abs(apply(phi, x)) <= bound * norm(x)

    def test_bound_is_valid_two_norm(self):
        cfg = ToleranceConfig()
        rng = rng_for(8, 3)
        space = ModuleSpace(3, 2, NormKind.TWO)
        for _ in range(300):
            phi = random_module_vector(rng, space.dual())
            x = random_module_vector(rng, space)
            lhs = abs(apply(phi, x))
            bound = [fractions_of(e) for e in norm_ends(phi)]
            nx = [fractions_of(e) for e in norm_ends(x)]
            for j in range(2):
                rhs_hi = bound[j][1] * nx[j][1]
                assert lhs[j] <= rhs_hi + cfg.compare_tol

    @pytest.mark.parametrize("kind", [NormKind.SUP, NormKind.ONE])
    def test_attained_by_alignment(self, kind):
        rng = rng_for(9, int(kind is NormKind.ONE))
        space = ModuleSpace(3, 2, kind)
        for _ in range(200):
            phi = random_module_vector(rng, space.dual())
            x_star = alignment_vector(phi)
            assert x_star.space == space
            assert abs(apply(phi, x_star)) == norm(phi) * norm(x_star)

    def test_double_dual_consistency(self):
        # a functional on the one-norm module is measured by the sup norm
        rng = rng_for(10, 5)
        space_sup = ModuleSpace(3, 2, NormKind.SUP)
        space_one = ModuleSpace(3, 2, NormKind.ONE)
        for _ in range(200):
            x = random_module_vector(rng, space_sup)
            phi = ModuleVector(space_one.dual(), x.entries)
            assert norm(phi) == norm(x)
