from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbochner.falgebra import (
    ApproxReal,
    DimensionMismatch,
    LElement,
    ToleranceConfig,
    first_envelope_violation,
    sgn,
)

rationals = st.fractions(min_value=-60, max_value=60, max_denominator=20)


def elements(d):
    return st.lists(rationals, min_size=d, max_size=d).map(LElement)


def L(*coords):
    return LElement([Fraction(c) if not isinstance(c, str) else Fraction(c)
                     for c in coords])


class TestPointwiseOps:
    def test_abs_example(self):
        assert abs(L(-1, 2)) == L(1, 2)

    def test_mul_example(self):
        assert L(2, 3) * L(4, 5) == L(8, 15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            L(1, 2) + L(1, 2, 3)

    def test_sgn(self):
        assert sgn(L(-5, 0, "7/3")) == L(-1, 0, 1)


class TestLeq:
    def test_examples(self):
        assert L(1, 2) <= L(1, 3)
        assert not L(1, 4) <= L(2, 3)
        assert not L(2, 3) <= L(1, 4)  # incomparable both ways

    @settings(max_examples=100, deadline=None)
    @given(elements(3))
    def test_zero_below_modulus(self, a):
        assert LElement.zero(3) <= abs(a)

    @settings(max_examples=100, deadline=None)
    @given(elements(3), elements(3), elements(3))
    def test_partial_order(self, a, b, c):
        assert a <= a
        if a <= b and b <= a:
            assert a == b
        if a <= b and b <= c:
            assert a <= c


class TestRingLatticeLaws:
    @settings(max_examples=300, deadline=None)
    @given(elements(4), elements(4), elements(4))
    def test_laws_exact(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert abs(a * b) == abs(a) * abs(b)
        # the lattice operations against a coordinatewise oracle
        join = LElement([max(x, y) for x, y in zip(a.coords, b.coords)])
        meet = LElement([min(x, y) for x, y in zip(a.coords, b.coords)])
        assert (a + b + abs(a - b)).scale(Fraction(1, 2)) == join
        assert (a + b - abs(a - b)).scale(Fraction(1, 2)) == meet
        assert meet <= a <= join and meet <= b <= join

    def test_unit_and_zero(self):
        a = L("2/3", -5, 7)
        assert a * LElement.unit(3) == a
        assert a + LElement.zero(3) == a


class TestApproxReal:
    def test_interval_roundtrip(self):
        a = ApproxReal.from_interval((Fraction(1, 3), Fraction(2, 3)))
        assert a.value == Fraction(1, 2)
        assert a.abs_error_bound == Fraction(1, 6)
        assert (a.lo, a.hi) == (Fraction(1, 3), Fraction(2, 3))
        assert not a.is_exact
        assert ApproxReal.exact(Fraction(5)).is_exact


class TestToleranceConfig:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ToleranceConfig(root_tol=Fraction(1, 4), compare_tol=Fraction(1, 8))
        with pytest.raises(ValueError):
            ToleranceConfig(root_tol=Fraction(0), compare_tol=Fraction(1, 8))


class TestOrderConvergence:
    def test_reciprocal_and_geometric_pass(self):
        seq = [L(Fraction(1, n), Fraction(1, 2 ** n)) for n in range(1, 21)]
        envelope = [(L(Fraction(1, k), Fraction(1, k)), k - 1)
                    for k in range(1, 21)]
        assert first_envelope_violation(seq, LElement.zero(2), envelope) is None

    def test_constant_sequence_passes(self):
        seq = [L(5, 5)] * 6
        envelope = [(L(1, 1), 0), (L("1/8", "1/8"), 0), (L(0, 0), 0)]
        assert first_envelope_violation(seq, L(5, 5), envelope) is None

    def test_oscillation_fails_at_first_coordinate(self):
        seq = [L((-1) ** n, 0) for n in range(1, 13)]
        envelope = [(L(Fraction(1, k), Fraction(1, k)), k - 1)
                    for k in range(1, 13)]
        # |seq[1]| = 1 exceeds the second epsilon, 1/2, from index 1 on
        assert first_envelope_violation(seq, LElement.zero(2), envelope) == (1, 0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            first_envelope_violation([], LElement.zero(1), [(LElement.unit(1), 0)])

    def test_envelope_must_be_nonincreasing(self):
        seq = [L(0)] * 3
        with pytest.raises(ValueError):
            first_envelope_violation(seq, L(0), [(L(1), 0), (L(2), 0)])
        with pytest.raises(ValueError):
            first_envelope_violation(seq, L(0), [])
