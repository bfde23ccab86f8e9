from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbochner.falgebra import (
    DEFAULT_TOLERANCES,
    ApproxReal,
    DimensionMismatch,
    LElement,
    ToleranceConfig,
    sgn,
)
from support import first_envelope_violation

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
        a = ApproxReal.from_ends((1, 3, 2, 3))
        assert a.value == Fraction(1, 2)
        assert a.abs_error_bound == Fraction(1, 6)
        assert (a.value - a.abs_error_bound, a.value + a.abs_error_bound) \
            == (Fraction(1, 3), Fraction(2, 3))
        assert not a.is_exact
        assert ApproxReal.from_ends((5, 1, 5, 1)).is_exact


class TestToleranceConfig:
    def test_nonpositive_compare_tol_refused(self):
        for tol in (Fraction(0), Fraction(-1, 2)):
            with pytest.raises(ValueError, match="compare_tol must be > 0"):
                ToleranceConfig(tol)

    def test_root_tol_follows_compare_tol(self):
        cfg = ToleranceConfig(Fraction(1, 1000))
        assert cfg.root_tol == Fraction(1, 1024000)
        assert cfg.root_bits == 20
        assert ToleranceConfig() == DEFAULT_TOLERANCES
        assert DEFAULT_TOLERANCES.root_tol == Fraction(1, 2 ** 40)
        assert DEFAULT_TOLERANCES.root_bits == 40


class TestOrderConvergence:
    """The envelope certificate that the completeness harness's pointwise
    stage is checked against (``support.first_envelope_violation``)."""

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


def _value_type_samples():
    """For each immutable value type: a builder of a sample (an argument
    selects one of two different values)."""
    from lbochner.bochner import LFunction
    from lbochner.duality import LpOperator
    from lbochner.lmodule import ModuleSpace, ModuleVector, NormKind
    from lbochner.measure import MeasureSpace, Partition
    from lbochner.vecmeasure import VectorMeasure

    def space(k):
        return MeasureSpace.build(["a", "b"], [1, 1 + k])

    def module(k):
        return ModuleSpace(1, 2, (NormKind.SUP, NormKind.ONE)[k])

    def vector(k):
        return ModuleVector(module(0), (LElement([1, k]),))

    def function(k):
        return LFunction(space(0), module(0), (vector(k), vector(0)))

    return {
        "ToleranceConfig": lambda k: ToleranceConfig(
            compare_tol=Fraction(1, 2 ** (30 + k))),
        "ApproxReal": lambda k: ApproxReal(Fraction(1), Fraction(k, 8)),
        "MeasureSpace": space,
        "MeasurableSet": lambda k: space(0).subset([k]),
        "Partition": lambda k: Partition(
            (space(0).subset([0, 1]),) if k else
            (space(0).singleton(0), space(0).singleton(1))),
        "ModuleSpace": module,
        "ModuleVector": vector,
        "LFunction": function,
        "LpOperator": lambda k: LpOperator(
            space(0), module(0), ((LElement([k, 1]),), (LElement([1, 1]),)),
            Fraction(2)),
        "VectorMeasure": lambda k: VectorMeasure(
            space(0), module(0), (vector(k), vector(0))),
    }


class TestValueTypes:
    """The value types compare and hash by value and refuse assignment."""

    @pytest.mark.parametrize("name", sorted(_value_type_samples()))
    def test_value_semantics(self, name):
        build = _value_type_samples()[name]
        a, b, other = build(0), build(0), build(1)
        assert type(a).__name__ == name
        assert a is not b and a == b and hash(a) == hash(b)
        assert not (a != b)
        assert a != other and len({a, b, other}) == 2
        assert a != object() and a != tuple(getattr(a, n) for n in a.__slots__)
        assert repr(a).startswith(f"{name}(")
        field = a.__slots__[0]
        before = getattr(a, field)
        for attempt in (lambda: setattr(a, field, before),
                        lambda: delattr(a, field),
                        lambda: setattr(a, "extra", 1)):
            with pytest.raises(AttributeError):
                attempt()
        assert getattr(a, field) is before and not hasattr(a, "__dict__")
