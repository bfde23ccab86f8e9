from fractions import Fraction
from itertools import combinations

import pytest

from lbochner.measure import MeasureSpace, dyadic_space, rademacher_set
from support import (
    all_subsets,
    enumerate_partitions,
    measure_of,
    subset_of_names,
)


@pytest.fixture
def space3():
    return MeasureSpace.build(["a", "b", "c"], [1, 2, 0])


class TestMeasureOf:
    def test_construction_guards(self):
        with pytest.raises(ValueError):
            MeasureSpace.build(["a", "a"], [1, 1])
        for masses in ([0], [0, 0], []):
            with pytest.raises(ValueError, match="total mass must be positive"):
                MeasureSpace.build([f"a{i}" for i in range(len(masses))],
                                   masses)
        with pytest.raises(ValueError):
            MeasureSpace.build(["a"], [-1])


class TestSetAlgebra:
    def test_symmetric_difference_examples(self, space3):
        ab = subset_of_names(space3, ["a", "b"]).members
        bc = subset_of_names(space3, ["b", "c"]).members
        assert space3.subset(ab ^ bc).names() == ["a", "c"]
        assert space3.subset(ab ^ ab).members == frozenset()
        assert space3.subset(ab ^ frozenset()) == space3.subset(ab)

    def test_additivity_exhaustive_small_spaces(self):
        space = MeasureSpace.build(
            list("abcdef"), [Fraction(1, 3), 2, 0, Fraction(5, 7), 1, 4])
        subsets = all_subsets(space)
        for F in subsets:
            for G in subsets:
                union = space.subset(F.members | G.members)
                meet = space.subset(F.members & G.members)
                assert (measure_of(union) + measure_of(meet)
                        == measure_of(F) + measure_of(G))


class TestPartitions:
    """The partition enumerator of the variation check's reference."""

    @pytest.mark.parametrize("m,count", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_bell_counts(self, m, count):
        parts = enumerate_partitions(m)
        assert len(parts) == count
        # exactly once: frozenset-of-frozensets must be unique
        seen = {frozenset(map(frozenset, p)) for p in parts}
        assert len(seen) == count

    def test_blocks_disjoint_and_cover(self):
        for p in enumerate_partitions(4):
            union = set()
            for block in p:
                assert not (union & set(block))
                union |= set(block)
            assert union == set(range(4))


class TestDyadicSpace:
    def test_examples(self):
        s1 = dyadic_space(1)
        assert s1.size == 2 and set(s1.masses) == {Fraction(1, 2)}
        s3 = dyadic_space(3)
        assert s3.size == 8 and set(s3.masses) == {Fraction(1, 8)}

    @pytest.mark.parametrize("levels", [1, 2, 5, 10])
    def test_total_mass_one(self, levels):
        assert dyadic_space(levels).total_mass == 1

    def test_bounds(self):
        with pytest.raises(ValueError):
            dyadic_space(0)
        with pytest.raises(ValueError):
            dyadic_space(21)


def oracle_members(levels, n):
    """Binary-digit oracle: atoms whose (n-1)-th digit from the most
    significant is 0."""
    out = set()
    for i in range(1 << levels):
        digits = format(i, f"0{levels}b")
        if digits[n - 1] == "0":
            out.add(i)
    return out


class TestRademacher:
    def test_level2_examples(self):
        space = dyadic_space(2)
        assert rademacher_set(space, 1).members == frozenset({0, 1})
        assert rademacher_set(space, 2).members == frozenset({0, 2})
        assert measure_of(rademacher_set(space, 1)) == Fraction(1, 2)

    @pytest.mark.parametrize("levels", [1, 2, 3, 5, 6])
    def test_against_binary_digit_oracle(self, levels):
        space = dyadic_space(levels)
        for n in range(1, levels + 1):
            got = rademacher_set(space, n)
            assert got.members == frozenset(oracle_members(levels, n))
            assert measure_of(got) == Fraction(1, 2)

    @pytest.mark.parametrize("levels", [2, 3, 5, 6])
    def test_pairwise_symmetric_difference_half(self, levels):
        space = dyadic_space(levels)
        sets = [rademacher_set(space, n) for n in range(1, levels + 1)]
        for a, b in combinations(range(levels), 2):
            difference = space.subset(sets[a].members ^ sets[b].members)
            assert measure_of(difference) == Fraction(1, 2)

    def test_range_and_space_guards(self):
        space = dyadic_space(2)
        with pytest.raises(ValueError):
            rademacher_set(space, 0)
        with pytest.raises(ValueError):
            rademacher_set(space, 3)
        lopsided = MeasureSpace.build(["a", "b"], [1, 2])
        with pytest.raises(ValueError):
            rademacher_set(lopsided, 1)
