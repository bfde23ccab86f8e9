from fractions import Fraction

import pytest

from lbochner import bochner, certified, vecmeasure
from lbochner.bochner import LFunction, integrate_over
from lbochner.falgebra import DEFAULT_TOLERANCES, LElement
from lbochner.lmodule import (
    ModuleSpace,
    ModuleVector,
    NormKind,
    norm_ends,
)
from lbochner.falgebra import ToleranceConfig
from lbochner.measure import MeasureSpace, TooManySubsets, subset_sums
from lbochner.reports import check_to_doc
from lbochner.sampling import (
    random_measure_space,
    random_module_vector,
    rng_for,
)
from lbochner.vecmeasure import (
    VectorMeasure,
    check_mu_continuity,
    evaluate,
    rn_density,
    rnp_probe,
    variation,
)
from support import (
    all_subsets,
    basis_vector,
    enumerate_partitions,
    heavy_blocks,
    measure_of,
    partition_variation,
    subset_of_mask,
    subset_of_names,
)


def L(*coords):
    return LElement(list(coords))


MOD = ModuleSpace(1, 2, NormKind.SUP)


def vm(space, *values):
    return VectorMeasure(space, MOD, tuple(
        ModuleVector(MOD, (v,)) for v in values))


@pytest.fixture
def space3():
    return MeasureSpace.build(["a", "b", "c"], [1, 2, 0])


@pytest.fixture
def G3(space3):
    return vm(space3, L(2, 2), L(4, 6), L(0, 0))


class TestEvaluate:
    def test_examples(self, space3, G3):
        assert evaluate(G3, space3.subset(())).entries[0] == L(0, 0)
        ab = subset_of_names(space3, ["a", "b"])
        assert evaluate(G3, ab).entries[0] == L(6, 8)

    def test_additivity_all_disjoint_pairs(self):
        rng = rng_for(41, 1)
        space = MeasureSpace.build(list("abcde"), [1, 2, 0, "1/3", 1])
        G = VectorMeasure(space, MOD, tuple(
            random_module_vector(rng, MOD) for _ in range(5)))
        subsets = all_subsets(space)
        for F in subsets:
            for E in subsets:
                if F.members & E.members:
                    continue
                lhs = evaluate(G, space.subset(F.members | E.members))
                rhs = evaluate(G, F) + evaluate(G, E)
                assert lhs == rhs


class TestMuContinuity:
    def test_pass_example(self, G3):
        assert check_mu_continuity(G3).passed

    def test_fail_with_witness(self, space3):
        bad = vm(space3, L(2, 2), L(4, 6), L(1, 0))
        rep = check_mu_continuity(bad)
        assert not rep.passed
        assert rep.witness == {"atom": "c"}

    def test_zero_measure_passes(self, space3):
        zero = vm(space3, L(0, 0), L(0, 0), L(0, 0))
        assert check_mu_continuity(zero).passed

    def test_modulus_table_emitted(self, G3):
        rep = check_mu_continuity(G3)
        assert len(rep.series) == 8  # all subsets of three atoms

    def test_no_modulus_table_above_the_cap(self):
        m = vecmeasure.CONTINUITY_TABLE_MAX_ATOMS + 1
        G = seeded_measure(509, m, NormKind.SUP)
        rep = check_mu_continuity(G)
        assert rep.passed and rep.series is None


class TestVariation:
    def test_spec_example(self):
        # atoms (1,-1), (-2,3): atomic sum (3,4); the coarse partition gives
        # |(-1,2)| = (1,2) which must be dominated
        space = MeasureSpace.build(["a", "b"], [1, 1])
        G = vm(space, L(1, -1), L(-2, 3))
        result = variation(G)
        assert result.details["variation"] == L(3, 4)
        assert result.details["exhaustive_checked"]
        coarse = evaluate(G, space.full_set())
        assert abs(coarse.entries[0]) == L(1, 2)

    def test_zero_measure(self, space3):
        zero = vm(space3, L(0, 0), L(0, 0), L(0, 0))
        assert variation(zero).details["variation"] == L(0, 0)

    def test_single_atom(self):
        space = MeasureSpace.build(["a"], [1])
        G = vm(space, L(-3, "7/2"))
        assert variation(G).details["variation"] == L(3, "7/2")

    def test_refinement_violation_fails_with_witness(self, monkeypatch):
        # every block of two or more atoms weighs 10 more: the first
        # subset swept, the single block {a, b}, already exceeds the
        # atomic sum
        space = MeasureSpace.build(["a", "b"], [1, 1])
        G = vm(space, L(1, -1), L(-2, 3))
        monkeypatch.setattr(vecmeasure, "_subset_norms",
                            heavy_blocks(vecmeasure._subset_norms))
        result = variation(G)
        assert not result.passed
        assert result.witness == {"partition": [["a", "b"]], "coordinate": 0}

    def test_refinement_monotonicity_exhaustive(self):
        rng = rng_for(42, 2)
        space = MeasureSpace.build(list("abcde"), [1, 1, 2, "1/2", 1])
        for _ in range(50):
            G = VectorMeasure(space, MOD, tuple(
                random_module_vector(rng, MOD) for _ in range(5)))
            result = variation(G)
            assert result.passed and result.details["exhaustive_checked"]
            # atomic partition dominates every coarser one in the order
            for partition in enumerate_partitions(5):
                total = LElement.zero(2)
                for block in partition:
                    total = total + abs(evaluate(G, space.subset(block))
                                        .entries[0])
                assert total <= result.details["variation"]

    def test_refused_above_the_cap(self, monkeypatch):
        # refused before any subset table is built
        monkeypatch.setattr(vecmeasure, "_subset_norms", None)
        G = seeded_measure(510, vecmeasure.CONTINUITY_TABLE_MAX_ATOMS + 1,
                           NormKind.SUP)
        with pytest.raises(TooManySubsets, match="cap 10"):
            variation(G)


class TestBlockSweep:
    """``variation`` sweeps the blocks of two or more atoms and decides
    what the partition reference, ``support.partition_variation``,
    decides; on a pass it renders the same check byte for byte."""

    @staticmethod
    def assert_same(G, cfg=DEFAULT_TOLERANCES, **weights):
        want = partition_variation(G, cfg, **weights)
        with pytest.MonkeyPatch.context() as patch:
            if weights:
                patch.setattr(vecmeasure, "_subset_norms", heavy_blocks(
                    vecmeasure._subset_norms, **weights))
            got = variation(G, cfg)
        assert got.details == want.details
        assert got.passed == want.passed
        if got.passed:
            assert check_to_doc(got) == check_to_doc(want)
        return got, want

    @pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_per_partition_sums(self, m, kind):
        for G in (seeded_measure(601, m, kind, null_atoms=m > 1),
                  wide_measure(602, m, kind, 2, 2)):
            got, _ = self.assert_same(G)
            assert got.passed and got.details["blocks"] == m

    @pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_agrees_with_partition_oracle(self, m, kind):
        # 5 seeded measures, each as drawn and with heavier blocks: 180
        # verdicts over the sizes and kinds; one atom has no block to weigh
        for seed in range(5):
            G = seeded_measure(611 + seed, m, kind, null_atoms=m > 2)
            assert self.assert_same(G)[0].passed
            got, want = self.assert_same(G, weight=10)
            assert got.passed == (m == 1)

    @pytest.mark.parametrize("kind", [NormKind.SUP, NormKind.ONE],
                             ids=lambda k: k.value)
    def test_block_at_its_exact_slack(self, kind):
        # an exact kind compares at tolerance 0: the full block made
        # heavier by its least slack still passes, by a hair more fails
        G = seeded_measure(621, 4, kind)
        full = G.space.full_set()
        slack = min(sum((exact_norm(G.atom_values[t], j) for t in range(4)),
                        Fraction(0)) - exact_norm(evaluate(G, full), j)
                    for j in range(2))
        for weight, passed in ((slack, True),
                               (slack + Fraction(1, 10 ** 9), False)):
            got, want = self.assert_same(G, weight=weight, masks={15})
            assert got.passed == want.passed == passed

    def test_near_misses_within_the_tolerance(self):
        # with tol > 0 the sweep and the partitions part: {a, b} and
        # {c, d} each miss by 3/5 of tol, which passes, but the partition
        # of both misses by 6/5 of tol
        space = MeasureSpace.build(list("abcd"), [1] * 4)
        codomain = ModuleSpace(2, 1, NormKind.TWO)
        G = VectorMeasure(space, codomain, tuple(
            ModuleVector(codomain, (L(1), L(x))) for x in (1, 1, 2, 2)))
        cfg = ToleranceConfig(compare_tol=Fraction(1, 1000))
        weights = {"weight": Fraction(3, 5000), "masks": {0b0011, 0b1100}}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vecmeasure, "_subset_norms", heavy_blocks(
                vecmeasure._subset_norms, **weights))
            assert variation(G, cfg).passed
        want = partition_variation(G, cfg, **weights)
        assert not want.passed
        assert want.witness == {"partition": [["a", "b"], ["c", "d"]],
                                "coordinate": 0}

    @pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
    def test_heavy_blocks_fail_alike(self, kind):
        got, _ = self.assert_same(seeded_measure(603, 4, kind), weight=10)
        assert not got.passed and got.failures > 1
        assert got.witness == {"partition": [["a0", "a1"], ["a2"], ["a3"]],
                               "coordinate": 0}

    def test_each_block_is_evaluated_once(self, monkeypatch):
        # one subset table per coordinate holds every block's norm, and no
        # block is evaluated as a vector
        calls = []
        real = vecmeasure._subset_norms
        monkeypatch.setattr(vecmeasure, "_subset_norms", lambda G, j, cfg: (
            calls.append(j), real(G, j, cfg))[1])
        monkeypatch.setattr(vecmeasure, "evaluate", None)
        assert variation(seeded_measure(604, 5, NormKind.SUP)).passed
        assert calls == [0, 1]


class TestRnDensity:
    def test_spec_example(self, space3, G3):
        g, result = rn_density(G3)
        assert g.values[0].entries[0] == L(2, 2)
        assert g.values[1].entries[0] == L(2, 3)
        assert g.values[2].entries[0] == L(0, 0)
        assert result.details["verified_sets"] == 8

    def test_not_absolutely_continuous(self, space3):
        # the null atom c is charged: the density is zero there, and its
        # singleton, the third in bitmask order, fails the check
        bad = vm(space3, L(2, 2), L(4, 6), L(1, 0))
        g, result = rn_density(bad)
        assert g.values[2].is_zero()
        assert not result.passed
        assert result.witness == {"subset": [space3.atom_names[2]]}
        assert result.details["verified_sets"] == 4

    def test_construct_then_solve_roundtrip(self):
        rng = rng_for(43, 3)
        codomain = ModuleSpace(2, 2, NormKind.ONE)
        for _ in range(100):
            from lbochner.sampling import random_measure_space
            space = random_measure_space(rng, 5, null_atoms=1)
            g = LFunction(space, codomain, tuple(
                random_module_vector(rng, codomain) for _ in range(5)))
            G = VectorMeasure.from_density(g)
            back, _ = rn_density(G)
            for t in range(5):
                if space.masses[t] > 0:
                    assert back.values[t] == g.values[t]
                else:
                    assert back.values[t].is_zero()

    def test_density_reintegrates(self, space3, G3):
        g, _ = rn_density(G3)
        for F in all_subsets(space3):
            assert integrate_over(g, F) == evaluate(G3, F)


def seeded_measure(seed, m, kind, null_atoms=1):
    rng = rng_for(seed, m)
    codomain = ModuleSpace(2, 2, kind)
    space = random_measure_space(rng, m, null_atoms=null_atoms)
    g = LFunction(space, codomain, tuple(
        random_module_vector(rng, codomain) for _ in range(m)))
    return VectorMeasure.from_density(g)


def off_integral(atom):
    """integrate_over, one unit too large in entry 0 on every set that
    contains the given atom."""
    def integral(f, E):
        value = bochner.integrate_over(f, E)
        if atom in E.members:
            return value + basis_vector(f.codomain, 0)
        return value
    return integral


def wide_measure(seed, m, kind, rank, d):
    """64-bit numerators and denominators, as in the benchmark's documents;
    above one atom, atom 1 is null and carries the zero value."""
    rng = rng_for(seed, m, rank, d)
    bound = 2 ** 64 - 1
    masses = [Fraction(rng.randint(1, bound), rng.randint(1, bound))
              for _ in range(m)]
    codomain = ModuleSpace(rank, d, kind)
    values = [ModuleVector(codomain, tuple(
                  LElement([Fraction(rng.randint(-bound, bound),
                                     rng.randint(1, bound))
                            for _ in range(d)])
                  for _ in range(rank)))
              for _ in range(m)]
    if m > 1:
        masses[1] = Fraction(0)
        values[1] = codomain.zero()
    space = MeasureSpace.build([f"a{t}" for t in range(m)], masses)
    return VectorMeasure(space, codomain, tuple(values))


def exact_norm(x, j):
    """Coordinate j of an exact (sup or one) norm, by Fraction arithmetic."""
    column = [abs(e[j]) for e in x.entries]
    if x.space.norm_kind is NormKind.SUP:
        return max(column)
    return sum(column)


class TestSubsetTables:
    """The prefix-sum tables against the per-subset sums they replaced."""

    def test_subset_sums_by_bitmask(self):
        terms = [2, 3, -5]
        got = subset_sums(terms)
        assert len(got) == 8
        for mask, total in enumerate(got):
            assert total == sum(terms[i] for i in range(3) if mask >> i & 1)

    @staticmethod
    def assert_series_matches(G):
        expected = []
        for F in all_subsets(G.space):
            value = evaluate(G, F)
            norms = [certified.mid(e)
                     for e in norm_ends(value, DEFAULT_TOLERANCES)]
            if G.codomain.norm_kind is not NormKind.TWO:
                # the table reads its norms off the integer subset sums,
                # norm_ends through column_norms: both are the exact norm
                assert norms == [exact_norm(value, j)
                                 for j in range(G.codomain.scalar_dim)]
            expected.append({"mu": measure_of(F), "value_norm": norms})
        rep = check_mu_continuity(G)
        assert rep.passed
        assert rep.series == expected

    @pytest.mark.parametrize("m,kind", [
        (6, NormKind.SUP), (7, NormKind.TWO), (10, NormKind.ONE)])
    def test_mu_continuity_series(self, m, kind):
        self.assert_series_matches(seeded_measure(505, m, kind))

    @pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("m,rank,d", [
        (1, 1, 1), (1, 3, 3), (10, 1, 3), (10, 3, 1)])
    def test_mu_continuity_series_wide(self, m, rank, d, kind):
        self.assert_series_matches(wide_measure(509, m, kind, rank, d))

    @pytest.mark.parametrize("m,kind", [(6, NormKind.SUP), (10, NormKind.TWO)])
    def test_density_identity_table(self, m, kind):
        G = seeded_measure(506, m, kind)
        density, result = rn_density(G)
        assert result.passed and result.witness is None
        assert result.details["verified_sets"] == 2 ** m
        for F in all_subsets(G.space):
            assert evaluate(G, F) == integrate_over(density, F)

    def test_corrupted_atom_value_fails(self, monkeypatch):
        # the density term of atom a2 one unit off: the table first
        # disagrees on the singleton {a2}, mask 4, after masks 0..3 agreed
        G = seeded_measure(508, 6, NormKind.SUP)
        monkeypatch.setattr(vecmeasure, "integrate_over", off_integral(2))
        density, result = rn_density(G)
        assert not result.passed
        assert result.witness == {"subset": ["a2"]}
        assert result.details["verified_sets"] == 4


class TestDensityBySingletons:
    """rn_density compares the singletons only: both sides of the identity
    are sums over the atoms of F, so agreement on every singleton is
    agreement on all 2**m subsets, at any m.  Twelve atoms give a power
    set of 4096 subsets that the solver never enumerates."""

    def test_twelve_atoms_verify_every_subset(self):
        G = seeded_measure(507, 12, NormKind.TWO)
        density, result = rn_density(G)
        assert result.passed and result.witness is None
        assert result.details["verified_sets"] == 2 ** 12
        rng = rng_for(507, 0)
        for _ in range(200):
            F = subset_of_mask(G.space, rng.randrange(2 ** 12))
            assert evaluate(G, F) == integrate_over(density, F)

    def test_twelve_atoms_corrupted_atom_fails(self, monkeypatch):
        G = seeded_measure(508, 12, NormKind.SUP)
        monkeypatch.setattr(vecmeasure, "integrate_over", off_integral(9))
        density, result = rn_density(G)
        assert not result.passed
        assert result.witness == {"subset": ["a9"]}
        assert result.details["verified_sets"] == 2 ** 9


class TestRnpProbe:
    def test_distance_bound_and_matrix(self):
        for d in (1, 2):
            rep = rnp_probe(4, 4, d=d)
            assert rep.passed, rep.witness
            one, half = LElement.unit(d), LElement.constant(Fraction(1, 2), d)
            assert rep.details["variation"] == one
            assert rep.details["martingale_gaps"] == [one] * 4
            # fair-sign sets differ on half the mass: G(A) stays 1/2 apart
            assert [row["distances"] for row in rep.series] == [
                [LElement.zero(d) if a == b else half for b in range(4)]
                for a in range(4)]

    def test_single_set_trivial(self):
        rep = rnp_probe(2, 1)
        assert rep.passed
        assert len(rep.series) == 1

    def test_sets_capped_by_levels(self):
        with pytest.raises(ValueError):
            rnp_probe(2, 3)

    @pytest.mark.parametrize("n_sets", [0, -2])
    def test_empty_family_refused(self, n_sets):
        # no fair-sign set would be compared, and the probe would pass
        with pytest.raises(ValueError):
            rnp_probe(2, n_sets)

    def test_martingale_gap_witness(self, monkeypatch):
        # negative control: every gap measured twice as long
        real = vecmeasure.lp_norm
        monkeypatch.setattr(vecmeasure, "lp_norm",
                            lambda f, handle, cfg: real(f, handle, cfg).scale(2))
        rep = rnp_probe(3, 3)
        assert rep.witness == {"stage": "martingale", "level": 0,
                               "value": LElement.constant(2, 1)}
        assert rep.failures == 3

    def test_levels_refused_before_building(self, monkeypatch):
        monkeypatch.setattr(vecmeasure, "_indicator_measure", None)
        with pytest.raises(ValueError, match="levels above"):
            rnp_probe(vecmeasure.RNP_PROBE_MAX_LEVELS + 1, 1)
