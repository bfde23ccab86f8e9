from fractions import Fraction

import pytest

from lbochner import duality, vecmeasure
from lbochner.bochner import (
    INF,
    LFunction,
    lp_norm,
)
from lbochner.duality import (
    LpOperator,
    bootstrap_lower_bound,
    build_F,
    isometry_check,
    operator_norm_ends,
    pairing,
    represent,
    roundtrip_check,
)
from lbochner.falgebra import DEFAULT_TOLERANCES, LElement, ToleranceConfig
from lbochner.lmodule import (
    ModuleSpace,
    ModuleVector,
    NormKind,
    collapse,
    contract,
)
from lbochner.measure import MeasureSpace, SpaceMismatch
from lbochner.sampling import (
    random_lelement,
    random_measure_space,
    random_module_vector,
    rng_for,
)
from lbochner.vecmeasure import VectorMeasure, rn_density
from support import all_subsets, basis_vector, indicator_times


def L(*coords):
    return LElement(list(coords))


def value_brackets(value):
    """A norm result, an exact element or a tuple of ``ApproxReal``s, as
    one pair of fractions per coordinate."""
    if isinstance(value, LElement):
        return [(q, q) for q in value.coords]
    return [(a.value - a.abs_error_bound, a.value + a.abs_error_bound)
            for a in value]


PRIMAL = ModuleSpace(1, 2, NormKind.SUP)
DUAL = PRIMAL.dual()


def dual_fn(space, *coeff_elements, dual=DUAL):
    """A dual function: an LFunction into the dual module, one rank-one
    value per atom."""
    return LFunction(space, dual, tuple(
        ModuleVector(dual, (c,)) for c in coeff_elements))


def random_dual(rng, space, primal):
    dual = primal.dual()
    return LFunction(space, dual, tuple(
        random_module_vector(rng, dual) for _ in range(space.size)))


@pytest.fixture
def two_atoms():
    return MeasureSpace.build(["a", "b"], [1, 1])


# modules other than PRIMAL.dual(): the primal module itself and another
# kind (at rank one every kind is the modulus, yet the kind still counts),
# another rank and another scalar dimension
OTHER_MODULES = [PRIMAL, ModuleSpace(1, 2, NormKind.TWO),
                 ModuleSpace(2, 2, NormKind.ONE),
                 ModuleSpace(1, 1, NormKind.ONE)]
OTHER_IDS = ["primal", "other-kind", "other-rank", "other-dim"]


class TestPairing:
    def test_example(self, two_atoms):
        u = LFunction(two_atoms, PRIMAL, (
            ModuleVector(PRIMAL, (L(1, 0),)),
            ModuleVector(PRIMAL, (L(0, 1),)),
        ))
        v = dual_fn(two_atoms, L(2, 3), L(2, 3))
        assert pairing(u, v) == L(2, 3)

    def test_zero_dual(self, two_atoms):
        rng = rng_for(51, 1)
        v = dual_fn(two_atoms, L(0, 0), L(0, 0))
        for _ in range(10):
            u = LFunction(two_atoms, PRIMAL, tuple(
                random_module_vector(rng, PRIMAL) for _ in range(2)))
            assert pairing(u, v) == L(0, 0)

    def test_indicator_consistency_with_measure(self, two_atoms):
        # pairing against x * 1_F equals the induced set function at F
        rng = rng_for(52, 2)
        v = dual_fn(two_atoms, random_lelement(rng, 2), random_lelement(rng, 2))
        x = ModuleVector(PRIMAL, (random_lelement(rng, 2),))
        for F in all_subsets(two_atoms):
            u = indicator_times(x, F)
            expected = LElement.zero(2)
            for t in sorted(F.members):
                expected = expected + contract(
                    v.values[t].entries, x.entries).scale(two_atoms.masses[t])
            assert pairing(u, v) == expected

    @pytest.mark.parametrize("codomain", OTHER_MODULES, ids=OTHER_IDS)
    def test_v_outside_the_dual_module_refused(self, two_atoms, codomain):
        u = LFunction.zero(two_atoms, PRIMAL)
        with pytest.raises(SpaceMismatch, match="functions cannot be paired"):
            pairing(u, LFunction.zero(two_atoms, codomain))

    def test_v_on_another_space_refused(self, two_atoms):
        u = LFunction.zero(two_atoms, PRIMAL)
        other = MeasureSpace.build(["a", "b"], [1, 2])
        with pytest.raises(SpaceMismatch, match="functions cannot be paired"):
            pairing(u, LFunction.zero(other, DUAL))


class TestBuildF:
    def test_agrees_with_pairing_on_seeded_inputs(self, two_atoms):
        rng = rng_for(53, 3)
        v = dual_fn(two_atoms, random_lelement(rng, 2), random_lelement(rng, 2))
        H = build_F(v, Fraction(1))
        for _ in range(100):
            u = LFunction(two_atoms, PRIMAL, tuple(
                random_module_vector(rng, PRIMAL) for _ in range(2)))
            assert H(u) == pairing(u, v)

    def test_zero_dual_gives_zero_operator(self, two_atoms):
        v = dual_fn(two_atoms, L(0, 0), L(0, 0))
        H = build_F(v, Fraction(2))
        assert all(c.is_zero() for row in H.basis_action for c in row)

    def test_single_atom_action(self):
        space = MeasureSpace.build(["a"], ["2/3"])
        v = dual_fn(space, L(3, -6))
        H = build_F(v, Fraction(1))
        assert H.basis_action[0][0] == L(2, -4)

    @pytest.mark.parametrize("codomain", [DUAL, *OTHER_MODULES[1:]],
                             ids=["dual", *OTHER_IDS[1:]])
    def test_call_outside_the_domain_refused(self, two_atoms, codomain):
        H = build_F(dual_fn(two_atoms, L(1, 2), L(3, 4)), Fraction(1))
        assert H.codomain == PRIMAL
        assert H(LFunction.zero(two_atoms, PRIMAL)) == L(0, 0)
        with pytest.raises(SpaceMismatch, match="operator's domain"):
            H(LFunction.zero(two_atoms, codomain))
        other = MeasureSpace.build(["a", "b"], [1, 2])
        with pytest.raises(SpaceMismatch, match="operator's domain"):
            H(LFunction.zero(other, PRIMAL))


class TestOperatorNorm:
    def test_p1_example(self, two_atoms):
        v = dual_fn(two_atoms, L(3, 1), L(4, 1))
        H = build_F(v, Fraction(1))
        assert collapse(operator_norm_ends(H)) == L(4, 1)

    def test_zero_operator(self, two_atoms):
        v = dual_fn(two_atoms, L(0, 0), L(0, 0))
        H = build_F(v, Fraction(2))
        assert collapse(operator_norm_ends(H)) == L(0, 0)

    def test_p2_single_atom_cauchy_schwarz(self):
        space = MeasureSpace.build(["a"], [1])
        v = dual_fn(space, L(2, -3))
        H = build_F(v, Fraction(2))
        assert collapse(operator_norm_ends(H)) == L(2, 3)

    def test_null_atom_charge_rejected(self):
        # a map that charges a null atom is not defined on L^p: it never
        # reaches operator_norm_ends
        space = MeasureSpace.build(["a", "b"], [1, 0])
        with pytest.raises(ValueError, match="atom 'b' has zero mass"):
            LpOperator(space, PRIMAL, ((L(1, 1),), (L(1, 0),)), Fraction(1))


class TestIsometry:
    def test_p1_example(self, two_atoms):
        v = dual_fn(two_atoms, L(3, 1), L(4, 1))
        rep = isometry_check(v, Fraction(1))
        assert rep.passed
        assert rep.details["operator_norm"] == L(4, 1)
        assert rep.details["dual_norm"] == L(4, 1)
        assert all(g == 0 for g in rep.details["gaps"])

    def test_zero_dual(self, two_atoms):
        v = dual_fn(two_atoms, L(0, 0), L(0, 0))
        rep = isometry_check(v, Fraction(1))
        assert rep.passed

    def test_sup_primal_is_measured_in_the_one_norm(self):
        # rank two over a sup-norm primal: the atom value (1, -2) has
        # one-norm 3, where a swapped kind would give its sup norm 2
        space = MeasureSpace.build(["a"], [1])
        primal = ModuleSpace(2, 1, NormKind.SUP)
        v = LFunction(space, primal.dual(), (
            ModuleVector(primal.dual(), (L(1), L(-2))),))
        assert build_F(v, Fraction(1)).codomain == primal
        rep = isometry_check(v, Fraction(1))
        assert rep.passed
        assert rep.details["operator_norm"] == L(3)
        assert rep.details["dual_norm"] == L(3)

    def test_p2_single_atom(self):
        space = MeasureSpace.build(["a"], [1])
        v = dual_fn(space, L(3, 4))
        rep = isometry_check(v, Fraction(2))
        assert rep.passed
        for iv in value_brackets(rep.details["operator_norm"]):
            assert iv[0] <= 3 or iv[0] <= 4  # brackets around |coefficient|

    def test_failing_chain_step_is_the_witness(self, monkeypatch):
        # negative control: lift the lhs of chain step n = 2 at coordinate 1
        # above its rhs; the norms still agree, so only the chain can fail
        real = duality.power_sums_from_atom_ends
        steps = []

        def lifted(atom_norms, masses, s, cfg):
            lhs = real(atom_norms, masses, s, cfg)
            steps.append(s)
            if len(steps) == 3:
                ln, ld, hn, hd = lhs[1]
                lhs[1] = (ln + ld, ld, hn + hd, hd)
            return lhs

        monkeypatch.setattr(duality, "power_sums_from_atom_ends", lifted)
        space = MeasureSpace.build(["a"], [1])
        v = dual_fn(space, L(3, 4))
        rep = isometry_check(v, Fraction(2))
        assert not rep.passed
        assert rep.witness == {"stage": "bootstrap", "n": 2, "coordinate": 1}
        assert all(g == 0 for g in rep.details["gaps"])
        assert len(steps) == 7  # n = 0..6 with the default bootstrap_n

    def test_exactness_p1_sup_and_one(self):
        rng = rng_for(55, 5)
        for kind in (NormKind.SUP, NormKind.ONE):
            primal = ModuleSpace(2, 2, kind)
            for _ in range(100):
                space = random_measure_space(rng, 3)
                v = random_dual(rng, space, primal)
                rep = isometry_check(v, Fraction(1))
                assert rep.passed
                assert all(g == 0 for g in rep.details["gaps"])


class TestChainVerdictAgainstFullBootstrap:
    """isometry_check runs the exponent chain without its reported series
    and limit.  Its chain verdict and witness must be those of the full
    bootstrap run on the same brackets: that run fails a chain step first
    if it fails one at all, since the limit comes after every step.  At
    six steps the full run's limit fails on seeded data (the truncation
    gap is far above 2**-20), which the chain verdict must not see."""

    @staticmethod
    def _lift_step(monkeypatch, p, k, j):
        # the lhs of chain step k at coordinate j one unit too large, keyed
        # by the step's exponent so that every run on v is doctored alike
        s_k = sum(Fraction(1) / p ** n for n in range(k + 1))
        real = duality.power_sums_from_atom_ends

        def lifted(atom_norms, masses, s, cfg):
            sums = real(atom_norms, masses, s, cfg)
            if s == s_k:
                ln, ld, hn, hd = sums[j]
                sums[j] = (ln + ld, ld, hn + hd, hd)
            return sums

        monkeypatch.setattr(duality, "power_sums_from_atom_ends", lifted)

    @staticmethod
    def _full_run(v, p):
        full = bootstrap_lower_bound(v, p, 6, DEFAULT_TOLERANCES)
        assert len(full.series) == 7 and "limit_gaps" in full.details
        return full

    @pytest.mark.parametrize("lift", [None, (0, 0), (2, 1), (6, 0)],
                             ids=["clean", "step0", "step2", "step6"])
    @pytest.mark.parametrize("p", [Fraction(2), Fraction(3)])
    def test_seeded_duals(self, p, lift, monkeypatch):
        if lift is not None:
            self._lift_step(monkeypatch, p, *lift)
        rng = rng_for(61, int(p))
        stages = []
        for kind in (NormKind.SUP, NormKind.ONE, NormKind.TWO):
            primal = ModuleSpace(2, 2, kind)
            for _ in range(2):
                v = random_dual(rng, random_measure_space(rng, 3), primal)
                rep = isometry_check(v, p)
                full = self._full_run(v, p)
                stage = ("pass" if full.passed
                         else full.witness.get("stage", "chain"))
                stages.append(stage)
                expected = ({"stage": "bootstrap", **full.witness}
                            if stage == "chain" else None)
                assert rep.witness == expected
                assert rep.passed == (expected is None)
        assert len(stages) >= 4
        assert ("limit" in stages) if lift is None else ("chain" in stages)


class TestBootstrap:
    def test_single_atom_constant(self):
        space = MeasureSpace.build(["a"], [1])
        v = dual_fn(space, L(2), dual=ModuleSpace(1, 1, NormKind.ONE))
        rep = bootstrap_lower_bound(v, Fraction(2), 20)
        assert rep.passed
        # equality throughout: lhs_n = 2**s_n = rhs_n
        for row in rep.series:
            assert row["lhs"] == row["rhs"]

    def test_constant_norm_consistency(self):
        # constant atom norms c: the q-norm is c * mu(S)**(1/q)
        space = MeasureSpace.build(["a", "b"], ["1/2", "1/2"])
        v = dual_fn(space, L("3/2"), L("-3/2"),
                    dual=ModuleSpace(1, 1, NormKind.ONE))
        rep = bootstrap_lower_bound(v, Fraction(2), 20)
        assert rep.passed
        target = value_brackets(rep.details["target_norm"])[0]
        assert target[0] <= Fraction(3, 2) <= target[1]

    def test_n0_is_single_holder_step(self, two_atoms):
        v = dual_fn(two_atoms, L(1, 2), L(3, "1/2"))
        rep = bootstrap_lower_bound(v, Fraction(2), 0,
                                    limit_tol=Fraction(10))  # limit vacuous
        assert rep.passed
        assert len(rep.series) == 1

    def test_zero_norm_atom_runs_the_chain(self, two_atoms):
        # atom a's norm is zero in coordinate 1: each step is Hölder's
        # inequality, which holds at zero, and none divides
        v = dual_fn(two_atoms, L(1, 0), L(1, 1))
        rep = bootstrap_lower_bound(v, Fraction(2), 3,
                                    limit_tol=Fraction(10))  # limit vacuous
        assert rep.passed
        assert len(rep.series) == 4
        assert rep.series[0]["lhs"] == [2, 1]  # the sum of mu * x at s = 1

    def test_chain_holds_to_n20_with_tight_limit(self):
        from lbochner.cli import _bootstrap_dual
        for seed in range(5):
            v = _bootstrap_dual(seed, 3, 2)
            rep = bootstrap_lower_bound(v, Fraction(2), 20)
            assert rep.passed
            for gap in rep.details["limit_gaps"]:
                assert gap <= Fraction(1, 2 ** 20)


class TestRepresent:
    def test_roundtrip_oracle(self, two_atoms):
        rng = rng_for(56, 6)
        v = dual_fn(two_atoms, random_lelement(rng, 2), random_lelement(rng, 2))
        H = build_F(v, Fraction(1))
        back, check = represent(H)
        assert check.passed
        assert back == v

    def test_zero_operator(self, two_atoms):
        H = LpOperator(two_atoms, PRIMAL,
                       ((L(0, 0),), (L(0, 0),)), Fraction(1))
        v, check = represent(H)
        assert check.passed
        assert all(f.is_zero() for f in v.values)

    def test_null_atom_concentration_rejected(self):
        # no operator concentrates on a null atom; the measure it would
        # induce has no density, and represent's verification fails there
        space = MeasureSpace.build(["a", "b"], [1, 0])
        rows = ((L(0, 0),), (L(1, 0),))
        with pytest.raises(ValueError, match="atom 'b' has zero mass"):
            LpOperator(space, PRIMAL, rows, Fraction(1))
        dual = PRIMAL.dual()
        G = VectorMeasure(space, dual, tuple(
            ModuleVector(dual, row) for row in rows))
        v, check = rn_density(G)
        assert all(f.is_zero() for f in v.values)
        assert check.witness == {"subset": ["b"]}


class TestRepresentOffBasis:
    """represent() verifies the singletons only; by linearity it then
    agrees with the operator on every input, which seeded random inputs
    confirm here."""

    @staticmethod
    def _operator(p, kind):
        rng = rng_for(59, int(p), ord(kind.value[0]))
        primal = ModuleSpace(2, 2, kind)
        space = random_measure_space(rng, 4, null_atoms=1)
        return build_F(random_dual(rng, space, primal), p), rng

    @pytest.mark.parametrize("kind", [NormKind.SUP, NormKind.TWO])
    @pytest.mark.parametrize("p", [Fraction(1), Fraction(2)])
    def test_agrees_on_random_inputs(self, p, kind):
        H, rng = self._operator(p, kind)
        v, check = represent(H)
        assert check.passed
        for _ in range(25):
            u = LFunction(H.space, H.codomain, tuple(
                random_module_vector(rng, H.codomain)
                for _ in range(H.space.size)))
            assert H(u) == pairing(u, v)


def evaluated_basis_witness(H, v):
    """The reference for ``represent``'s verification: H and the pairing
    evaluated on each u = e_i * 1_t in (t, i) order, each call contracting
    over all m * k entries.  The first disagreement's atom, or None."""
    for t in range(H.space.size):
        for i in range(H.codomain.rank):
            u = indicator_times(
                basis_vector(H.codomain, i), H.space.singleton(t))
            if H(u) != pairing(u, v):
                return H.space.atom_names[t]
    return None


def checked_basis_witness(H, v, monkeypatch):
    """The first atom at which ``represent``'s one verification, the
    singleton check of ``rn_density``, rejects v as the density of
    ``induced_measure(H)``, or None."""
    with monkeypatch.context() as patch:
        patch.setattr(vecmeasure, "density", lambda G: v)
        _, check = rn_density(duality.induced_measure(H))
    return None if check.passed else check.witness["subset"][0]


class TestBasisRowsAgainstEvaluation:
    """The singleton check that ``represent`` runs compares H's rows with
    mu(t) * v(t); it gives the evaluating loop's verdict and atom on seeded
    pairs and on every single doctored coefficient of v.  No operator
    charges a null atom, and a measure that does fails the check there."""

    @staticmethod
    def _pairs(kind, null_atoms):
        rng = rng_for(62, ord(kind.value[0]), null_atoms)
        primal = ModuleSpace(2, 2, kind)
        for p in (Fraction(1), Fraction(2), INF):
            space = random_measure_space(rng, 3, null_atoms=null_atoms)
            v = random_dual(rng, space, primal)
            yield build_F(v, p), v

    @staticmethod
    def _off_by_one(v, t, i, j):
        values = list(v.values)
        entries = list(values[t].entries)
        coords = list(entries[i].coords)
        coords[j] += 1
        entries[i] = LElement(coords)
        values[t] = ModuleVector(v.codomain, tuple(entries))
        return LFunction(v.space, v.codomain, tuple(values))

    @pytest.mark.parametrize("null_atoms", [0, 1])
    @pytest.mark.parametrize("kind", [NormKind.SUP, NormKind.ONE,
                                      NormKind.TWO])
    def test_same_verdict_and_witness(self, kind, null_atoms, monkeypatch):
        failing = 0
        for H, v in self._pairs(kind, null_atoms):
            assert checked_basis_witness(H, v, monkeypatch) is None
            assert evaluated_basis_witness(H, v) is None
            for t in range(H.space.size):
                for i in range(H.codomain.rank):
                    for j in range(H.codomain.scalar_dim):
                        w = self._off_by_one(v, t, i, j)
                        witness = evaluated_basis_witness(H, w)
                        assert checked_basis_witness(H, w, monkeypatch) \
                            == witness
                        # the pairing ignores null atoms, and only them
                        assert (witness is None) == (H.space.masses[t] == 0)
                        failing += witness is not None
        assert failing == 3 * (3 - null_atoms) * 2 * 2

    @pytest.mark.parametrize("kind", [NormKind.SUP, NormKind.ONE,
                                      NormKind.TWO])
    def test_nonzero_row_at_a_null_atom(self, kind):
        for H, v in self._pairs(kind, 1):
            t = H.space.masses.index(0)
            name = H.space.atom_names[t]
            G = duality.induced_measure(H)
            for i in range(H.codomain.rank):
                rows = list(H.basis_action)
                rows[t] = tuple(L(0, 0) if k != i else L(0, -3)
                                for k in range(H.codomain.rank))
                with pytest.raises(ValueError,
                                   match=f"atom {name!r} has zero mass"):
                    LpOperator(H.space, H.codomain, tuple(rows),
                               H.declared_p)
                values = list(G.atom_values)
                values[t] = ModuleVector(G.codomain, rows[t])
                _, check = rn_density(VectorMeasure(G.space, G.codomain,
                                                    tuple(values)))
                assert check.witness == {"subset": [name]}
                assert check.details["verified_sets"] == 1 << t


class TestRoundtrip:
    def test_p1_sup_exact(self):
        rep = roundtrip_check(Fraction(1), trials=30, seed=77)
        assert rep.passed
        for row in rep.series:
            assert all(g == 0 for g in row["gap"])

    def test_p2_within_tolerance(self):
        cfg = ToleranceConfig()
        rep = roundtrip_check(Fraction(2), trials=30, seed=78)
        assert rep.passed
        for row in rep.series:
            assert all(g <= cfg.compare_tol for g in row["gap"])

    def test_witness_is_the_first_failing_atom(self, monkeypatch):
        # every coefficient of the represented density one too large: every
        # positive-mass atom of every trial fails, and the first one counts
        real = duality.represent

        def shifted(H):
            v, check = real(H)
            return LFunction(v.space, v.codomain, tuple(
                ModuleVector(f.space, tuple(c + LElement.unit(c.dim)
                                            for c in f.entries))
                for f in v.values)), check

        monkeypatch.setattr(duality, "represent", shifted)
        rep = roundtrip_check(Fraction(2), 3, 42)
        assert not rep.passed
        space = random_measure_space(rng_for(42, 0), 3, null_atoms=1)
        first = next(t for t, mass in enumerate(space.masses) if mass > 0)
        # represent_back's one witness shape, as dual represent gives it
        # (tests/test_cli.py::TestFailurePaths::test_off_density)
        assert rep.witness == {"trial": 0, "stage": "dual-roundtrip",
                               "atom": space.atom_names[first]}

    def test_trivial_space_scalar_duality(self):
        # one positive-mass atom beside the null one, rank one, scalar
        # dimension one: |F_v| = |v|
        rep = roundtrip_check(Fraction(1), trials=10, seed=79,
                              m=2, rank=1, scalar_dim=1)
        assert rep.passed


class TestLinearity:
    def test_pairing_linear_in_dual(self, two_atoms):
        rng = rng_for(57, 7)
        for _ in range(100):
            v = dual_fn(two_atoms, random_lelement(rng, 2),
                        random_lelement(rng, 2))
            w = dual_fn(two_atoms, random_lelement(rng, 2),
                        random_lelement(rng, 2))
            alpha = random_lelement(rng, 2)
            u = LFunction(two_atoms, PRIMAL, tuple(
                random_module_vector(rng, PRIMAL) for _ in range(2)))
            lhs = pairing(u, v.scale(alpha) + w)
            rhs = alpha * pairing(u, v) + pairing(u, w)
            assert lhs == rhs


class TestBoundedness:
    @pytest.mark.parametrize("p,q", [(Fraction(1), INF),
                                     (Fraction(2), Fraction(2)),
                                     (INF, Fraction(1))])
    def test_pairing_bounded_by_norm_product(self, p, q):
        cfg = ToleranceConfig()
        rng = rng_for(58, 0 if p is INF else int(p))
        primal = ModuleSpace(1, 2, NormKind.SUP)
        for _ in range(300):
            space = random_measure_space(rng, 3)
            u = LFunction(space, primal, tuple(
                random_module_vector(rng, primal) for _ in range(3)))
            v = random_dual(rng, space, primal)
            lhs = abs(pairing(u, v))
            nu = value_brackets(lp_norm(u, p))
            nv = value_brackets(lp_norm(v, q))
            for j in range(2):
                bound_hi = nu[j][1] * nv[j][1]
                tol = 0 if (nu[j][0] == nu[j][1] and nv[j][0] == nv[j][1]) \
                    else cfg.compare_tol
                assert lhs[j] <= bound_hi + tol
