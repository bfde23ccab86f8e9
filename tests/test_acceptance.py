"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here: exact checks use no tolerance at all, bracketed
comparisons use compare_tol = 2**-30, and the exponent-chain limit uses
2**-20 at n = 20.
"""

import functools
import time
from fractions import Fraction

import pytest

from lbochner import cli
from lbochner.bochner import (
    LFunction,
    TruncatedSequenceSpec,
    check_holder,
    check_minkowski,
    check_chebyshev_step,
    run_completeness_harness,
    run_dct_experiment,
    verify_sup_representation,
)
from lbochner.duality import (
    bootstrap_lower_bound,
    isometry_check,
    roundtrip_check,
)
from lbochner.falgebra import LElement, ToleranceConfig
from lbochner.lmodule import (
    ModuleSpace,
    ModuleVector,
    NormKind,
    check_norm_axioms,
)
from lbochner.measure import MeasureSpace
from lbochner.sampling import (
    random_lelement,
    random_measure_space,
    random_module_vector,
    rng_for,
)
from lbochner.vecmeasure import (
    VectorMeasure,
    rn_density,
    rnp_probe,
    variation,
)

CFG = ToleranceConfig()  # root_tol 2**-40, compare_tol 2**-30
COMPARE_TOL = Fraction(1, 2 ** 30)
LIMIT_TOL = Fraction(1, 2 ** 20)


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {title}")
                raise
            print(f"criterion {number:2d} PASS  {title}")
        return wrapper
    return deco


@criterion(1, "f-algebra ring/lattice laws, 10000 triples, exact, <5s")
def test_criterion_01_falgebra_laws():
    rng = rng_for(1001)

    def draw(d):
        # each numerator in [-9, 9] drawn before its denominator in [1, 9]
        return LElement([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                         for _ in range(d)])

    start = time.monotonic()
    for i in range(10_000):
        d = 1 + i % 8
        a, b, c = draw(d), draw(d), draw(d)
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
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(2, "norm axioms, 1000 samples per kind (two-norm within 2**-30)")
def test_criterion_02_norm_axioms():
    for kind in (NormKind.SUP, NormKind.ONE, NormKind.TWO):
        rng = rng_for(1002, ord(kind.value[0]))
        space = ModuleSpace(2, 2, kind)
        samples = []
        for _ in range(1000):
            lam = random_lelement(rng, 2)
            samples.append((lam, random_module_vector(rng, space),
                            random_module_vector(rng, space)))
        report = check_norm_axioms(space, samples, CFG)
        assert report.passed, (kind, report.witness)


@criterion(3, "Holder and Minkowski, 1000 pairs at (1,inf),(2,2),(3,3/2)")
def test_criterion_03_holder_minkowski():
    codomain = ModuleSpace(1, 2, NormKind.SUP)
    for p in (Fraction(1), Fraction(2), Fraction(3)):
        rng = rng_for(1003, int(p))
        for _ in range(1000):
            space = random_measure_space(rng, 3)
            u = LFunction(space, codomain, tuple(
                random_module_vector(rng, codomain) for _ in range(3)))
            v = LFunction(space, codomain, tuple(
                random_module_vector(rng, codomain) for _ in range(3)))
            hrep = check_holder(u, v.moved_to(codomain.dual()), p, CFG)
            assert hrep.passed, (p, hrep.witness)
            if p == 1:
                assert hrep.details["tolerance"] == 0
            mrep = check_minkowski(u, v, p, CFG)
            assert mrep.passed, (p, mrep.witness)


@criterion(4, "sup representation decided over all 2**m subsets, "
              "<1s at m=10 and m=16")
def test_criterion_04_sup_representation():
    codomain = ModuleSpace(1, 2, NormKind.SUP)
    rng = rng_for(1004)
    for m in (4, 7, 10, 16):
        space = random_measure_space(rng, m)
        f = LFunction(space, codomain, tuple(
            random_module_vector(rng, codomain) for _ in range(m)))
        start = time.monotonic()
        rep = verify_sup_representation(f, Fraction(2), CFG)
        elapsed = time.monotonic() - start
        assert rep.passed, rep.witness
        assert rep.details["subsets"] == 2 ** m
        if m >= 10:
            assert elapsed < 1.0, f"took {elapsed:.2f}s at m={m}"


@criterion(5, "Chebyshev step exact on 1000 samples incl. tight case")
def test_criterion_05_chebyshev():
    codomain = ModuleSpace(1, 2, NormKind.SUP)
    rng = rng_for(1005)
    for _ in range(1000):
        space = random_measure_space(rng, 3)
        h = LFunction(space, codomain, tuple(
            random_module_vector(rng, codomain) for _ in range(3)))
        hn = LFunction(space, codomain, tuple(
            random_module_vector(rng, codomain) for _ in range(3)))
        gamma = Fraction(rng.randint(1, 9), 10)
        rep = check_chebyshev_step([hn], h, gamma, CFG)
        assert rep.passed, rep.witness
    # tight case: constant difference equal to gamma gives equality
    space = MeasureSpace.build(["a", "b"], [1, "3/2"])
    mod1 = ModuleSpace(1, 1, NormKind.SUP)
    gamma = Fraction(2, 7)
    h = LFunction.zero(space, mod1)
    hn = LFunction(space, mod1, tuple(
        ModuleVector(mod1, (LElement([gamma]),)) for _ in range(2)))
    rep = check_chebyshev_step([hn], h, gamma, CFG)
    assert rep.passed
    assert all(row["slack"] == 0 for row in rep.series)


@criterion(6, "DCT on tail_mass 2**-20: error under 2*phi*tail + 2**-10 by n=12")
def test_criterion_06_dct():
    spec = cli._dct_spec(1006, 20)
    assert spec.tail_mass == Fraction(1, 2 ** 20)
    rep = run_dct_experiment(spec, 12, CFG)
    assert rep.passed, rep.witness
    threshold = 2 * spec.scalar_bound * spec.tail_mass + Fraction(1, 2 ** 10)
    final = rep.series[-1]
    assert final["n"] == 12
    for coord in final["error"]:
        assert coord < threshold
    # negative control: an undersized dominator fails the report at the
    # first term and atom whose value leaves it, and ends the series there
    small = Fraction(1, 4096)
    bad = TruncatedSequenceSpec(
        space=spec.space, codomain=spec.codomain, term=spec.term,
        limit=spec.limit, dominator=tuple(LElement([small, small])
                                          for _ in range(spec.space.size)),
        scalar_bound=spec.scalar_bound, tail_mass=spec.tail_mass)
    rep = run_dct_experiment(bad, 4, CFG)
    assert not rep.passed
    n, t = next((n, t) for n in range(5) for t in range(spec.space.size)
                if any(abs(c) > small
                       for c in spec.term(n, t).entries[0].coords))
    assert rep.witness == {"n": n, "atom": spec.space.atom_names[t],
                           "dominator_violated": True}
    assert [row["n"] for row in rep.series] == list(range(n))


@criterion(7, "completeness: residual 2**-n ||w||_1 exact on 100 instances")
def test_criterion_07_completeness():
    codomain = ModuleSpace(2, 2, NormKind.SUP)
    for i in range(100):
        rng = rng_for(1007, i)
        space = random_measure_space(rng, 3, normalize=True)
        rep = run_completeness_harness(space, codomain, Fraction(1),
                                       seed=1007 + i, n_terms=6, cfg=CFG)
        assert rep.passed, rep.witness
        norm_w = rep.details["norm_w"]
        for row in rep.series:
            expected = [q / 2 ** row["n"] for q in norm_w.coords]
            assert row["residual"] == expected


@criterion(8, "variation attained at the atomic partition, 200 measures, exact")
def test_criterion_08_variation():
    codomain = ModuleSpace(1, 2, NormKind.SUP)
    rng = rng_for(1008)
    for i in range(200):
        m = 2 + i % 4  # up to five atoms: exhaustive partition range
        space = random_measure_space(rng, m)
        G = VectorMeasure(space, codomain, tuple(
            random_module_vector(rng, codomain) for _ in range(m)))
        result = variation(G, CFG)
        assert result.details["exhaustive_checked"]
        assert result.details["blocks"] == m


@criterion(9, "density round-trip on 500 instances; 100 corrupted rejected")
def test_criterion_09_rn_density():
    codomain = ModuleSpace(2, 2, NormKind.SUP)
    rng = rng_for(1009)
    for i in range(500):
        m = 3 + i % 4
        space = random_measure_space(rng, m, null_atoms=1)
        g = LFunction(space, codomain, tuple(
            random_module_vector(rng, codomain) for _ in range(m)))
        G = VectorMeasure.from_density(g)
        back, _ = rn_density(G)
        for t in range(m):
            if space.masses[t] > 0:
                assert back.values[t] == g.values[t]
    rejected = 0
    for i in range(100):
        m = 3 + i % 4
        space = random_measure_space(rng, m, null_atoms=1)
        null_atom = next(t for t in range(m) if space.masses[t] == 0)
        values = [random_module_vector(rng, codomain) for _ in range(m)]
        while values[null_atom].is_zero():
            values[null_atom] = random_module_vector(rng, codomain)
        G = VectorMeasure(space, codomain, tuple(values))
        _, check = rn_density(G)
        # the charged null atom is the one failing singleton
        if (check.witness == {"subset": [space.atom_names[null_atom]]}
                and check.details["verified_sets"] == 1 << null_atom):
            rejected += 1
    assert rejected == 100


def random_dual_function(rng, space, primal):
    """A dual function: one random vector of the dual module per atom."""
    dual = primal.dual()
    return LFunction(space, dual, tuple(
        random_module_vector(rng, dual) for _ in range(space.size)))


@criterion(10, "isometry exact at p=1; gap <= 2**-30 at p=2; chain to n=20")
def test_criterion_10_isometry_and_bootstrap():
    # p = 1, q = inf: exact equality under both exact module norms
    for kind in (NormKind.SUP, NormKind.ONE):
        primal = ModuleSpace(2, 2, kind)
        rng = rng_for(1010, ord(kind.value[0]))
        for _ in range(500):
            space = random_measure_space(rng, 3)
            v = random_dual_function(rng, space, primal)
            rep = isometry_check(v, Fraction(1), CFG)
            assert rep.passed
            assert all(g == 0 for g in rep.details["gaps"])

    # p = q = 2: bracketed equality within compare_tol
    primal = ModuleSpace(2, 2, NormKind.TWO)
    rng = rng_for(1010, 2)
    for _ in range(500):
        space = random_measure_space(rng, 3)
        v = random_dual_function(rng, space, primal)
        rep = isometry_check(v, Fraction(2), CFG, bootstrap_n=2)
        assert rep.passed
        assert all(g <= COMPARE_TOL for g in rep.details["gaps"])

    # exponent chain to n = 20 with the limit within 2**-20
    for i in range(25):
        v = cli._bootstrap_dual(1010 + i, 3, 2)
        rep = bootstrap_lower_bound(v, Fraction(2), 20, CFG,
                                    limit_tol=LIMIT_TOL)
        assert rep.passed, rep.witness
        assert all(g <= LIMIT_TOL for g in rep.details["limit_gaps"])


@criterion(11, "surjectivity round-trip on 500 trials, exact")
def test_criterion_11_surjectivity_roundtrip():
    rep = roundtrip_check(Fraction(1), trials=500, seed=1011)
    assert rep.passed, rep.witness
    for row in rep.series:
        assert all(g == 0 for g in row["gap"])


@criterion(12, "RNP probe: variation 1, distances 1/2, martingale gaps 1, "
               "levels <= 6")
def test_criterion_12_rnp_probe():
    one, half = LElement.unit(1), LElement.constant(Fraction(1, 2), 1)
    for levels in range(1, 7):
        rep = rnp_probe(levels, levels, d=1, cfg=CFG)
        assert rep.passed, rep.witness
        assert rep.details["variation"] == one
        assert rep.details["martingale_gaps"] == [one] * levels
        assert len(rep.series) == levels  # the emitted distance matrix
        for row in rep.series:
            assert all(dist == half
                       for b, dist in enumerate(row["distances"])
                       if b != row["row"])


@criterion(13, "determinism: suite all --seed 42 byte-identical, <2 min")
def test_criterion_13_determinism(tmp_path):
    start = time.monotonic()
    outputs = []
    for name in ("first.json", "second.json"):
        target = tmp_path / name
        code = cli.main(["suite", "all", "--seed", "42", "--out", str(target)])
        assert code == 0
        outputs.append(target.read_bytes())
    elapsed = time.monotonic() - start
    assert outputs[0] == outputs[1]
    assert elapsed < 120.0, f"suite pair took {elapsed:.1f}s"
