"""Module-valued set functions: additivity, absolute continuity, variation,
the density solver, and the probe that replays the failure of the
Radon-Nikodym property in L1 on dyadic spaces.

A set function is stored by its atom values, which makes it finitely
additive by construction; on a finite space the variation supremum is
attained at the atomic partition (certified by refinement monotonicity)."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, FrozenSet, List, Tuple

from . import certified
from .falgebra import DEFAULT_TOLERANCES, Frozen, LElement, ToleranceConfig
from .bochner import LFunction, integrate_over, lp_norm
from .lmodule import (
    ModuleSpace,
    ModuleVector,
    NormKind,
    collapse,
    norm,
    norm_ends,
)
from .measure import (
    MeasurableSet,
    MeasureSpace,
    SpaceMismatch,
    dyadic_space,
    enumerate_partitions,
    rademacher_set,
    subset_sums,
)
from .reports import CheckReport


class VectorMeasure(Frozen):
    __slots__ = ("space", "codomain", "atom_values")

    def __init__(self, space: MeasureSpace, codomain: ModuleSpace,
                 atom_values: Tuple[ModuleVector, ...]):
        if len(atom_values) != space.size:
            raise ValueError("one value per atom required")
        for v in atom_values:
            if v.space != codomain:
                raise SpaceMismatch("atom value outside the declared codomain")
        self._set("space", space)
        self._set("codomain", codomain)
        self._set("atom_values", atom_values)

    @classmethod
    def from_density(cls, g: LFunction) -> "VectorMeasure":
        vals = tuple(
            integrate_over(g, g.space.singleton(t))
            for t in range(g.space.size))
        return cls(g.space, g.codomain, vals)


def evaluate(G: VectorMeasure, F: MeasurableSet) -> ModuleVector:
    if F.space != G.space:
        raise SpaceMismatch("set on a different measure space")
    acc = G.codomain.zero()
    for t in sorted(F.members):
        acc = acc + G.atom_values[t]
    return acc


CONTINUITY_TABLE_MAX_ATOMS = 10


def check_mu_continuity(G: VectorMeasure,
                        cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Passes iff every null atom carries the zero value; up to
    ``CONTINUITY_TABLE_MAX_ATOMS`` atoms also emits the (mu(F), ||G(F)||)
    modulus table over all subsets.

    The atoms decide the verdict: mu(F) = 0 only when every atom of F is
    null, and G(F) is the sum of their values, so a subset can fail only
    through a null atom that already failed on its own.

    The table is summed in integers: the masses over their least common
    multiple, and for each scalar coordinate every entry of every atom
    value over one common denominator, one ``subset_sums`` per rank entry.
    Each subset's coordinate norm is taken from those integer sums
    directly, with no further common denominator, and each reported number
    is reduced once, into its ``Fraction``; a two-norm's radicand goes
    through ``root_bracket`` and ``mid`` as in ``norm_ends``."""
    report = CheckReport(name="mu-continuity",
                         details={"atoms": G.space.size})
    for t, mass in enumerate(G.space.masses):
        if mass == 0 and not G.atom_values[t].is_zero():
            report.fail({"atom": G.space.atom_names[t]})

    if G.space.size <= CONTINUITY_TABLE_MAX_ATOMS:
        masses = G.space.masses
        mass_den = math.lcm(*(q.denominator for q in masses))
        mus = subset_sums([q.numerator * (mass_den // q.denominator)
                           for q in masses])
        columns = [_norm_column(G, j, cfg)
                   for j in range(G.codomain.scalar_dim)]
        report.series = [
            {"mu": Fraction(mu, mass_den), "value_norm": list(norms)}
            for mu, norms in zip(mus, zip(*columns))]
    return report


def _norm_column(G: VectorMeasure, j: int,
                 cfg: ToleranceConfig) -> List[Fraction]:
    """Coordinate j of ||G(F)|| for every subset F, in bitmask order.  Every
    subset sum is over den: the sup and one-norm are the largest and the
    summed modulus over den, the two-norm's radicand n**2 over den**2."""
    entries = [v.entries for v in G.atom_values]
    rank = range(G.codomain.rank)
    den = math.lcm(*(e[i].dens[j] for e in entries for i in rank))
    rows = zip(*(subset_sums([e[i].nums[j] * (den // e[i].dens[j])
                              for e in entries]) for i in rank))
    kind = G.codomain.norm_kind
    if kind is NormKind.TWO:
        bits, den2 = cfg.root_bits + 2, den * den
        return [certified.mid(lo + hi) for lo, hi in (
            certified.root_bracket(Fraction(sum(n * n for n in row), den2),
                                   2, bits) for row in rows)]
    step = max if kind is NormKind.SUP else sum
    return [Fraction(step(map(abs, row)), den) for row in rows]


VARIATION_EXHAUSTIVE_MAX_ATOMS = 5


def variation(G: VectorMeasure,
              cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Total variation: the norm sum over the atoms.  Up to
    ``VARIATION_EXHAUSTIVE_MAX_ATOMS`` atoms every partition is enumerated
    and certified dominated by it; the witness names the first partition
    and coordinate that is not.  Each block's norm is taken once: at m = 5
    the 52 partitions have 151 blocks, 31 of them distinct."""
    d = G.codomain.scalar_dim
    norms: Dict[FrozenSet[int], List[certified.Ends]] = {}

    def norm_sum(blocks) -> List[certified.Ends]:
        total = [certified.exact(0)] * d
        for B in blocks:
            if B.members not in norms:
                norms[B.members] = norm_ends(evaluate(G, B), cfg)
            total = list(map(certified.add, total, norms[B.members]))
        return total

    m = G.space.size
    total = norm_sum(G.space.singleton(t) for t in range(m))
    exhaustive = m <= VARIATION_EXHAUSTIVE_MAX_ATOMS
    report = CheckReport(name="variation", details={
        "variation": collapse(total),
        "exhaustive_checked": exhaustive,
        "blocks": m})
    if exhaustive:
        tol = certified.tol_for(cfg.compare_tol, total)
        for partition in enumerate_partitions(G.space):
            candidate = norm_sum(partition.blocks)
            for j in range(d):
                report.at_most(candidate[j], total[j], tol, lambda _: {
                    "partition": [B.names() for B in partition.blocks],
                    "coordinate": j})
    return report


def density(G: VectorMeasure) -> LFunction:
    """The solution g of G(F) = integral of g over F, by atomwise division:
    g(t) = G({t}) / mu(t), and zero at every null atom.  A null atom that G
    charges has no density; g is zero there all the same, and
    ``rn_density``'s singleton check is what fails on it."""
    vals = []
    for t, mass in enumerate(G.space.masses):
        if mass == 0:
            vals.append(G.codomain.zero())
        else:
            vals.append(G.atom_values[t].scale_rational(
                Fraction(mass.denominator, mass.numerator)))
    return LFunction(G.space, G.codomain, tuple(vals))


def rn_density(G: VectorMeasure) -> Tuple[LFunction, CheckReport]:
    """``density(G)``, verified on every singleton.  The two sides stay
    independent: G(F) is built from G's atom values, the integral from
    mu(t) * g(t).

    Both sides are sums over the atoms of F, so agreement on the singletons
    is agreement on all 2**m subsets.  In bitmask order the first failing
    subset is the singleton of the smallest failing atom t, mask 2**t, so
    the witness is that singleton with 2**t subsets verified before it; a
    pass verifies all 2**m.  A null atom that G charges, where no density
    exists, fails here: its integral is zero and its value is not."""
    g = density(G)
    report = CheckReport(name="rn-density",
                         details={"verified_sets": 1 << G.space.size})
    for t in range(G.space.size):
        integral = integrate_over(g, G.space.singleton(t))
        if G.atom_values[t].entries != integral.entries:
            report.fail({"subset": [G.space.atom_names[t]]})
            report.details["verified_sets"] = 1 << t
            break
    return g, report


RNP_PROBE_MAX_LEVELS = 8


def _indicator_measure(levels: int, n: int, d: int) -> VectorMeasure:
    """G(F) = 1_F in L1 of the level-``levels`` dyadic space, restricted to
    the level-n dyadic algebra.  L1 is the one-norm module with one entry
    per fine atom t, holding mu(t) times the function's value there, so the
    value at the level-n atom I is mu(t) * 1 at each fine atom t inside I
    and 0 elsewhere.  Level 0 is the trivial algebra: one atom of mass 1,
    named by the empty binary address."""
    space = dyadic_space(n) if n else MeasureSpace.build([""], [1])
    fine = 1 << levels
    X = ModuleSpace(fine, d, NormKind.ONE)
    mass, zero = LElement.constant(Fraction(1, fine), d), LElement.zero(d)
    width = fine >> n
    return VectorMeasure(space, X, tuple(
        ModuleVector(X, tuple(mass if t // width == i else zero
                              for t in range(fine)))
        for i in range(space.size)))


def rnp_probe(levels: int, n_sets: int, d: int = 1,
              cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Replays the failure of the Radon-Nikodym property in L1 (Diestel &
    Uhl, *Vector Measures*, ch. III) on the level-``levels`` dyadic space
    with G(F) = 1_F, in three exact stages, each of which can fail:

    1. variation: |G|(S) = mu(S) = 1 in every coordinate;
    2. separation: ||G(A_a) - G(A_b)|| = 1/2 for the first ``n_sets``
       fair-sign sets, a != b; the series is the distance matrix;
    3. martingale: the density g_n of G on the level-n dyadic algebra
       passes ``rn_density``, and lifted to the fine atoms
       ||g_{n+1} - g_n|| = 1 in L1(mu; L1) for n < levels, so the
       martingale (g_n) is not Cauchy.

    The witness names the first failing stage, where it failed and the
    offending value."""
    if levels > RNP_PROBE_MAX_LEVELS:
        raise ValueError(f"levels above {RNP_PROBE_MAX_LEVELS} rejected "
                         f"(4**levels entries)")
    if not 1 <= n_sets <= levels:
        # an empty fair-sign family would compare nothing and still pass
        raise ValueError("n_sets must be between 1 and levels")
    measures = [_indicator_measure(levels, n, d) for n in range(levels + 1)]
    G = measures[-1]
    space = G.space
    report = CheckReport(name="rnp-probe",
                         details={"levels": levels, "n_sets": n_sets})

    var = variation(G, cfg)
    report.absorb(var, stage="variation")
    # an L1 norm, so exact: an LElement
    for j, value in enumerate(var.details["variation"].coords):
        if value != 1:
            report.fail({"stage": "variation", "coordinate": j,
                         "value": value})

    half = LElement.constant(Fraction(1, 2), d)
    values = [evaluate(G, rademacher_set(space, n + 1))
              for n in range(n_sets)]
    matrix = [[norm(a - b, cfg) for b in values] for a in values]
    for a, row in enumerate(matrix):
        for b, dist in enumerate(row):
            if a != b and dist != half:
                report.fail({"stage": "separation", "pair": [a, b],
                             "value": dist})
    report.series = [{"row": a, "distances": row}
                     for a, row in enumerate(matrix)]

    lifted = []
    for n, G_n in enumerate(measures):
        g, density = rn_density(G_n)
        if not density.passed:
            report.fail({"stage": "martingale", "level": n,
                         "density": density.witness})
        width = space.size // G_n.space.size
        lifted.append(LFunction(space, G.codomain, tuple(
            g.values[t // width] for t in range(space.size))))
    one = Fraction(1)
    gaps = [lp_norm(h - g, one, cfg) for g, h in zip(lifted, lifted[1:])]
    for n, gap in enumerate(gaps):
        if gap != LElement.unit(d):
            report.fail({"stage": "martingale", "level": n, "value": gap})
    report.details.update(variation=var.details["variation"],
                          martingale_gaps=gaps)
    return report
