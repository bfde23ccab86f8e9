"""Module-valued set functions: additivity, absolute continuity, variation,
the density solver, and the probe that replays the failure of the
Radon-Nikodym property in L1 on dyadic spaces.

A set function is stored by its atom values, which makes it finitely
additive by construction; on a finite space the variation supremum is
attained at the atomic partition (certified by the subset sweep)."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

from . import certified
from .falgebra import DEFAULT_TOLERANCES, Frozen, LElement, ToleranceConfig
from .bochner import LFunction, integrate_over, lp_norm
from .lmodule import (
    ModuleSpace,
    ModuleVector,
    NormKind,
    collapse,
    norm,
)
from .measure import (
    MeasurableSet,
    MeasureSpace,
    SpaceMismatch,
    TooManySubsets,
    dyadic_space,
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

    The masses are summed in integers over their least common multiple,
    and the norms are ``_subset_norms``'s brackets.  Each reported number
    is reduced once, into its ``Fraction``: an exact norm from its
    unreduced ends, a two-norm as its bracket's ``mid``."""
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
        columns = [_subset_norms(G, j, cfg)
                   for j in range(G.codomain.scalar_dim)]
        if G.codomain.norm_kind is NormKind.TWO:
            columns = [list(map(certified.mid, ends)) for ends in columns]
        else:
            columns = [[Fraction(n, d) for n, d, _, _ in ends]
                       for ends in columns]
        report.series = [
            {"mu": Fraction(mu, mass_den), "value_norm": list(norms)}
            for mu, norms in zip(mus, zip(*columns))]
    return report


def _subset_norms(G: VectorMeasure, j: int,
                  cfg: ToleranceConfig) -> List[certified.Ends]:
    """Coordinate j of ||G(F)|| for every subset F, in bitmask order, as
    brackets; the one source of subset norms for the mu-continuity table
    and the variation sweep.  Each entry of G(F) is one integer subset sum
    over a common denominator den: the sup and one-norm are exact, the
    largest and the summed modulus over den, and left unreduced; the
    two-norm brackets the root of the radicand n**2 over den**2, with ends
    in lowest terms."""
    entries = [v.entries for v in G.atom_values]
    rank = range(G.codomain.rank)
    den = math.lcm(*(e[i].dens[j] for e in entries for i in rank))
    rows = zip(*(subset_sums([e[i].nums[j] * (den // e[i].dens[j])
                              for e in entries]) for i in rank))
    kind = G.codomain.norm_kind
    if kind is NormKind.TWO:
        bits, den2 = cfg.root_bits + 2, den * den
        return [lo + hi for lo, hi in (
            certified.root_bracket(Fraction(sum(n * n for n in row), den2),
                                   2, bits) for row in rows)]
    step = max if kind is NormKind.SUP else sum
    return [(n := step(map(abs, row)), den, n, den) for row in rows]


def variation(G: VectorMeasure,
              cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Total variation |G|(S), the supremum over partitions of the sum of
    their blocks' norms, reported as the atomic sum and certified to be
    it: the atomic partition attains the supremum exactly when ||G(B)|| <=
    the sum of ||G({t})|| over t in B for every B of two or more atoms
    (Diestel & Uhl, *Vector Measures*, ch. I.1).  A partition's slack
    against the atomic sum is the sum of its blocks' slacks, so the sweep
    over those 2**m - m - 1 subsets decides what every partition decides;
    with a tolerance, blocks that each miss by less than it pass, though
    a partition of several of them may miss by more.  The witness is the
    first failing B in bitmask order and its coordinate, named as the
    partition of B and singletons.

    Every norm comes from ``_subset_norms``; each B's atom sum is an
    integer subset sum of the atoms' ends over their common denominator.
    Refused above ``CONTINUITY_TABLE_MAX_ATOMS`` atoms, where no subset
    table is built."""
    space = G.space
    m = space.size
    if m > CONTINUITY_TABLE_MAX_ATOMS:
        raise TooManySubsets(f"variation: {m} atoms exceeds the subset "
                             f"table cap {CONTINUITY_TABLE_MAX_ATOMS}")
    columns, total = [], []
    for j in range(G.codomain.scalar_dim):
        norms = _subset_norms(G, j, cfg)
        atoms = [norms[1 << t] for t in range(m)]
        lo_den = math.lcm(*(e[1] for e in atoms))
        hi_den = math.lcm(*(e[3] for e in atoms))
        sums = [(lo, lo_den, hi, hi_den) for lo, hi in zip(
            subset_sums([e[0] * (lo_den // e[1]) for e in atoms]),
            subset_sums([e[2] * (hi_den // e[3]) for e in atoms]))]
        columns.append((norms, sums))
        total.append(certified.reduced(*sums[-1][:2])
                     + certified.reduced(*sums[-1][2:]))

    report = CheckReport(name="variation", details={
        "variation": collapse(total), "exhaustive_checked": True,
        "blocks": m})
    tol = certified.tol_for(cfg.compare_tol, total)
    for mask in range(3, 1 << m):
        if mask & (mask - 1):  # two or more atoms
            for j, (norms, sums) in enumerate(columns):
                report.at_most(norms[mask], sums[mask], tol, lambda _: {
                    "partition": _with_singletons(space, mask),
                    "coordinate": j})
    return report


def _with_singletons(space: MeasureSpace, mask: int) -> List[List[str]]:
    """The partition of the atoms into the subset ``mask`` and singletons,
    each block's names sorted, blocks in the order of their least atom."""
    low = (mask & -mask).bit_length() - 1
    block = space.subset(t for t in range(space.size) if mask >> t & 1)
    return [block.names() if t == low else [space.atom_names[t]]
            for t in range(space.size) if t == low or not mask >> t & 1]


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

    1. variation: |G|(S) = mu(S) = 1 in every coordinate, with |G|(S) the
       atomic sum of the norms, which on a finite space it is wherever
       ``variation`` passes; that sweep is not run on the 2**levels atoms;
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

    # the atomic sum of L1 norms, so exact: an LElement
    var = sum((norm(value, cfg) for value in G.atom_values),
              LElement.zero(d))
    for j, value in enumerate(var.coords):
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
    report.details.update(variation=var, martingale_gaps=gaps)
    return report
