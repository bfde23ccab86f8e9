"""Module-valued set functions: additivity, absolute continuity, variation,
the density solver, and the density-failure probe on dyadic spaces.

A set function is stored by its atom values, which makes it finitely
additive by construction; on a finite space the variation supremum is
attained at the atomic partition (certified by refinement monotonicity)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from . import certified
from .falgebra import (
    DEFAULT_TOLERANCES,
    LElement,
    ToleranceConfig,
    ZeroDivisor,
)
from .bochner import LFunction, integrate_over
from .lmodule import (
    ModuleSpace,
    ModuleVector,
    NormKind,
    collapse_intervals,
    norm_intervals,
)
from .measure import (
    MeasurableSet,
    MeasureSpace,
    Partition,
    SpaceMismatch,
    atomic_partition,
    dyadic_space,
    enumerate_partitions,
    measure_of,
    rademacher_set,
    subset_sums,
)
from .reports import CheckReport


class NotAbsolutelyContinuous(ValueError):
    """A zero-mass atom carries a nonzero value: no density can exist."""


@dataclass(frozen=True)
class VectorMeasure:
    space: MeasureSpace
    codomain: ModuleSpace
    atom_values: Tuple[ModuleVector, ...]

    def __post_init__(self):
        if len(self.atom_values) != self.space.size:
            raise ValueError("one value per atom required")
        for v in self.atom_values:
            if v.space != self.codomain:
                raise SpaceMismatch("atom value outside the declared codomain")

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
    through a null atom that already failed on its own."""
    report = CheckReport(name="mu-continuity",
                         details={"atoms": G.space.size})
    for t, mass in enumerate(G.space.masses):
        if mass == 0 and not G.atom_values[t].is_zero():
            report.fail({"atom": G.space.atom_names[t]})

    if G.space.size <= CONTINUITY_TABLE_MAX_ATOMS:
        kind = G.codomain.norm_kind
        masses = subset_sums(G.space.masses, Fraction(0))
        values = subset_sums(G.atom_values, G.codomain.zero())
        report.series = [
            {"mu": mu,
             "value_norm": [certified.mid(iv)
                            for iv in norm_intervals(val.entries, kind, cfg)]}
            for mu, val in zip(masses, values)]
    return report


def _partition_norm_sum(G: VectorMeasure, partition: Partition,
                        cfg: ToleranceConfig) -> List[certified.Interval]:
    d = G.codomain.scalar_dim
    total = [certified.exact(Fraction(0))] * d
    kind = G.codomain.norm_kind
    for block in partition.blocks:
        norms = norm_intervals(evaluate(G, block).entries, kind, cfg)
        total = [certified.iadd(a, b) for a, b in zip(total, norms)]
    return total


VARIATION_EXHAUSTIVE_MAX_ATOMS = 5


def variation(G: VectorMeasure,
              cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Total variation: the norm sum over the atomic partition.  Up to
    ``VARIATION_EXHAUSTIVE_MAX_ATOMS`` atoms every partition is enumerated
    and certified dominated by it; the witness names the first partition
    and coordinate that is not."""
    atomic = atomic_partition(G.space)
    total = _partition_norm_sum(G, atomic, cfg)
    exhaustive = G.space.size <= VARIATION_EXHAUSTIVE_MAX_ATOMS
    report = CheckReport(name="variation", details={
        "variation": collapse_intervals(total),
        "exhaustive_checked": exhaustive,
        "blocks": len(atomic.blocks)})
    if exhaustive:
        tol = certified.tol_for(cfg.compare_tol, total)
        for partition in enumerate_partitions(G.space):
            candidate = _partition_norm_sum(G, partition, cfg)
            for j in range(G.codomain.scalar_dim):
                if not certified.leq_with_slack(candidate[j], total[j], tol)[0]:
                    report.fail({"partition": [B.names()
                                               for B in partition.blocks],
                                 "coordinate": j})
    return report


def rn_density(G: VectorMeasure) -> Tuple[LFunction, CheckReport]:
    """Solves G(F) = integral of g over F for g by atomwise division and
    verifies the identity on every singleton.  The two sides stay
    independent: G(F) is built from G's atom values, the integral from
    mu(t) * g(t).

    Both sides are sums over the atoms of F, so agreement on the singletons
    is agreement on all 2**m subsets.  In bitmask order the first failing
    subset is the singleton of the smallest failing atom t, mask 2**t, so
    the witness is that singleton with 2**t subsets verified before it; a
    pass verifies all 2**m."""
    vals = []
    for t, mass in enumerate(G.space.masses):
        if mass == 0:
            if not G.atom_values[t].is_zero():
                raise NotAbsolutelyContinuous(
                    f"atom {G.space.atom_names[t]!r} has zero mass but "
                    f"nonzero value")
            vals.append(G.codomain.zero())
        else:
            vals.append(G.atom_values[t].scale_rational(Fraction(1) / mass))
    g = LFunction(G.space, G.codomain, tuple(vals))

    report = CheckReport(name="rn-density",
                         details={"verified_sets": 1 << G.space.size})
    for t in range(G.space.size):
        integral = integrate_over(g, G.space.singleton(t))
        if G.atom_values[t].entries != integral.entries:
            report.fail({"subset": [G.space.atom_names[t]]})
            report.details["verified_sets"] = 1 << t
            break
    return g, report


def solve_self_consistency(block_masses: List[Fraction], d: int) -> List[LElement]:
    """Positive solutions of x**2 = mass**2 per block, the fixed point that
    makes the probe's operator well-defined."""
    out = []
    for i, mass in enumerate(block_masses):
        if mass == 0:
            raise ZeroDivisor(f"block {i} has zero mass; the fixed point "
                              f"would have a zero coordinate")
        out.append(LElement.constant(mass, d))
    return out


def rnp_probe(levels: int, n_sets: int, d: int = 1,
              cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Replays the density-failure construction on a dyadic space.

    (i) solves the self-consistency equation on a disjoint block family and
    verifies the positive root equals the block mass exactly; (ii) checks
    absolute continuity and the variation bound through the operator norm;
    (iii) builds the fair-sign set family and verifies the displayed
    distance bound |T(1_A) - T(1_B)| <= mu(A delta B) exactly, emitting the
    pairwise distance matrix."""
    if not 1 <= n_sets <= levels:
        # an empty fair-sign family would compare nothing and still pass
        raise ValueError("n_sets must be between 1 and levels")
    space = dyadic_space(levels)
    half_blocks = space.size // 2
    blocks = [space.subset((2 * i, 2 * i + 1)) for i in range(half_blocks)]
    block_masses = [measure_of(B) for B in blocks]

    # (i) fixed point: G(B)**2 = mu(B)**2, positive root
    g_blocks = solve_self_consistency(block_masses, d)
    fixed_point_ok = all(
        g_blocks[i] == LElement.constant(block_masses[i], d)
        and (g_blocks[i] * g_blocks[i]
             == LElement.constant(block_masses[i] ** 2, d))
        for i in range(half_blocks))

    # induced operator: T(u) = sum_j integral over block j of u; since the
    # blocks cover the space this is integration against the unit density
    codomain = ModuleSpace(1, d, NormKind.SUP)
    unit_vec = ModuleVector(codomain, (LElement.unit(d),))
    G = VectorMeasure(space, codomain, tuple(
        unit_vec.scale_rational(mass) for mass in space.masses))

    def T(u: LFunction) -> LElement:
        total = LElement.zero(d)
        for B in blocks:
            total = total + integrate_over(u, B).entries[0]
        return total

    # (ii) absolute continuity and the variation bound with ||T|| = 1
    continuity = check_mu_continuity(G, cfg)
    operator_norm_value = LElement.unit(d)  # ess-sup of the unit density
    variation_ok = True
    for partition in (atomic_partition(space),
                      Partition(tuple(blocks))):
        for B in partition.blocks:
            lhs = abs(T(LFunction.indicator_times(unit_vec, B)))
            indicator_l1 = measure_of(B)
            rhs = operator_norm_value.scale(indicator_l1)
            if not (lhs <= rhs):
                variation_ok = False

    # (iii) fair-sign family distances
    fam = [rademacher_set(space, n + 1) for n in range(n_sets)]
    t_values = [T(LFunction.indicator_times(unit_vec, F)) for F in fam]
    matrix = []
    bound_ok = True
    for a in range(n_sets):
        row = []
        for b in range(n_sets):
            dist = abs(t_values[a] - t_values[b])
            delta = measure_of(fam[a].symmetric_difference(fam[b]))
            if not (dist <= LElement.constant(delta, d)):
                bound_ok = False
            row.append(dist)
        matrix.append(row)

    report = CheckReport(
        name="rnp-probe",
        details={
            "levels": levels,
            "n_sets": n_sets,
            "block_masses": block_masses,
            "fixed_point_equals_mass": fixed_point_ok,
            "mu_continuity": continuity.passed,
            "variation_bound": variation_ok,
            "distance_bound": bound_ok,
            "pairwise_sym_diff_measure": Fraction(1, 2) if n_sets > 1 else None,
            "reference_separation_half": space.total_mass / 2,
            "reference_separation_third": space.total_mass / 3,
        },
        series=[{"row": a, "distances": matrix[a]} for a in range(n_sets)],
    )
    if not (fixed_point_ok and continuity.passed and variation_ok
            and bound_ok):
        report.fail({"stage": "see details"})
    return report
