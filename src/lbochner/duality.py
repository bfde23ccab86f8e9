"""The dual representation machinery: the integral pairing, operator norms
on the p-norm function spaces, the isometry verification with its exponent
bootstrap and essential-sup case, and the surjectivity round-trip through
the density solver.

On a finite atomic base the function space is a free module of rank m*k, so
every bounded linear map into the scalars is determined by its action on
the canonical basis; representing that action as a set function and solving
for its density turns the surjectivity proof into a verified round-trip.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import certified
from .certified import Interval
from .falgebra import (
    DEFAULT_TOLERANCES,
    LElement,
    ToleranceConfig,
)
from .bochner import (
    Exponent,
    INF,
    LFunction,
    conjugate_exponent,
    is_conjugate_pair,
    lp_from_atom_norms,
    power_sums_from_atom_norms,
)
from .lmodule import (
    Functional,
    ModuleSpace,
    ModuleVector,
    NormKind,
    NormValue,
    alignment_vector,
    apply,
    collapse_intervals,
    dual_kind,
    norm_intervals,
)
from .measure import MeasureSpace, SpaceMismatch
from .reports import CheckReport
from .sampling import (
    random_functional,
    random_measure_space,
    rng_for,
)
from .vecmeasure import NotAbsolutelyContinuous, VectorMeasure, rn_density


class ZeroNorm(ValueError):
    """The bootstrap's division needs strictly positive atom norms."""


class RepresentationMismatch(AssertionError):
    """``represent`` failed its own verification; ``witness`` names the
    stage (density or basis) and where."""

    def __init__(self, witness: dict):
        super().__init__(f"representation failed: {witness}")
        self.witness = witness


@dataclass(frozen=True)
class DualFunction:
    """A map atom -> functional on the primal module: a member of the
    conjugate-exponent function space."""

    space: MeasureSpace
    values: Tuple[Functional, ...]

    def __post_init__(self):
        if len(self.values) != self.space.size:
            raise ValueError("one functional per atom required")
        primal = self.values[0].space
        for f in self.values:
            if f.space != primal:
                raise SpaceMismatch("functionals on different module spaces")

    @property
    def primal_space(self) -> ModuleSpace:
        return self.values[0].space

    def __add__(self, other: "DualFunction") -> "DualFunction":
        if self.space != other.space:
            raise SpaceMismatch("dual functions on different measure spaces")
        return DualFunction(self.space, tuple(
            a + b for a, b in zip(self.values, other.values)))

    def scale(self, lam: LElement) -> "DualFunction":
        return DualFunction(self.space, tuple(
            f.scale(lam) for f in self.values))


@dataclass(frozen=True)
class LpOperator:
    """A bounded linear map from the p-norm function space to the scalars,
    stored by its action on the canonical basis e_i * 1_atom."""

    space: MeasureSpace
    codomain: ModuleSpace  # the primal module space of the functions acted on
    basis_action: Tuple[Tuple[LElement, ...], ...]  # [atom][entry]
    declared_p: Exponent

    def __post_init__(self):
        if len(self.basis_action) != self.space.size:
            raise ValueError("one basis row per atom required")
        for row in self.basis_action:
            if len(row) != self.codomain.rank:
                raise ValueError("basis row length must equal the rank")

    def __call__(self, u: LFunction) -> LElement:
        if u.space != self.space:
            raise SpaceMismatch("function on a different measure space")
        if (u.codomain.rank != self.codomain.rank
                or u.codomain.scalar_dim != self.codomain.scalar_dim):
            raise SpaceMismatch("function has an incompatible codomain")
        acc = LElement.zero(self.codomain.scalar_dim)
        for t in range(self.space.size):
            row = self.basis_action[t]
            val = u.values[t]
            for i in range(self.codomain.rank):
                acc = acc + row[i] * val.entries[i]
        return acc


def pairing(u: LFunction, v: DualFunction) -> LElement:
    """Integral of v(t)(u(t)): the action of the represented operator."""
    if u.space != v.space:
        raise SpaceMismatch("different measure spaces")
    primal = v.primal_space
    if (u.codomain.rank != primal.rank
            or u.codomain.scalar_dim != primal.scalar_dim):
        raise SpaceMismatch("incompatible ranks")
    acc = LElement.zero(primal.scalar_dim)
    for t, mass in enumerate(u.space.masses):
        if mass == 0:
            continue
        acc = acc + apply(v.values[t], u.values[t]).scale(mass)
    return acc


def build_F(v: DualFunction, p: Exponent) -> LpOperator:
    """The operator with action row v(t) * mu(t), so that applying it
    agrees with the pairing against v."""
    rows = tuple(
        tuple(c.scale(v.space.masses[t]) for c in v.values[t].coeffs)
        for t in range(v.space.size))
    return LpOperator(v.space, v.primal_space, rows, p)


def _recover_dual(H: LpOperator) -> DualFunction:
    """Invert the mass weighting; an operator charging a null atom is not
    induced by any density and is unbounded for the p-norm."""
    primal = H.codomain
    values = []
    for t, mass in enumerate(H.space.masses):
        row = H.basis_action[t]
        if mass == 0:
            if any(not c.is_zero() for c in row):
                raise NotAbsolutelyContinuous(
                    f"operator charges null atom {H.space.atom_names[t]!r}")
            values.append(Functional(primal, tuple(row)))
        else:
            inv = Fraction(1) / mass
            values.append(Functional(primal, tuple(
                c.scale(inv) for c in row)))
    return DualFunction(H.space, tuple(values))


def _dual_atom_norms(v: DualFunction, cfg: ToleranceConfig) -> List[List[Interval]]:
    kind = dual_kind(v.primal_space.norm_kind)
    return [norm_intervals(f.coeffs, kind, cfg) for f in v.values]


def dual_lp_norm_intervals(v: DualFunction, q: Exponent,
                           cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> List[Interval]:
    """Per-coordinate brackets of the conjugate-exponent norm of v, with the
    atom values measured in the dual module norm."""
    return lp_from_atom_norms(_dual_atom_norms(v, cfg), v.space.masses, q, cfg)


def dual_lp_norm(v: DualFunction, q: Exponent,
                 cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> NormValue:
    return collapse_intervals(dual_lp_norm_intervals(v, q, cfg))


def operator_norm_intervals(H: LpOperator,
                            cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> List[Interval]:
    """Closed form for the least bound: the conjugate-exponent norm of the
    representing dual function."""
    v = _recover_dual(H)
    return dual_lp_norm_intervals(v, conjugate_exponent(H.declared_p), cfg)


def operator_norm(H: LpOperator,
                  cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> NormValue:
    return collapse_intervals(operator_norm_intervals(H, cfg))


def _scale_coordinatewise(vec: ModuleVector, weights: Sequence[Fraction]) -> ModuleVector:
    entries = []
    for e in vec.entries:
        coords = e.coords
        entries.append(LElement([coords[j] * weights[j]
                                 for j in range(len(coords))]))
    return ModuleVector(vec.space, tuple(entries))


def operator_norm_sampled_lower_bound(
        H: LpOperator, trials: int, seed: int,
        cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> List[Fraction]:
    """Certified per-coordinate lower bound on the operator norm from unit-
    ball candidates: the classical extremal construction plus random draws."""
    v = _recover_dual(H)
    space = v.space
    primal = v.primal_space
    kind = primal.norm_kind
    d = primal.scalar_dim
    p = H.declared_p
    q = conjugate_exponent(p)
    atom_norms = _dual_atom_norms(v, cfg)
    zero = primal.zero()
    bits = cfg.root_bits + 2

    candidates: List[List[ModuleVector]] = []

    positive = [t for t in range(space.size) if space.masses[t] > 0]
    aligned = {t: alignment_vector(v.values[t], kind) for t in positive}

    if p == 1:
        # concentrate per coordinate on the atom with the largest dual norm
        values = [zero for _ in range(space.size)]
        best_atoms: List[int] = []
        for j in range(d):
            best_atoms.append(max(
                positive, key=lambda t: atom_norms[t][j][0]))
        for t in set(best_atoms):
            weights = [Fraction(1) if best_atoms[j] == t else Fraction(0)
                       for j in range(d)]
            values[t] = _scale_coordinatewise(aligned[t], weights)
        candidates.append(values)
    else:
        # u(t) = ||v(t)||**(q-1) aligned(t), rational weights from below
        values = []
        for t in range(space.size):
            if space.masses[t] == 0:
                values.append(zero)
                continue
            weights = []
            for j in range(d):
                iv = atom_norms[t][j]
                if q is INF:
                    weights.append(Fraction(1))
                else:
                    w = certified.ipow_frac(certified.iabs(iv), q - 1, bits)
                    weights.append(w[0])
            values.append(_scale_coordinatewise(aligned[t], weights))
        candidates.append(values)

    rng = random.Random(seed)
    for _ in range(trials):
        vals = []
        for t in range(space.size):
            entries = tuple(
                LElement([Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                          for _ in range(d)])
                for _ in range(primal.rank))
            vals.append(ModuleVector(primal, entries))
        candidates.append(vals)

    best = [Fraction(0)] * d
    for values in candidates:
        u = LFunction(space, primal, tuple(values))
        hval = abs(H(u))
        nu = lp_from_atom_norms(
            [norm_intervals(val.entries, kind, cfg) for val in values],
            space.masses, p, cfg)
        for j in range(d):
            hi = nu[j][1]
            if hi <= 0:
                continue
            contrib = hval[j] / hi
            if contrib > best[j]:
                best[j] = contrib
    return best


def operator_norm_certified(H: LpOperator, trials: int = 8, seed: int = 0,
                            cfg: ToleranceConfig = DEFAULT_TOLERANCES
                            ) -> Tuple[NormValue, CheckReport]:
    """Closed-form value packaged with the [sampled lower, closed-form
    upper] certificate; passes when the interval is narrower than
    compare_tol."""
    closed = operator_norm_intervals(H, cfg)
    lower = operator_norm_sampled_lower_bound(H, trials, seed, cfg)
    gaps = [iv[1] - low for iv, low in zip(closed, lower)]
    report = CheckReport(
        name="operator-norm-certificate",
        details={"closed_form": collapse_intervals(closed),
                 "sampled_lower_bound": LElement(lower),
                 "interval_widths": gaps},
    )
    for j, gap in enumerate(gaps):
        if abs(gap) > cfg.compare_tol:
            report.fail({"coordinate": j, "gap": gap})
    return collapse_intervals(closed), report


@dataclass
class BootstrapStep:
    n: int
    exponent: Fraction
    lhs: List[Fraction]
    rhs: List[Fraction]
    holds: bool


@dataclass
class IsometryReport:
    fv_norm: NormValue
    v_norm: NormValue
    per_coordinate_gap: List[Fraction]
    bootstrap_trace: List[BootstrapStep]
    passed: bool
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.passed


DEFAULT_LIMIT_TOL = Fraction(1, 2 ** 20)


def bootstrap_lower_bound(v: DualFunction, p: Fraction, n_max: int,
                          cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                          limit_tol: Fraction = DEFAULT_LIMIT_TOL) -> CheckReport:
    """The exponent-chain estimate: with s_n the partial geometric sums of
    1/p, the s_n-th moment of the atom norms stays below the operator norm
    raised to s_n times a vanishing mass correction, and its s_n-th root
    climbs to the conjugate-exponent norm.

    The limit comparison uses limit_tol (default 2**-20): on exact data the
    truncation gap at level n is of order q/p**(n+1), so a tolerance finer
    than that is unattainable for non-constant data.
    """
    report, _ = _bootstrap(v, p, n_max, cfg, limit_tol, check_limit=True)
    return report


def _bootstrap(v: DualFunction, p: Fraction, n_max: int,
               cfg: ToleranceConfig, limit_tol: Fraction,
               check_limit: bool) -> Tuple[CheckReport, List[BootstrapStep]]:
    if p is INF or p <= 1:
        raise ValueError("need 1 < p < infinity")
    q = conjugate_exponent(p)
    d = v.primal_space.scalar_dim
    atom_norms = _dual_atom_norms(v, cfg)
    for t, mass in enumerate(v.space.masses):
        if mass == 0:
            continue
        for j in range(d):
            iv = atom_norms[t][j]
            if iv[1] <= 0 or (certified.is_exact(iv) and iv[0] == 0):
                raise ZeroNorm(
                    f"atom {v.space.atom_names[t]!r} has a zero norm "
                    f"coordinate; the bootstrap divides by it")

    bits = cfg.root_bits + 2
    fv = dual_lp_norm_intervals(v, q, cfg)
    mu_total = v.space.total_mass
    inv_p = Fraction(1) / p

    report = CheckReport(name="bootstrap-chain")
    trace: List[BootstrapStep] = []
    s = Fraction(0)
    power = Fraction(1)
    last_lhs: Optional[List[Interval]] = None
    s_last = Fraction(1)
    for n in range(n_max + 1):
        s += power
        power *= inv_p
        lhs = power_sums_from_atom_norms(atom_norms, v.space.masses, s, cfg)
        mass_corr = certified.pow_bracket(mu_total, power, bits)
        rhs = [certified.imul(certified.ipow_frac(certified.iabs(iv), s, bits),
                              mass_corr) for iv in fv]
        tol = certified.tol_for(cfg.compare_tol, lhs, rhs)
        holds = True
        for j in range(d):
            if not certified.leq_with_slack(lhs[j], rhs[j], tol)[0]:
                holds = False
                report.fail({"n": n, "coordinate": j})
        trace.append(BootstrapStep(
            n, s, [certified.mid(iv) for iv in lhs],
            [certified.mid(iv) for iv in rhs], holds))
        last_lhs = lhs
        s_last = s

    limit = [certified.ipow_frac(iv, Fraction(1) / s_last, bits)
             for iv in last_lhs]
    limit_gaps = []
    for j in range(d):
        ok, gap = certified.eq_within(limit[j], fv[j], limit_tol)
        limit_gaps.append(gap)
        if check_limit and not ok:
            report.fail({"stage": "limit", "coordinate": j, "gap": gap})

    report.details = {"p": p, "n_max": n_max, "limit_tol": limit_tol,
                      "limit_gaps": limit_gaps,
                      "target_norm": collapse_intervals(fv)}
    report.series = [{"n": step.n, "exponent": step.exponent,
                      "lhs": step.lhs, "rhs": step.rhs} for step in trace]
    return report, trace


def ess_sup_lower_bound(v: DualFunction, eps_list: Sequence[Fraction],
                        cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                        fv_norm_override: Optional[LElement] = None) -> CheckReport:
    """The p = 1 closing step: atoms whose norm exceeds the operator norm by
    eps must form a null set, forcing the essential sup under the operator
    norm.  Passing a lowered override is the negative control."""
    d = v.primal_space.scalar_dim
    atom_norms = _dual_atom_norms(v, cfg)
    if fv_norm_override is not None:
        fv = fv_norm_override.intervals()
    else:
        fv = dual_lp_norm_intervals(v, INF, cfg)

    report = CheckReport(name="ess-sup-lower-bound",
                         details={"eps_count": len(eps_list)}, series=[])
    for eps in eps_list:
        if eps <= 0:
            raise ValueError("eps values must be positive")
        for j in range(d):
            exceed = [t for t in range(v.space.size)
                      if atom_norms[t][j][0] > fv[j][1] + eps]
            mu_exceed = sum((v.space.masses[t] for t in exceed), Fraction(0))
            report.series.append({
                "eps": eps, "coordinate": j,
                "exceed_atoms": [v.space.atom_names[t] for t in exceed],
                "mu": mu_exceed})
            if mu_exceed != 0:
                report.fail({"eps": eps, "coordinate": j, "mu": mu_exceed})
    return report


def isometry_check(v: DualFunction, p: Exponent, q: Exponent,
                   cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                   bootstrap_n: int = 6) -> IsometryReport:
    """Per-coordinate equality of the operator norm of the pairing against
    the conjugate-exponent norm of v; exact where both sides are rational,
    within compare_tol otherwise.  For 1 < p < infinity with strictly
    positive atom norms the exponent-chain trace is attached.  A failing
    report's witness names the first unequal coordinate with both bracket
    midpoints and their gap, or else the first failing chain step."""
    if not is_conjugate_pair(p, q):
        raise ValueError("non-conjugate exponents")
    H = build_F(v, p)
    fv = operator_norm_intervals(H, cfg)
    nv = dual_lp_norm_intervals(v, q, cfg)
    d = v.primal_space.scalar_dim

    exact = all(certified.is_exact(iv) for iv in fv + nv)
    tol = Fraction(0) if exact else cfg.compare_tol
    witness: Optional[dict] = None
    gaps = []
    for j in range(d):
        if exact:
            ok = fv[j] == nv[j]
            gap = abs(fv[j][0] - nv[j][0])
        else:
            ok, gap = certified.eq_within(fv[j], nv[j], tol)
        gaps.append(gap)
        if not ok and witness is None:
            witness = {"coordinate": j, "operator_norm": certified.mid(fv[j]),
                       "dual_norm": certified.mid(nv[j]), "gap": gap}

    trace: List[BootstrapStep] = []
    if p is not INF and p > 1:
        try:
            # the chain inequalities are asserted; the limit comparison is
            # redundant here (norm equality is checked directly above)
            rep, trace = _bootstrap(v, p, bootstrap_n, cfg,
                                    DEFAULT_LIMIT_TOL, check_limit=False)
            if not rep.passed and witness is None:
                witness = {"stage": "bootstrap", **rep.witness}
        except ZeroNorm:
            trace = []

    return IsometryReport(
        fv_norm=collapse_intervals(fv),
        v_norm=collapse_intervals(nv),
        per_coordinate_gap=gaps,
        bootstrap_trace=trace,
        passed=witness is None,
        witness=witness,
    )


def represent(H: LpOperator) -> DualFunction:
    """Surjectivity construction: read the operator's basis action as a
    dual-module-valued set function, solve for its density, and verify the
    pairing reproduces the operator on every basis function.

    Both sides are linear, so agreement on the basis is agreement
    everywhere: it fixes H's row at atom t to mu(t) * v(t), and H(u) and
    the pairing are sums of exactly those products.  A failed verification
    raises ``RepresentationMismatch`` with the failing subset or basis
    function as its witness."""
    primal = H.codomain
    dual_space = primal.dual()
    atom_values = tuple(
        ModuleVector(dual_space, tuple(row)) for row in H.basis_action)
    G = VectorMeasure(H.space, dual_space, atom_values)
    result = rn_density(G)
    if not result.passed:
        raise RepresentationMismatch({"stage": "density", **result.witness})
    v = DualFunction(H.space, tuple(
        Functional(primal, val.entries) for val in result.density.values))

    # basis verification; exact
    for t in range(H.space.size):
        for i in range(primal.rank):
            u = LFunction.indicator_times(
                primal.basis_vector(i), H.space.singleton(t))
            if H(u) != pairing(u, v):
                raise RepresentationMismatch({
                    "stage": "basis", "atom": H.space.atom_names[t],
                    "entry": i})
    return v


def roundtrip_check(p: Exponent, q: Exponent, trials: int, seed: int,
                    m: int = 3, rank: int = 2, scalar_dim: int = 2,
                    norm_kind: NormKind = NormKind.SUP,
                    null_atoms: int = 1,
                    cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Bijectivity of the representation on seeded data: dual functions
    round-trip through their operators exactly at positive-mass atoms,
    operators round-trip on the full basis, and every trial is isometric.
    A trial whose ``represent`` fails its own verification fails the check
    with that witness."""
    if not is_conjugate_pair(p, q):
        raise ValueError("non-conjugate exponents")
    primal = ModuleSpace(rank, scalar_dim, norm_kind)
    report = CheckReport(
        name="duality-roundtrip",
        details={"trials": trials, "atoms": m, "rank": rank,
                 "scalar_dim": scalar_dim, "norm_kind": norm_kind},
        series=[],
    )
    for trial in range(trials):
        rng = rng_for(seed, trial)
        space = random_measure_space(rng, m, null_atoms=null_atoms)
        v = DualFunction(space, tuple(
            random_functional(rng, primal) for _ in range(m)))
        H = build_F(v, p)
        try:
            v_back = represent(H)
        except RepresentationMismatch as exc:
            report.fail({"trial": trial, **exc.witness})
        else:
            for t in range(m):
                if (space.masses[t] != 0
                        and v_back.values[t].coeffs != v.values[t].coeffs):
                    report.fail({"trial": trial, "atom": t,
                                 "stage": "dual-roundtrip"})
            if build_F(v_back, p).basis_action != H.basis_action:
                report.fail({"trial": trial, "stage": "operator-roundtrip"})
        iso = isometry_check(v, p, q, cfg, bootstrap_n=4)
        if not iso.passed:
            report.fail({"trial": trial, "stage": "isometry"})
        report.series.append({"trial": trial,
                              "p": Fraction(0) if p is INF else p,
                              "gap": iso.per_coordinate_gap})
    return report
