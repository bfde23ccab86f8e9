"""The dual representation machinery: the integral pairing, operator norms
on the p-norm function spaces, the isometry verification with its exponent
bootstrap, and the surjectivity round-trip through the density solver.

On a finite atomic base the function space is a free module of rank m*k, so
every bounded linear map into the scalars is determined by its action on
the canonical basis; reading that action as a set function
(``induced_measure``) and solving for its density turns the surjectivity
proof into a verified round-trip.

A dual function is an ``LFunction`` whose codomain is the dual module of
the primal one (``ModuleSpace.dual()``), so its conjugate-exponent norm is
the ordinary p-norm of ``bochner`` in that codomain's norm kind.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from . import certified
from .certified import Ends
from .falgebra import (
    DEFAULT_TOLERANCES,
    Frozen,
    LElement,
    ToleranceConfig,
)
from .bochner import (
    Exponent,
    INF,
    LFunction,
    atom_norm_ends,
    conjugate_exponent,
    lp_from_atom_ends,
    lp_norm_ends,
    power_sums_from_atom_ends,
)
from .lmodule import (
    ModuleSpace,
    ModuleVector,
    NormKind,
    collapse,
    contract,
)
from .measure import MeasureSpace, SpaceMismatch
from .reports import CheckReport
from .sampling import (
    random_measure_space,
    random_module_vector,
    rng_for,
)
from .vecmeasure import VectorMeasure, density, rn_density


class ZeroNorm(ValueError):
    """The bootstrap's division needs strictly positive atom norms."""


class LpOperator(Frozen):
    """A bounded linear map from the p-norm functions into ``codomain`` (a
    primal module space) to the scalars, stored by its action on the
    canonical basis e_i * 1_atom as ``basis_action[atom][entry]``.

    A nonzero row at a null atom is refused with a ValueError that names
    the atom: functions that differ only there are one class of L^p(mu),
    and such a map would tell them apart.  ``build_F`` never builds one."""

    __slots__ = ("space", "codomain", "basis_action", "declared_p")

    def __init__(self, space: MeasureSpace, codomain: ModuleSpace,
                 basis_action: Tuple[Tuple[LElement, ...], ...],
                 declared_p: Exponent):
        if len(basis_action) != space.size:
            raise ValueError("one basis row per atom required")
        for t, row in enumerate(basis_action):
            if len(row) != codomain.rank:
                raise ValueError("basis row length must equal the rank")
            if space.masses[t] == 0 and not all(c.is_zero() for c in row):
                raise ValueError(
                    f"atom {space.atom_names[t]!r} has zero mass but a "
                    f"nonzero basis row: the map is not defined on L^p")
        self._set("space", space)
        self._set("codomain", codomain)
        self._set("basis_action", basis_action)
        self._set("declared_p", declared_p)

    def __call__(self, u: LFunction) -> LElement:
        if u.space != self.space or u.codomain != self.codomain:
            raise SpaceMismatch("function outside the operator's domain")
        return contract([c for row in self.basis_action for c in row],
                        [e for val in u.values for e in val.entries])


def pairing(u: LFunction, v: LFunction) -> LElement:
    """Integral of v(t)(u(t)) for a dual function v: the action of the
    represented operator."""
    u._check_pairable(v)
    acc = LElement.zero(v.codomain.scalar_dim)
    for t, mass in enumerate(u.space.masses):
        if mass == 0:
            continue
        acc = acc + contract(v.values[t].entries, u.values[t].entries).scale(mass)
    return acc


def build_F(v: LFunction, p: Exponent) -> LpOperator:
    """The operator with action row v(t) * mu(t), so that applying it
    agrees with the pairing against the dual function v."""
    rows = tuple(
        tuple(c.scale(v.space.masses[t]) for c in v.values[t].entries)
        for t in range(v.space.size))
    return LpOperator(v.space, v.codomain.dual(), rows, p)


def induced_measure(H: LpOperator) -> VectorMeasure:
    """The set function G(E) = H(x * 1_E) in the dual module: its value at
    atom t is H's basis row at t."""
    dual = H.codomain.dual()
    return VectorMeasure(H.space, dual, tuple(
        ModuleVector(dual, tuple(row)) for row in H.basis_action))


def operator_norm_ends(H: LpOperator,
                       cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> List[Ends]:
    """Closed form for the least bound: the conjugate-exponent norm of the
    representing dual function, ``density(induced_measure(H))``.  H is
    zero at every null atom (``LpOperator`` refuses anything else), so that
    density exists and is taken unchecked."""
    v = density(induced_measure(H))
    return lp_norm_ends(v, conjugate_exponent(H.declared_p), cfg)


DEFAULT_LIMIT_TOL = Fraction(1, 2 ** 20)


def bootstrap_lower_bound(v: LFunction, p: Fraction, n_max: int,
                          cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                          limit_tol: Fraction = DEFAULT_LIMIT_TOL) -> CheckReport:
    """The exponent-chain estimate: with s_n the partial geometric sums of
    1/p, the s_n-th moment of the atom norms stays below ||v||_q raised to
    s_n times a vanishing mass correction, and its s_n-th root climbs to
    ||v||_q.  Both sides come from v's atom norms: ||v||_q is
    ``lp_from_atom_ends`` of them at the conjugate exponent q.

    The limit comparison uses limit_tol (default 2**-20): on exact data the
    truncation gap at level n is of order q/p**(n+1), so a tolerance finer
    than that is unattainable for non-constant data.
    """
    if p is INF or p <= 1:
        raise ValueError("need 1 < p < infinity")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if limit_tol <= 0:
        # a zero allowance cannot hold on non-constant data
        raise ValueError("limit_tol must be > 0")
    atom_norms = atom_norm_ends(v, cfg)
    fv = lp_from_atom_ends(atom_norms, v.space.masses,
                           conjugate_exponent(p), cfg)
    report, steps = _bootstrap(v, p, n_max, cfg, atom_norms, fv)
    report.series = [{"n": n, "exponent": s,
                      "lhs": [certified.mid(e) for e in lhs],
                      "rhs": [certified.mid(e) for e in rhs]}
                     for n, (s, lhs, rhs) in enumerate(steps)]

    s, lhs, _ = steps[-1]
    bits = cfg.root_bits + 2
    inv_s = (s.denominator, s.numerator)
    limit = [certified.ipow_ends(e[:2], e[2:], inv_s, bits) for e in lhs]
    limit_gaps = [Fraction(*report.within(
        limit[j], fv[j], limit_tol,
        lambda g: {"stage": "limit", "coordinate": j, "gap": Fraction(*g)}))
        for j in range(v.codomain.scalar_dim)]

    report.details = {"p": p, "n_max": n_max, "limit_tol": limit_tol,
                      "limit_gaps": limit_gaps,
                      "target_norm": collapse(fv)}
    return report


def _bootstrap(v: LFunction, p: Fraction, n_max: int, cfg: ToleranceConfig,
               atom_norms: List[List[Ends]],
               fv: List[Ends]) -> Tuple[CheckReport, List[tuple]]:
    """The exponent chain of ``bootstrap_lower_bound`` for 1 < p < infinity,
    given v's dual atom norms and the brackets fv of its conjugate-exponent
    norm: a report with the chain steps' verdict and witness alone, and
    each step's exponent s with the integer ends of its two sides."""
    d = v.codomain.scalar_dim
    for t, mass in enumerate(v.space.masses):
        if mass == 0:
            continue
        for j in range(d):
            e = atom_norms[t][j]
            if e[2] <= 0 or (certified.is_exact(e) and e[0] == 0):
                raise ZeroNorm(
                    f"atom {v.space.atom_names[t]!r} has a zero norm "
                    f"coordinate; the bootstrap divides by it")

    bits = cfg.root_bits + 2
    mu_total = v.space.total_mass
    inv_p = Fraction(p.denominator, p.numerator)

    report = CheckReport(name="bootstrap-chain")
    steps = []
    s = Fraction(0)
    power = Fraction(1)
    for n in range(n_max + 1):
        s += power
        power *= inv_p
        lhs = power_sums_from_atom_ends(atom_norms, v.space.masses, s, cfg)
        mass_corr = certified.pow_ends(mu_total, power, bits)
        rhs = [certified.mul(certified.ipow_ends(e[:2], e[2:], s, bits),
                             mass_corr) for e in map(certified.iabs, fv)]
        tol = certified.tol_for(cfg.compare_tol, lhs, rhs)
        for j in range(d):
            report.at_most(lhs[j], rhs[j], tol,
                           lambda _: {"n": n, "coordinate": j})
        steps.append((s, lhs, rhs))
    return report, steps


def isometry_check(v: LFunction, p: Exponent,
                   cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                   bootstrap_n: int = 6) -> CheckReport:
    """Per-coordinate equality of the operator norm of the pairing against
    the conjugate-exponent norm of v; exact where both sides are rational,
    within compare_tol otherwise.  For 1 < p < infinity with strictly
    positive atom norms the exponent-chain inequalities are asserted as
    well; only the chain steps are built here, since its reported series
    and limit come from ``bootstrap_lower_bound`` alone.  ``details``
    carries both norms and the per-coordinate gaps.  A
    failing report's witness names the first unequal coordinate with both
    bracket midpoints and their gap, or else the first failing chain step
    as ``{"stage": "bootstrap", "n": ..., "coordinate": ...}``."""
    H = build_F(v, p)
    fv = operator_norm_ends(H, cfg)
    atom_norms = atom_norm_ends(v, cfg)
    nv = lp_from_atom_ends(atom_norms, v.space.masses, conjugate_exponent(p),
                           cfg)
    d = v.codomain.scalar_dim

    tol = certified.tol_for(cfg.compare_tol, fv, nv)
    report = CheckReport(name="isometry")
    gaps = [Fraction(*report.within(fv[j], nv[j], tol, lambda g: {
        "coordinate": j, "operator_norm": certified.mid(fv[j]),
        "dual_norm": certified.mid(nv[j]), "gap": Fraction(*g)}))
        for j in range(d)]
    report.details = {"operator_norm": collapse(fv),
                      "dual_norm": collapse(nv), "gaps": gaps}

    if p is not INF and p > 1:
        try:
            # only the chain inequalities are asserted: the limit would
            # repeat the norm equality checked above
            chain, _ = _bootstrap(v, p, bootstrap_n, cfg, atom_norms, nv)
            report.absorb(chain, stage="bootstrap")
        except ZeroNorm:
            pass
    return report


def represent(H: LpOperator) -> Tuple[LFunction, CheckReport]:
    """Surjectivity construction: the density v of ``induced_measure(H)``
    and its one verification, ``rn_density``'s check on every singleton,
    as the pair ``(v, check)``.

    Both sides are linear, so agreement on the basis is agreement
    everywhere: H(e_i * 1_t) is H's row entry at atom t, the pairing gives
    mu(t) * v(t)_i there, and the singleton check compares exactly those.
    A failed check names the failing subset as its witness; a caller
    absorbs it and reads v only when it passed, as ``represent_back``
    does."""
    return rn_density(induced_measure(H))


def represent_back(report: CheckReport, v: LFunction, p: Exponent,
                   **context) -> bool:
    """The one represent comparison: v through its operator ``build_F(v,
    p)`` and back through ``represent``.  Fails ``report`` with
    ``{**context, "stage": "density", ...}`` and the failed verification's
    witness, or else with ``{**context, "stage": "dual-roundtrip", "atom":
    name}`` at every positive-mass atom whose value moved, the first one
    named.  Returns whether the density check passed; v_back is compared
    only then."""
    v_back, check = represent(build_F(v, p))
    report.absorb(check, **context, stage="density")
    if not check.passed:
        return False
    for t, mass in enumerate(v.space.masses):
        if mass != 0 and v_back.values[t] != v.values[t]:
            report.fail({**context, "stage": "dual-roundtrip",
                         "atom": v.space.atom_names[t]})
    return True


def roundtrip_check(p: Exponent, trials: int, seed: int,
                    m: int = 3, rank: int = 2, scalar_dim: int = 2,
                    norm_kind: NormKind = NormKind.SUP,
                    cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Bijectivity of the representation on seeded data, m atoms of which
    one is null: dual functions round-trip through their operators exactly
    at positive-mass atoms, and every trial is isometric.  Each trial goes
    through ``represent_back`` with the trial as context; a trial whose
    density check fails, as where its operator charges a null atom, stops
    there, with no isometry check and no series row."""
    dual = ModuleSpace(rank, scalar_dim, norm_kind).dual()
    report = CheckReport(
        name="duality-roundtrip",
        details={"trials": trials, "atoms": m, "rank": rank,
                 "scalar_dim": scalar_dim, "norm_kind": norm_kind},
        series=[],
    )
    for trial in range(trials):
        rng = rng_for(seed, trial)
        space = random_measure_space(rng, m, null_atoms=1)
        v = LFunction(space, dual, tuple(
            random_module_vector(rng, dual) for _ in range(m)))
        if not represent_back(report, v, p, trial=trial):
            continue
        iso = isometry_check(v, p, cfg, bootstrap_n=4)
        report.absorb(iso, trial=trial, stage="isometry")
        report.series.append({"trial": trial,
                              "p": Fraction(0) if p is INF else p,
                              "gap": iso.details["gaps"]})
    return report
