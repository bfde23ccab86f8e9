"""Simple functions on finite atomic spaces, their integrals, and the
p-norm calculus: Hölder/Minkowski checkers, the subset-supremum norm
representation, the Chebyshev step, the dominated-convergence experiment on
truncated countable spaces, and the completeness harness.

On a finite atomic space every function is simple and the integral is the
mass-weighted sum, so everything here is exact except for p-th roots, which
carry certified brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from . import certified
from .certified import Interval
from .falgebra import (
    DEFAULT_TOLERANCES,
    LElement,
    ToleranceConfig,
    axpy,
    check_order_convergence,
)
from .lmodule import ModuleSpace, ModuleVector, NormKind, norm_intervals, collapse_intervals, NormValue
from .measure import (
    MeasurableSet,
    MeasureSpace,
    SpaceMismatch,
    TooManySubsets,
    subset_sums,
)
from .reports import CheckReport
from .sampling import random_module_vector, rng_for

INF = None  # exponent marker for the essential-sup norm

Exponent = Optional[Fraction]


def conjugate_exponent(p: Exponent) -> Exponent:
    if p is INF:
        return Fraction(1)
    if p == 1:
        return INF
    return p / (p - 1)


def is_conjugate_pair(p: Exponent, q: Exponent) -> bool:
    inv_p = Fraction(0) if p is INF else Fraction(1) / p
    inv_q = Fraction(0) if q is INF else Fraction(1) / q
    return inv_p + inv_q == 1


@dataclass(frozen=True)
class LFunction:
    """A total map atom -> module vector; the representation of a member of
    the p-norm function space."""

    space: MeasureSpace
    codomain: ModuleSpace
    values: Tuple[ModuleVector, ...]

    def __post_init__(self):
        if len(self.values) != self.space.size:
            raise ValueError("one value per atom required")
        for v in self.values:
            if v.space != self.codomain:
                raise SpaceMismatch("value outside the declared codomain")

    @classmethod
    def indicator_times(cls, x: ModuleVector, F: MeasurableSet) -> "LFunction":
        vals = tuple(x if i in F.members else x.space.zero()
                     for i in range(F.space.size))
        return cls(F.space, x.space, vals)

    @classmethod
    def zero(cls, space: MeasureSpace, codomain: ModuleSpace) -> "LFunction":
        return cls(space, codomain, (codomain.zero(),) * space.size)

    def __add__(self, other: "LFunction") -> "LFunction":
        self._check(other)
        return LFunction(self.space, self.codomain, tuple(
            a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "LFunction") -> "LFunction":
        self._check(other)
        return LFunction(self.space, self.codomain, tuple(
            a - b for a, b in zip(self.values, other.values)))

    def scale(self, lam: LElement) -> "LFunction":
        return LFunction(self.space, self.codomain,
                         tuple(v.scale(lam) for v in self.values))

    def scale_rational(self, c) -> "LFunction":
        return LFunction(self.space, self.codomain,
                         tuple(v.scale_rational(c) for v in self.values))

    def _check(self, other: "LFunction") -> None:
        if self.space != other.space or self.codomain != other.codomain:
            raise SpaceMismatch("functions on different spaces")

    def _check_pairable(self, other: "LFunction") -> None:
        # same base space and vector shape; norm kinds may differ
        if (self.space != other.space
                or self.codomain.rank != other.codomain.rank
                or self.codomain.scalar_dim != other.codomain.scalar_dim):
            raise SpaceMismatch("functions cannot be paired")


@dataclass(frozen=True)
class LpHandle:
    p: Exponent  # None marks the essential-sup norm
    base: MeasureSpace
    codomain: ModuleSpace

    def __post_init__(self):
        if self.p is not INF and self.p < 1:
            raise ValueError("exponent must be >= 1 or INF")

    @property
    def is_inf(self) -> bool:
        return self.p is INF

    @property
    def q(self) -> Exponent:
        return conjugate_exponent(self.p)


def integrate(f: LFunction) -> ModuleVector:
    acc = list(f.codomain.zero().entries)
    for t, mass in enumerate(f.space.masses):
        if mass == 0:
            continue
        val = f.values[t]
        for i in range(f.codomain.rank):
            acc[i] = axpy(acc[i], mass, val.entries[i])
    return ModuleVector(f.codomain, tuple(acc))


def integrate_over(f: LFunction, E: MeasurableSet) -> ModuleVector:
    if E.space != f.space:
        raise SpaceMismatch("set on a different measure space")
    acc = list(f.codomain.zero().entries)
    for t in sorted(E.members):
        mass = f.space.masses[t]
        if mass == 0:
            continue
        val = f.values[t]
        for i in range(f.codomain.rank):
            acc[i] = axpy(acc[i], mass, val.entries[i])
    return ModuleVector(f.codomain, tuple(acc))


def _atom_norm_intervals(f: LFunction, kind: NormKind,
                         cfg: ToleranceConfig) -> List[List[Interval]]:
    return [norm_intervals(v.entries, kind, cfg) for v in f.values]


def power_sums_from_atom_norms(atom_norms: Sequence[Sequence[Interval]],
                               masses: Sequence[Fraction], s: Fraction,
                               cfg: ToleranceConfig) -> List[Interval]:
    """Per scalar coordinate: bracket of the sum over non-null atoms t of
    mu(t) * ||f(t)||**s, from the per-atom, per-coordinate norm brackets.

    The lower ends mu(t) * lo(||f(t)||)**s and the upper ends are kept as
    integer numerator/denominator pairs (``certified.ipow_ends``) and each
    end's sum is taken over one common denominator."""
    bits = cfg.root_bits + 2
    # per coordinate: lower-end numerators and denominators, then upper
    ends = [([], [], [], []) for _ in atom_norms[0]]
    for norms, mass in zip(atom_norms, masses):
        mn, md = mass.numerator, mass.denominator
        if mn == 0:
            continue
        for iv, (lo_nums, lo_dens, hi_nums, hi_dens) in zip(norms, ends):
            ln, ld, hn, hd = certified.ipow_ends(iv, s, bits)
            lo_nums.append(mn * ln)
            lo_dens.append(md * ld)
            hi_nums.append(mn * hn)
            hi_dens.append(md * hd)
    out: List[Interval] = []
    for lo_nums, lo_dens, hi_nums, hi_dens in ends:
        lo = certified.common_denominator_sum(lo_nums, lo_dens)
        if lo_nums == hi_nums and lo_dens == hi_dens:
            out.append((lo, lo))
        else:
            out.append((lo, certified.common_denominator_sum(hi_nums, hi_dens)))
    return out


def lp_from_atom_norms(atom_norms: Sequence[Sequence[Interval]],
                       masses: Sequence[Fraction], p: Exponent,
                       cfg: ToleranceConfig) -> List[Interval]:
    """Per scalar coordinate: bracket of the p-norm of a function given by
    its per-atom norm brackets; null atoms are skipped.  At p = INF this is
    the largest atom norm (0 when every atom is null)."""
    if p is INF:
        out = [certified.exact(Fraction(0))] * len(atom_norms[0])
        for norms, mass in zip(atom_norms, masses):
            if mass == 0:
                continue
            out = [certified.imax(a, b) for a, b in zip(out, norms)]
        return out
    bits = cfg.root_bits + 2
    inv_p = Fraction(1) / p
    return [certified.ipow_frac(iv, inv_p, bits)
            for iv in power_sums_from_atom_norms(atom_norms, masses, p, cfg)]


def _lp_norm_intervals(f: LFunction, p: Exponent, kind: NormKind,
                       cfg: ToleranceConfig) -> List[Interval]:
    return lp_from_atom_norms(_atom_norm_intervals(f, kind, cfg),
                              f.space.masses, p, cfg)


def lp_norm(f: LFunction, handle: LpHandle,
            cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> NormValue:
    if handle.base != f.space or handle.codomain != f.codomain:
        raise SpaceMismatch("handle does not match the function")
    return collapse_intervals(
        _lp_norm_intervals(f, handle.p, f.codomain.norm_kind, cfg))


SUP_REP_MAX_ATOMS = 16


def verify_sup_representation(f: LFunction, handle: LpHandle,
                              cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Exhaustively checks that E -> integral over E of ||f||**p is monotone
    under inclusion and attains its supremum at the whole space.

    For each scalar coordinate, every bracket end of the weighted atom terms
    mu(t) * ||f(t)||**p and the tolerance are put over one common
    denominator, so the 2**m lower and upper subset sums are plain integers
    and each comparison is ``leq_with_slack``'s rule lo(a) <= hi(b) + tol,
    scaled by that denominator.  Spaces above ``SUP_REP_MAX_ATOMS`` atoms
    are refused before anything is allocated."""
    if handle.is_inf:
        raise ValueError("sup representation needs a finite exponent")
    m = f.space.size
    if m > SUP_REP_MAX_ATOMS:
        raise TooManySubsets(f"{m} atoms exceeds the sup-representation "
                             f"cap {SUP_REP_MAX_ATOMS}")
    d = f.codomain.scalar_dim
    bits = cfg.root_bits + 2
    powers = [[certified.ipow_frac(iv, handle.p, bits) for iv in norms]
              for norms in _atom_norm_intervals(f, f.codomain.norm_kind, cfg)]
    weighted = [[certified.iscale(iv, mass) for iv in row]
                for row, mass in zip(powers, f.space.masses)]
    tol = certified.tol_for(cfg.compare_tol, *powers)

    lo_sums: List[List[int]] = []
    hi_plus_tol: List[List[int]] = []
    at_full: List[Interval] = []
    for j in range(d):
        column = [row[j] for row in weighted]
        den = math.lcm(tol.denominator,
                       *(end.denominator for iv in column for end in iv))
        lo = subset_sums([_over(iv[0], den) for iv in column], 0)
        hi = subset_sums([_over(iv[1], den) for iv in column], 0)
        tol_j = _over(tol, den)
        lo_sums.append(lo)
        hi_plus_tol.append([s + tol_j for s in hi])
        at_full.append((Fraction(lo[-1], den), Fraction(hi[-1], den)))

    witness, pairs_checked = _first_sup_rep_failure(lo_sums, hi_plus_tol, m)
    return CheckReport(
        name="sup-representation",
        passed=witness is None,
        details={
            "subsets": 1 << m,
            "pairs_checked": pairs_checked,
            "max_at_full_space": collapse_intervals(at_full),
        },
        witness=witness,
    )


def _over(q: Fraction, den: int) -> int:
    """The numerator of q written over den, a multiple of q's denominator."""
    return q.numerator * (den // q.denominator)


def _first_sup_rep_failure(lo: Sequence[Sequence[int]],
                           hi_plus_tol: Sequence[Sequence[int]],
                           m: int) -> Tuple[Optional[dict], int]:
    """The witness of the first failing comparison lo(a) <= hi(b) + tol, in
    bitmask order, over three passes: every subset against the whole space,
    every single-atom extension, and at m <= 6 every subset pair.  Also
    returns the number of pairs the pair pass checked."""
    full = (1 << m) - 1
    coords = range(len(lo))

    def first_bad_coordinate(a: int, b: int) -> Optional[int]:
        for j in coords:
            if lo[j][a] > hi_plus_tol[j][b]:
                return j
        return None

    for mask in range(full + 1):
        j = first_bad_coordinate(mask, full)
        if j is not None:
            return {"subset_mask": mask, "coordinate": j}, 0

    # single-atom extensions certify monotonicity along every chain
    for mask in range(full + 1):
        for t in range(m):
            if (mask >> t) & 1:
                continue
            j = first_bad_coordinate(mask, mask | (1 << t))
            if j is not None:
                return {"subset_mask": mask, "atom": t, "coordinate": j}, 0

    # exhaustive pair check at small sizes
    pairs_checked = 0
    if m <= 6:
        for mask in range(full + 1):
            sub = mask
            while True:
                pairs_checked += 1
                j = first_bad_coordinate(sub, mask)
                if j is not None:
                    return ({"subset_mask": sub, "superset_mask": mask,
                             "coordinate": j}, pairs_checked)
                if sub == 0:
                    break
                sub = (sub - 1) & mask
    return None, pairs_checked


def _pairing_abs(u: ModuleVector, v: ModuleVector) -> LElement:
    acc = LElement.zero(u.space.scalar_dim)
    for a, b in zip(u.entries, v.entries):
        acc = acc + a * b
    return abs(acc)


def check_holder(u: LFunction, v: LFunction, p: Exponent, q: Exponent,
                 cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Integral of |<u, v>| against ||u||_p * ||v||_q.

    The second factor is measured in the dual of u's codomain norm (for
    rank one all kinds coincide with the modulus, so this is invisible
    there); that is the pairing for which the bound is a theorem.
    """
    if not is_conjugate_pair(p, q):
        raise ValueError("non-conjugate exponents")
    u._check_pairable(v)
    d = u.codomain.scalar_dim
    lhs = [certified.exact(Fraction(0))] * d
    for t, mass in enumerate(u.space.masses):
        if mass == 0:
            continue
        val = _pairing_abs(u.values[t], v.values[t])
        lhs = [certified.iadd(lhs[j], certified.exact(val[j] * mass))
               for j in range(d)]

    from .lmodule import dual_kind
    nu = _lp_norm_intervals(u, p, u.codomain.norm_kind, cfg)
    nv = _lp_norm_intervals(v, q, dual_kind(u.codomain.norm_kind), cfg)
    rhs = [certified.imul(a, b) for a, b in zip(nu, nv)]
    tol = certified.tol_for(cfg.compare_tol, nu, nv)

    verdicts = [certified.leq_with_slack(a, b, tol) for a, b in zip(lhs, rhs)]
    report = CheckReport(
        name="holder",
        details={"lhs": collapse_intervals(lhs), "rhs": collapse_intervals(rhs),
                 "slack": [s for _, s in verdicts], "tolerance": tol},
    )
    for j, (ok, _) in enumerate(verdicts):
        if not ok:
            report.fail({"coordinate": j, "lhs": certified.mid(lhs[j]),
                         "rhs": certified.mid(rhs[j])})
    return report


def check_minkowski(u: LFunction, v: LFunction, p: Fraction,
                    cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    if p is INF or p < 1:
        raise ValueError("need 1 <= p < infinity")
    u._check(v)
    kind = u.codomain.norm_kind
    ns = _lp_norm_intervals(u + v, p, kind, cfg)
    nu = _lp_norm_intervals(u, p, kind, cfg)
    nv = _lp_norm_intervals(v, p, kind, cfg)
    rhs = [certified.iadd(a, b) for a, b in zip(nu, nv)]
    tol = certified.tol_for(cfg.compare_tol, ns, nu, nv)

    verdicts = [certified.leq_with_slack(a, b, tol) for a, b in zip(ns, rhs)]
    report = CheckReport(
        name="minkowski",
        details={"lhs": collapse_intervals(ns), "rhs": collapse_intervals(rhs),
                 "slack": [s for _, s in verdicts], "tolerance": tol},
    )
    for j, (ok, _) in enumerate(verdicts):
        if not ok:
            report.fail({"coordinate": j})
    return report


def check_chebyshev_step(hs: Sequence[LFunction], h: LFunction, gamma: Fraction,
                         cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Per coordinate and per term: gamma * mu([||h_n - h|| >= gamma]) is at
    most the integral of ||h_n - h||; also reports whether the level-set
    measure must vanish once the integrals drop below gamma times the
    smallest positive atom mass."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    kind = h.codomain.norm_kind
    min_mass = min((mass for mass in h.space.masses if mass > 0))
    report = CheckReport(name="chebyshev-step",
                         details={"gamma": gamma, "terms": len(hs)}, series=[])
    for n, hn in enumerate(hs):
        hn._check(h)
        norms = _atom_norm_intervals(hn - h, kind, cfg)
        integrals = lp_from_atom_norms(norms, h.space.masses, Fraction(1), cfg)
        for j, total in enumerate(integrals):
            level = [t for t in range(h.space.size)
                     if norms[t][j][0] >= gamma]  # certified members only
            mu_level = sum((h.space.masses[t] for t in level), Fraction(0))
            ok, slack = certified.leq_with_slack(
                certified.exact(gamma * mu_level), total, Fraction(0))
            vanishes = total[1] < gamma * min_mass
            if vanishes and mu_level != 0:
                ok = False
            report.series.append({
                "n": n, "coordinate": j, "level_measure": mu_level,
                "integral": certified.mid(total), "slack": slack})
            if not ok:
                report.fail({"n": n, "coordinate": j,
                             "level_measure": mu_level})
    return report


@dataclass
class TruncatedSequenceSpec:
    """A dominated approximating sequence on a truncated countable space.

    ``term(n, t)`` gives the n-th function's value at atom t; the dominator
    bounds every term's norm atomwise, the scalar bound caps the dominator,
    and tail_mass is the mass cut off by the truncation."""

    space: MeasureSpace
    codomain: ModuleSpace
    term: Callable[[int, int], ModuleVector]
    limit: LFunction
    dominator: Tuple[LElement, ...]
    scalar_bound: Fraction
    tail_mass: Fraction


class DominatorViolation(ValueError):
    def __init__(self, n: int, t: int):
        super().__init__(f"dominator violated at term {n}, atom {t}")
        self.n = n
        self.t = t


def _term_function(spec: TruncatedSequenceSpec, n: int) -> LFunction:
    return LFunction(spec.space, spec.codomain, tuple(
        spec.term(n, t) for t in range(spec.space.size)))


def run_dct_experiment(spec: TruncatedSequenceSpec, n_max: int,
                       cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Tracks e_n = ||integral(g_n) - integral(g)|| against the computable
    bound integral of ||g_n - g|| plus twice the truncated tail allowance."""
    kind = spec.codomain.norm_kind
    d = spec.codomain.scalar_dim
    m = spec.space.size
    phi = spec.scalar_bound
    unit_bound = LElement.constant(phi, d)
    for t in range(m):
        if not (spec.dominator[t] <= unit_bound):
            raise ValueError(f"dominator exceeds the scalar bound at atom {t}")
    lim_integral = integrate(spec.limit)
    tail_term = 2 * phi * spec.tail_mass

    report = CheckReport(
        name="dominated-convergence",
        details={"n_max": n_max, "tail_mass": spec.tail_mass,
                 "scalar_bound": phi},
        series=[],
    )
    prev_bound: Optional[List[Interval]] = None
    for n in range(n_max + 1):
        gn = _term_function(spec, n)
        norms = _atom_norm_intervals(gn, kind, cfg)
        for t in range(m):
            for j in range(d):
                if norms[t][j][0] > spec.dominator[t][j]:
                    raise DominatorViolation(n, t)
        err = norm_intervals((integrate(gn) - lim_integral).entries, kind, cfg)
        diff_norms = _atom_norm_intervals(gn - spec.limit, kind, cfg)
        bound = [certified.iadd(iv, certified.exact(tail_term))
                 for iv in lp_from_atom_norms(diff_norms, spec.space.masses,
                                              Fraction(1), cfg)]
        tol = certified.tol_for(cfg.compare_tol, err, bound)
        for j in range(d):
            if not certified.leq_with_slack(err[j], bound[j], tol)[0]:
                report.fail({"n": n, "coordinate": j})
        if prev_bound is not None:
            for j in range(d):
                if not certified.leq_with_slack(bound[j], prev_bound[j],
                                                tol)[0]:
                    report.fail({"n": n, "coordinate": j,
                                 "bound_not_monotone": True})
        prev_bound = bound
        report.series.append({"n": n,
                              "error": [certified.mid(iv) for iv in err],
                              "bound": [certified.mid(iv) for iv in bound]})
    return report


def run_completeness_harness(handle: LpHandle, seed: int, n_terms: int,
                             cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Synthesizes u_n = u* + 2**-n w and replays the completeness proof's
    estimates: the pairwise envelope bound, the pointwise limit, and the
    closing norm estimate with the exact residual 2**-n ||w||_p."""
    if handle.is_inf:
        raise ValueError("harness needs a finite exponent")
    rng = rng_for(seed)
    space, codomain, p = handle.base, handle.codomain, handle.p
    kind = codomain.norm_kind
    d = codomain.scalar_dim
    u_star = LFunction(space, codomain, tuple(
        random_module_vector(rng, codomain) for _ in range(space.size)))
    w = LFunction(space, codomain, tuple(
        random_module_vector(rng, codomain) for _ in range(space.size)))
    terms = [u_star + w.scale_rational(Fraction(1, 2 ** n))
             for n in range(1, n_terms + 1)]
    norm_w = _lp_norm_intervals(w, p, kind, cfg)
    tol = certified.tol_for(cfg.compare_tol, norm_w)
    report = CheckReport(
        name="completeness-harness",
        details={"terms": n_terms, "p": p,
                 "norm_w": collapse_intervals(norm_w)},
        series=[],
    )

    # pairwise envelope: ||u_n - u_m||_p <= 2**(1-k) ||w||_p for n, m >= k
    for k in range(1, n_terms + 1):
        eps = [certified.iscale(iv, Fraction(2, 2 ** k)) for iv in norm_w]
        for a in range(k, n_terms + 1):
            for b in range(a, n_terms + 1):
                diff = _lp_norm_intervals(terms[a - 1] - terms[b - 1], p, kind, cfg)
                for j in range(d):
                    if not certified.leq_with_slack(diff[j], eps[j], tol)[0]:
                        report.fail({"stage": "pairwise", "k": k, "n": a,
                                     "m": b, "coordinate": j})

    # pointwise limit: per atom and entry, an envelope certificate
    for t in range(space.size):
        for i in range(codomain.rank):
            seq = [terms[n - 1].values[t].entries[i] for n in range(1, n_terms + 1)]
            wt = abs(w.values[t].entries[i])
            envelope = [(wt.scale(Fraction(1, 2 ** n)), n - 1)
                        for n in range(1, n_terms + 1)]
            cert = check_order_convergence(seq, u_star.values[t].entries[i], envelope)
            if not cert.passed:
                report.fail({"stage": "pointwise", "atom": t, "entry": i,
                             "violation": cert.first_violation})

    # closing estimate and exact residual
    mu_root = certified.pow_bracket(space.total_mass,
                                    Fraction(1) / p, cfg.root_bits + 2)
    for n in range(1, n_terms + 1):
        resid = _lp_norm_intervals(u_star - terms[n - 1], p, kind, cfg)
        expected = [certified.iscale(iv, Fraction(1, 2 ** n)) for iv in norm_w]
        bound = [certified.imul(certified.iscale(iv, Fraction(2, 2 ** n)), mu_root)
                 for iv in norm_w]
        for j in range(d):
            if certified.is_exact(resid[j]) and certified.is_exact(expected[j]):
                ok_eq = resid[j] == expected[j]
                gap = abs(resid[j][0] - expected[j][0])
            else:
                ok_eq, gap = certified.eq_within(resid[j], expected[j],
                                                 cfg.compare_tol)
            le_tol = Fraction(0) if certified.is_exact(bound[j]) else cfg.compare_tol
            ok_le, _ = certified.leq_with_slack(resid[j], bound[j], le_tol)
            if not ok_eq or not ok_le:
                report.fail({"stage": "closing", "n": n, "coordinate": j,
                             "gap": gap})
        report.series.append({
            "n": n,
            "residual": [certified.mid(iv) for iv in resid],
            "expected": [certified.mid(iv) for iv in expected]})
    return report
