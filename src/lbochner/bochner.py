"""Simple functions on finite atomic spaces, their integrals, and the
p-norm calculus: Hölder/Minkowski checkers, the subset-supremum norm
representation, the Chebyshev step, the dominated-convergence experiment on
truncated countable spaces, and the completeness harness.

On a finite atomic space every function is simple and the integral is the
mass-weighted sum, so everything here is exact except for p-th roots, which
carry certified brackets.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from . import certified
from .certified import Ends, Ratio
from .falgebra import (
    DEFAULT_TOLERANCES,
    Frozen,
    LElement,
    ToleranceConfig,
    axpy,
)
from .lmodule import (
    ModuleSpace,
    ModuleVector,
    NormValue,
    collapse,
    contract,
    norm_ends,
)
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

_ZERO = Fraction(0)
_ONE = Fraction(1)


@functools.lru_cache(maxsize=32)
def conjugate_exponent(p: Exponent) -> Exponent:
    # cached: the checkers derive q from p on every call, and a run takes
    # only a few exponents
    if p is INF:
        return Fraction(1)
    if p == 1:
        return INF
    return p / (p - 1)


def _check_exponent(p: Exponent) -> None:
    if p is not INF and p < 1:
        raise ValueError("exponent must be >= 1 or INF")


class LFunction(Frozen):
    """A total map atom -> module vector; the representation of a member of
    the p-norm function space."""

    __slots__ = ("space", "codomain", "values")

    def __init__(self, space: MeasureSpace, codomain: ModuleSpace,
                 values: Tuple[ModuleVector, ...]):
        if len(values) != space.size:
            raise ValueError("one value per atom required")
        for v in values:
            if v.space != codomain:
                raise SpaceMismatch("value outside the declared codomain")
        self._set("space", space)
        self._set("codomain", codomain)
        self._set("values", values)

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

    def moved_to(self, codomain: ModuleSpace) -> "LFunction":
        """The same entries as a function into ``codomain``, a module of the
        same shape; a dual function's document names its primal module, and
        the dual function is that document's function moved to the dual."""
        return LFunction(self.space, codomain, tuple(
            ModuleVector(codomain, x.entries) for x in self.values))

    def _check(self, other: "LFunction") -> None:
        if self.space != other.space or self.codomain != other.codomain:
            raise SpaceMismatch("functions on different spaces")

    def _check_pairable(self, other: "LFunction") -> None:
        # other is a dual function of self: into the dual of self's codomain
        if (self.space != other.space
                or other.codomain != self.codomain.dual()):
            raise SpaceMismatch("functions cannot be paired")


def integrate(f: LFunction) -> ModuleVector:
    return integrate_over(f, f.space.full_set())


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


def atom_norm_ends(f: LFunction, cfg: ToleranceConfig) -> List[List[Ends]]:
    return [norm_ends(v, cfg) for v in f.values]


def power_sums_from_atom_ends(atom_ends: Sequence[Sequence[Ends]],
                              masses: Sequence[Fraction], s: Fraction,
                              cfg: ToleranceConfig) -> List[Ends]:
    """Per scalar coordinate: bracket of the sum over non-null atoms t of
    mu(t) * ||f(t)||**s, from the per-atom, per-coordinate norm ends.

    The lower ends mu(t) * lo(||f(t)||)**s and the upper ends are integer
    pairs (``certified.ipow_ends``), and each end's sum is taken over one
    common denominator and reduced once (``certified.reduced``)."""
    bits = cfg.root_bits + 2
    # per coordinate: lower-end numerators and denominators, then upper
    sums = [([], [], [], []) for _ in atom_ends[0]]
    for norms, mass in zip(atom_ends, masses):
        mn, md = mass.numerator, mass.denominator
        if mn == 0:
            continue
        for e, (lo_nums, lo_dens, hi_nums, hi_dens) in zip(norms, sums):
            ln, ld, hn, hd = certified.ipow_ends(e[:2], e[2:], s, bits)
            lo_nums.append(mn * ln)
            lo_dens.append(md * ld)
            hi_nums.append(mn * hn)
            hi_dens.append(md * hd)
    out = []
    for lo_nums, lo_dens, hi_nums, hi_dens in sums:
        lo = certified.reduced(*certified.common_denominator_sum(
            lo_nums, lo_dens))
        if lo_nums == hi_nums and lo_dens == hi_dens:
            out.append(lo + lo)
        else:
            out.append(lo + certified.reduced(
                *certified.common_denominator_sum(hi_nums, hi_dens)))
    return out


def lp_from_atom_ends(atom_ends: Sequence[Sequence[Ends]],
                      masses: Sequence[Fraction], p: Exponent,
                      cfg: ToleranceConfig) -> List[Ends]:
    """Per scalar coordinate: bracket of the p-norm of a function given by
    its per-atom norm ends; null atoms are skipped.  At p = INF this is
    the largest atom norm (0 when every atom is null)."""
    if p is INF:
        out = [certified.exact(0)] * len(atom_ends[0])
        for norms, mass in zip(atom_ends, masses):
            if mass.numerator == 0:
                continue
            out = [certified.imax(a, b) for a, b in zip(out, norms)]
        return out
    bits = cfg.root_bits + 2
    inv_p = (p.denominator, p.numerator)
    return [certified.ipow_ends(e[:2], e[2:], inv_p, bits)
            for e in power_sums_from_atom_ends(atom_ends, masses, p, cfg)]


def lp_norm_ends(f: LFunction, p: Exponent,
                 cfg: ToleranceConfig) -> List[Ends]:
    return lp_from_atom_ends(atom_norm_ends(f, cfg), f.space.masses, p, cfg)


def lp_norm(f: LFunction, p: Exponent,
            cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> NormValue:
    _check_exponent(p)
    return collapse(lp_norm_ends(f, p, cfg))


SUP_REP_MAX_ATOMS = 16


def verify_sup_representation(f: LFunction, p: Exponent,
                              cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Checks that E -> integral over E of ||f||**p is monotone under
    inclusion and attains its supremum at the whole space, over all 2**m
    subsets.

    For each scalar coordinate, every end of the weighted atom terms
    mu(t) * ||f(t)||**p (``certified.scale`` of the power's ends) and the
    tolerance are put over one common denominator, so each comparison is
    ``leq_with_slack``'s rule lo(a) <= hi(b) + tol on integer subset sums.
    The largest lo(a) - hi(b) over the pairs a pass compares has a closed
    form in the atom ends lo_i, hi_i, so with P = sum max(lo_i - hi_i, 0)
    the three passes fail exactly when

    * every subset against the whole space: sum max(lo_i, 0) > sum hi_i + tol;
    * single-atom extensions: P - max(lo_t - hi_t, 0) > hi_t + tol for
      some atom t;
    * every pair sub <= mask, at m <= 6: sum max(lo_i - hi_i, -hi_i, 0) > tol.

    That decides the verdict in O(m * d) for any ends, inverted or
    negative ones included.  Only when a pass fails are the 2**m subset
    tables built, to name its first witness in bitmask order.  Spaces
    above ``SUP_REP_MAX_ATOMS`` atoms are refused before anything is
    allocated."""
    _check_exponent(p)
    if p is INF:
        raise ValueError("sup representation needs a finite exponent")
    m = f.space.size
    if m > SUP_REP_MAX_ATOMS:
        raise TooManySubsets(f"{m} atoms exceeds the sup-representation "
                             f"cap {SUP_REP_MAX_ATOMS}")
    d = f.codomain.scalar_dim
    bits = cfg.root_bits + 2
    powers = [[certified.ipow_ends(e[:2], e[2:], p, bits) for e in norms]
              for norms in atom_norm_ends(f, cfg)]
    weighted = [[certified.scale(e, mass.numerator, mass.denominator)
                 for e in row]
                for row, mass in zip(powers, f.space.masses)]
    tol = certified.tol_for(cfg.compare_tol, *powers)

    columns: List[Tuple[List[int], List[int], int]] = []
    at_full: List[Ends] = []
    fails = False
    for j in range(d):
        column = [row[j] for row in weighted]
        den = math.lcm(tol.denominator, *(e[1] for e in column),
                       *(e[3] for e in column))
        lo = [e[0] * (den // e[1]) for e in column]
        hi = [e[2] * (den // e[3]) for e in column]
        tol_j = tol.numerator * (den // tol.denominator)
        columns.append((lo, hi, tol_j))
        at_full.append(certified.reduced(sum(lo), den)
                       + certified.reduced(sum(hi), den))
        fails = fails or _sup_rep_pass_fails(lo, hi, tol_j, m)

    if fails:
        witness, pairs_checked = _first_sup_rep_failure(
            [subset_sums(lo) for lo, _, _ in columns],
            [[s + tol_j for s in subset_sums(hi)]
             for _, hi, tol_j in columns], m)
    else:
        witness, pairs_checked = None, 3 ** m if m <= 6 else 0
    report = CheckReport(
        name="sup-representation",
        details={
            "subsets": 1 << m,
            "pairs_checked": pairs_checked,
            "max_at_full_space": collapse(at_full),
        },
    )
    if witness is not None:
        report.fail(witness)
    return report


def _sup_rep_pass_fails(lo: Sequence[int], hi: Sequence[int], tol: int,
                        m: int) -> bool:
    """Whether a pass of ``_first_sup_rep_failure`` fails on one coordinate
    with atom ends lo, hi: each left side below is the largest lo(a) -
    hi(b) over the pairs (a, b) that pass compares."""
    if sum(max(x, 0) for x in lo) > sum(hi) + tol:
        return True
    gaps = [max(x - y, 0) for x, y in zip(lo, hi)]
    total = sum(gaps)
    if any(total - g > y + tol for g, y in zip(gaps, hi)):
        return True
    return m <= 6 and sum(max(x - y, -y, 0)
                          for x, y in zip(lo, hi)) > tol


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


def check_holder(u: LFunction, v: LFunction, p: Exponent,
                 cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Integral of |<u, v>| against ||u||_p * ||v||_q, q the conjugate
    exponent of p, for a dual function v, one into ``u.codomain.dual()`` as
    in ``duality.pairing``.

    Each factor is measured in its own codomain's norm kind, so v's is the
    dual of u's (for rank one all kinds coincide with the modulus, so this
    is invisible there); that is the pairing for which the bound is a
    theorem.  A v into any other module is refused with ``SpaceMismatch``.
    """
    u._check_pairable(v)
    d = u.codomain.scalar_dim
    lhs = [certified.exact(0)] * d
    for t, mass in enumerate(u.space.masses):
        mn, md = mass.numerator, mass.denominator
        if mn == 0:
            continue
        val = abs(contract(u.values[t].entries, v.values[t].entries))
        lhs = [certified.add(acc, certified.scale(certified.exact(n, dn),
                                                  mn, md))
               for acc, n, dn in zip(lhs, val.nums, val.dens)]

    nu = lp_norm_ends(u, p, cfg)
    nv = lp_norm_ends(v, conjugate_exponent(p), cfg)
    rhs = [certified.mul(a, b) for a, b in zip(nu, nv)]
    tol = certified.tol_for(cfg.compare_tol, nu, nv)

    report = CheckReport(name="holder")
    slack = [Fraction(*report.at_most(lhs[j], rhs[j], tol, lambda _: {
        "coordinate": j, "lhs": certified.mid(lhs[j]),
        "rhs": certified.mid(rhs[j])})) for j in range(d)]
    report.details = {"lhs": collapse(lhs), "rhs": collapse(rhs),
                      "slack": slack, "tolerance": tol}
    return report


def check_minkowski(u: LFunction, v: LFunction, p: Fraction,
                    cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    if p is INF or p < 1:
        raise ValueError("need 1 <= p < infinity")
    u._check(v)
    ns = lp_norm_ends(u + v, p, cfg)
    nu = lp_norm_ends(u, p, cfg)
    nv = lp_norm_ends(v, p, cfg)
    rhs = [certified.add(a, b) for a, b in zip(nu, nv)]
    tol = certified.tol_for(cfg.compare_tol, ns, nu, nv)

    report = CheckReport(name="minkowski")
    slack = [Fraction(*report.at_most(ns[j], rhs[j], tol,
                                      lambda _: {"coordinate": j}))
             for j in range(len(ns))]
    report.details = {"lhs": collapse(ns), "rhs": collapse(rhs),
                      "slack": slack, "tolerance": tol}
    return report


def check_chebyshev_step(hs: Sequence[LFunction], h: LFunction, gamma: Fraction,
                         cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Per coordinate and per term: gamma * mu([||h_n - h|| >= gamma]) is at
    most the integral of ||h_n - h||.  The series reports each term's
    level-set measure, integral and slack."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    gn, gd = gamma.numerator, gamma.denominator
    report = CheckReport(name="chebyshev-step",
                         details={"gamma": gamma, "terms": len(hs)}, series=[])
    for n, hn in enumerate(hs):
        hn._check(h)
        norms = atom_norm_ends(hn - h, cfg)
        integrals = lp_from_atom_ends(norms, h.space.masses, _ONE, cfg)
        for j, total in enumerate(integrals):
            # certified members only: the lower end reaches gamma
            level = [t for t in range(h.space.size)
                     if norms[t][j][0] * gd >= gn * norms[t][j][1]]
            mu_level = sum((h.space.masses[t] for t in level), Fraction(0))
            weight = gamma * mu_level
            slack = report.at_most(
                certified.exact(weight.numerator, weight.denominator), total,
                _ZERO, lambda _: {"n": n, "coordinate": j,
                                  "level_measure": mu_level})
            report.series.append({
                "n": n, "coordinate": j, "level_measure": mu_level,
                "integral": certified.mid(total), "slack": Fraction(*slack)})
    return report


class TruncatedSequenceSpec:
    """A dominated approximating sequence on a truncated countable space.

    ``term(n, t)`` gives the n-th function's value at atom t; the dominator
    bounds every term's norm atomwise, the scalar bound caps the dominator,
    and tail_mass is the mass cut off by the truncation."""

    __slots__ = ("space", "codomain", "term", "limit", "dominator",
                 "scalar_bound", "tail_mass")

    def __init__(self, space: MeasureSpace, codomain: ModuleSpace,
                 term: Callable[[int, int], ModuleVector], limit: LFunction,
                 dominator: Tuple[LElement, ...], scalar_bound: Fraction,
                 tail_mass: Fraction):
        self.space = space
        self.codomain = codomain
        self.term = term
        self.limit = limit
        self.dominator = dominator
        self.scalar_bound = scalar_bound
        self.tail_mass = tail_mass


def _term_function(spec: TruncatedSequenceSpec, n: int) -> LFunction:
    return LFunction(spec.space, spec.codomain, tuple(
        spec.term(n, t) for t in range(spec.space.size)))


def run_dct_experiment(spec: TruncatedSequenceSpec, n_max: int,
                       cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Tracks e_n = ||integral(g_n) - integral(g)|| against the computable
    bound integral of ||g_n - g|| plus twice the truncated tail allowance.
    A term whose norm leaves the dominator at an atom fails the report
    with ``{"n": n, "atom": name, "dominator_violated": True}`` and ends
    the experiment there: the bound assumes the domination."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    d = spec.codomain.scalar_dim
    m = spec.space.size
    phi = spec.scalar_bound
    unit_bound = LElement.constant(phi, d)
    for t in range(m):
        if not (spec.dominator[t] <= unit_bound):
            raise ValueError(f"dominator exceeds the scalar bound at atom {t}")
    lim_integral = integrate(spec.limit)
    tail_term = 2 * phi * spec.tail_mass
    tail = certified.exact(tail_term.numerator, tail_term.denominator)

    report = CheckReport(
        name="dominated-convergence",
        details={"n_max": n_max, "tail_mass": spec.tail_mass,
                 "scalar_bound": phi},
        series=[],
    )
    prev_bound: Optional[List[Ends]] = None
    for n in range(n_max + 1):
        gn = _term_function(spec, n)
        norms = atom_norm_ends(gn, cfg)
        for t in range(m):
            dominator = spec.dominator[t]
            for e, dn, dd in zip(norms[t], dominator.nums, dominator.dens):
                if e[0] * dd > dn * e[1]:
                    report.fail({"n": n, "atom": spec.space.atom_names[t],
                                 "dominator_violated": True})
                    return report
        err = norm_ends(integrate(gn) - lim_integral, cfg)
        diff_norms = atom_norm_ends(gn - spec.limit, cfg)
        bound = [certified.add(e, tail)
                 for e in lp_from_atom_ends(diff_norms, spec.space.masses,
                                            _ONE, cfg)]
        tol = certified.tol_for(cfg.compare_tol, err, bound)
        for j in range(d):
            report.at_most(err[j], bound[j], tol,
                           lambda _: {"n": n, "coordinate": j})
        if prev_bound is not None:
            for j in range(d):
                report.at_most(bound[j], prev_bound[j], tol, lambda _: {
                    "n": n, "coordinate": j, "bound_not_monotone": True})
        prev_bound = bound
        report.series.append({"n": n,
                              "error": [certified.mid(e) for e in err],
                              "bound": [certified.mid(e) for e in bound]})
    return report


def run_completeness_harness(space: MeasureSpace, codomain: ModuleSpace,
                             p: Exponent, seed: int, n_terms: int,
                             cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Synthesizes u_n = u* + 2**-n w on ``space`` into ``codomain`` and
    replays the completeness proof's estimates: the pairwise envelope bound,
    the pointwise limit, and the closing norm estimate with the exact
    residual 2**-n ||w||_p.

    An anchor gives ||w||_p a second source, the Bochner integral
    ||w||_1 = sum mu(t) ||w(t)|| of w's atom norms, with no power sum and
    no root: at p = 1 the two are equal, and above it Lyapunov's
    ||w||_1 mu(S)**(1/p) <= mu(S) ||w||_p and ||w||_p <= mu(S)**(1/p) *
    max ||w(t)|| over positive-mass atoms hold.

    Both envelopes, 2**(1-k) ||w||_p and |w(t)_i| 2**-k, shrink as k
    grows, so each distance ||u_a - u_b||_p, a <= b, and each
    |u_n(t)_i - u*(t)_i| is computed once and compared once, at k = a and
    at k = n.  Only a failing comparison searches for its first failing k,
    which names the witness in (k, a, b, coordinate) order."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    _check_exponent(p)
    if p is INF:
        raise ValueError("harness needs a finite exponent")
    rng = rng_for(seed)
    d = codomain.scalar_dim
    u_star = LFunction(space, codomain, tuple(
        random_module_vector(rng, codomain) for _ in range(space.size)))
    w = LFunction(space, codomain, tuple(
        random_module_vector(rng, codomain) for _ in range(space.size)))
    terms = [u_star + w.scale_rational(Fraction(1, 2 ** n))
             for n in range(1, n_terms + 1)]
    norm_w = lp_norm_ends(w, p, cfg)
    tol = certified.tol_for(cfg.compare_tol, norm_w)
    report = CheckReport(
        name="completeness-harness",
        details={"terms": n_terms, "p": p, "norm_w": collapse(norm_w)},
        series=[],
    )

    # anchor: ||w||_1 and the largest atom norm, from w's atom norms
    mu = space.total_mass
    mu_root = certified.pow_ends(mu, (p.denominator, p.numerator),
                                 cfg.root_bits + 2)
    l1 = top = [certified.exact(0)] * d
    for x, mass in zip(w.values, space.masses):
        if mass:
            norms = norm_ends(x, cfg)
            l1 = [certified.add(a, certified.scale(e, mass.numerator,
                                                   mass.denominator))
                  for a, e in zip(l1, norms)]
            top = [certified.imax(a, e) for a, e in zip(top, norms)]
    for j in range(d):
        def anchor(_: Ratio) -> dict:
            return {"stage": "anchor", "coordinate": j}

        if p == 1:
            report.within(l1[j], norm_w[j], certified.tol_for(
                cfg.compare_tol, (l1[j], norm_w[j])), anchor)
            continue
        mu_w = certified.scale(norm_w[j], mu.numerator, mu.denominator)
        for lhs, rhs in ((certified.mul(l1[j], mu_root), mu_w),
                         (norm_w[j], certified.mul(mu_root, top[j]))):
            report.at_most(lhs, rhs, certified.tol_for(
                cfg.compare_tol, (lhs, rhs)), anchor)

    # pairwise envelope: ||u_a - u_b||_p <= 2**(1-k) ||w||_p for b >= a >= k
    envelope = [[certified.scale(e, 1, 2 ** (k - 1)) for e in norm_w]
                for k in range(1, n_terms + 1)]

    def beyond(x: Ends, k: int, j: int) -> bool:
        return not certified.leq_with_slack(x, envelope[k - 1][j], tol)[0]

    failing = []
    for a in range(1, n_terms + 1):
        for b in range(a, n_terms + 1):
            dist = lp_norm_ends(terms[a - 1] - terms[b - 1], p, cfg)
            for j in range(d):
                if beyond(dist[j], a, j):
                    k = next(k for k in range(1, a + 1)
                             if beyond(dist[j], k, j))
                    failing.append((k, a, b, j))
    if failing:
        k, a, b, j = min(failing)
        report.fail({"stage": "pairwise", "k": k, "n": a, "m": b,
                     "coordinate": j})

    # pointwise limit: |u_n(t)_i - u*(t)_i| <= |w(t)_i| 2**-k for n >= k
    for t in range(space.size):
        for i in range(codomain.rank):
            limit = u_star.values[t].entries[i]
            wt = abs(w.values[t].entries[i])
            bounds = [wt.scale(Fraction(1, 2 ** n))
                      for n in range(1, n_terms + 1)]
            gaps = [abs(term.values[t].entries[i] - limit) for term in terms]
            if all(g <= e for g, e in zip(gaps, bounds)):
                continue
            violation = next(
                (n, j) for k, e in enumerate(bounds) for n in range(k, n_terms)
                for j in range(d) if gaps[n][j] > e[j])
            report.fail({"stage": "pointwise", "atom": t, "entry": i,
                         "violation": violation})

    # closing estimate and exact residual
    for n in range(1, n_terms + 1):
        resid = lp_norm_ends(u_star - terms[n - 1], p, cfg)
        expected = [certified.scale(e, 1, 2 ** n) for e in norm_w]
        bound = [certified.mul(e, mu_root) for e in envelope[n - 1]]
        for j in range(d):
            def closing(gap: Ratio) -> dict:
                return {"stage": "closing", "n": n, "coordinate": j,
                        "gap": Fraction(*gap)}

            gap = report.within(resid[j], expected[j], certified.tol_for(
                cfg.compare_tol, (resid[j], expected[j])), closing)
            report.at_most(resid[j], bound[j], certified.tol_for(
                cfg.compare_tol, (bound[j],)), lambda _: closing(gap))
        report.series.append({
            "n": n,
            "residual": [certified.mid(e) for e in resid],
            "expected": [certified.mid(e) for e in expected]})
    return report
