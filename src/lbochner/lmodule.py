"""Free modules over the scalar algebra with pluggable lattice-valued norms.

A module vector is a k-tuple of scalar-algebra elements; the three norm
kinds (sup, one, two) act coordinatewise in the scalar dimension, so every
norm question decouples into d independent scalar problems.  Functionals
act by coefficient pairing, which on a free finite-rank module is the
general form of a bounded linear map into the scalars.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from . import certified
from .certified import Interval
from .falgebra import (
    ApproxReal,
    DEFAULT_TOLERANCES,
    DimensionMismatch,
    LElement,
    ToleranceConfig,
    sgn,
)


class ShapeMismatch(ValueError):
    """Vector/functional shapes disagree (rank or scalar dimension)."""


class NormKind(enum.Enum):
    SUP = "sup"
    ONE = "one"
    TWO = "two"


def dual_kind(kind: NormKind) -> NormKind:
    if kind is NormKind.SUP:
        return NormKind.ONE
    if kind is NormKind.ONE:
        return NormKind.SUP
    return NormKind.TWO


@dataclass(frozen=True)
class ModuleSpace:
    rank: int
    scalar_dim: int
    norm_kind: NormKind

    def __post_init__(self):
        if self.rank < 1 or self.scalar_dim < 1:
            raise ValueError("rank and scalar_dim must be >= 1")

    def zero(self) -> "ModuleVector":
        return ModuleVector(self, tuple(
            LElement.zero(self.scalar_dim) for _ in range(self.rank)))

    def basis_vector(self, i: int) -> "ModuleVector":
        entries = [LElement.zero(self.scalar_dim) for _ in range(self.rank)]
        entries[i] = LElement.unit(self.scalar_dim)
        return ModuleVector(self, tuple(entries))

    def dual(self) -> "ModuleSpace":
        return ModuleSpace(self.rank, self.scalar_dim, dual_kind(self.norm_kind))


@dataclass(frozen=True)
class ModuleVector:
    space: ModuleSpace
    entries: Tuple[LElement, ...]

    def __post_init__(self):
        if len(self.entries) != self.space.rank:
            raise ShapeMismatch(
                f"expected {self.space.rank} entries, got {len(self.entries)}")
        for e in self.entries:
            if e.dim != self.space.scalar_dim:
                raise DimensionMismatch(
                    f"entry dimension {e.dim} != {self.space.scalar_dim}")

    def _check(self, other: "ModuleVector") -> None:
        if self.space != other.space:
            raise ShapeMismatch("vectors live in different module spaces")

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._check(other)
        return ModuleVector(self.space, tuple(
            a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        self._check(other)
        return ModuleVector(self.space, tuple(
            a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "ModuleVector":
        return ModuleVector(self.space, tuple(-a for a in self.entries))

    def scale(self, lam: LElement) -> "ModuleVector":
        return ModuleVector(self.space, tuple(lam * a for a in self.entries))

    def scale_rational(self, c) -> "ModuleVector":
        return ModuleVector(self.space, tuple(a.scale(c) for a in self.entries))

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)


@dataclass(frozen=True)
class Functional:
    """Acts by x -> sum_i coeffs[i] * x[i]; linear over the scalars by
    construction."""

    space: ModuleSpace  # the primal space it acts on
    coeffs: Tuple[LElement, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.space.rank:
            raise ShapeMismatch(
                f"expected {self.space.rank} coefficients, got {len(self.coeffs)}")
        for c in self.coeffs:
            if c.dim != self.space.scalar_dim:
                raise DimensionMismatch(
                    f"coefficient dimension {c.dim} != {self.space.scalar_dim}")

    def __add__(self, other: "Functional") -> "Functional":
        if self.space != other.space:
            raise ShapeMismatch("functionals on different module spaces")
        return Functional(self.space, tuple(
            a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, lam: LElement) -> "Functional":
        return Functional(self.space, tuple(lam * c for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)


def apply(phi: Functional, x: ModuleVector) -> LElement:
    if phi.space.rank != x.space.rank or phi.space.scalar_dim != x.space.scalar_dim:
        raise ShapeMismatch("functional and vector shapes disagree")
    acc = LElement.zero(phi.space.scalar_dim)
    for c, e in zip(phi.coeffs, x.entries):
        acc = acc + c * e
    return acc


NormValue = Union[LElement, Tuple[ApproxReal, ...]]


def norm_intervals(entries: Sequence[LElement], kind: NormKind,
                   cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> List[Interval]:
    """Per-scalar-coordinate certified brackets of the chosen norm.
    Exact coordinates come back as degenerate brackets.

    Each coordinate works on the entries' numerators and denominators: the
    sup by cross-multiplication, the one- and two-norm sums over one common
    denominator.  A fraction is built only for the result (and, for the
    two-norm, for the radicand of its ``root_bracket``)."""
    out: List[Interval] = []
    columns = zip(zip(*(e.nums for e in entries)),
                  zip(*(e.dens for e in entries)))
    if kind is NormKind.SUP:
        for nums, dens in columns:
            best_num, best_den = 0, 1
            for n, d in zip(nums, dens):
                if n < 0:
                    n = -n
                if n * best_den > best_num * d:
                    best_num, best_den = n, d
            best = Fraction(best_num, best_den)
            out.append((best, best))
    elif kind is NormKind.ONE:
        for nums, dens in columns:
            total = certified.common_denominator_sum(
                [abs(n) for n in nums], dens)
            out.append((total, total))
    else:
        bits = cfg.root_bits + 2
        for nums, dens in columns:
            sq = certified.common_denominator_sum(
                [n * n for n in nums], [d * d for d in dens])
            out.append(certified.root_bracket(sq, 2, bits))
    return out


def collapse_intervals(ivs: Sequence[Interval]) -> NormValue:
    if all(certified.is_exact(iv) for iv in ivs):
        return LElement([iv[0] for iv in ivs])
    return tuple(ApproxReal.from_interval(iv) for iv in ivs)


def value_intervals(value: NormValue) -> List[Interval]:
    """Back-convert a norm result (exact element or bracket tuple)."""
    if isinstance(value, LElement):
        return value.intervals()
    return [a.interval() for a in value]


def norm(x: ModuleVector, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> NormValue:
    return collapse_intervals(norm_intervals(x.entries, x.space.norm_kind, cfg))


def dual_norm(phi: Functional, primal_norm_kind: NormKind,
              cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> NormValue:
    """Least c >= 0 with |phi(x)| <= c * ||x||, coordinatewise: the dual-kind
    norm of the coefficient tuple."""
    return collapse_intervals(
        norm_intervals(phi.coeffs, dual_kind(primal_norm_kind), cfg))


@dataclass
class NormAxiomReport:
    axiom1: bool
    axiom2: bool
    axiom3: bool
    witness1: Optional[dict] = None
    witness2: Optional[dict] = None
    witness3: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.axiom1 and self.axiom2 and self.axiom3


def check_norm_axioms(space: ModuleSpace,
                      samples: Sequence[Tuple[LElement, ModuleVector, ModuleVector]],
                      cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> NormAxiomReport:
    """Verify the three norm axioms on (lambda, x, y) samples.

    Definiteness and homogeneity/triangle are exact for sup/one norms; the
    two-norm compares certified midpoints within compare_tol.
    """
    exact_kind = space.norm_kind is not NormKind.TWO
    tol = Fraction(0) if exact_kind else cfg.compare_tol
    report = NormAxiomReport(True, True, True)

    for idx, (lam, x, y) in enumerate(samples):
        nx = norm_intervals(x.entries, space.norm_kind, cfg)

        # axiom 1: ||x|| = 0 iff x = 0
        norm_zero = all(iv == (0, 0) for iv in nx)
        if norm_zero != x.is_zero():
            if report.axiom1:
                report.axiom1 = False
                report.witness1 = {"sample": idx, "x_is_zero": x.is_zero()}
            continue

        # axiom 2: ||lam x|| = |lam| ||x||
        lhs = norm_intervals(x.scale(lam).entries, space.norm_kind, cfg)
        alam = abs(lam)
        rhs = [certified.iscale(iv, alam[j]) for j, iv in enumerate(nx)]
        for j in range(space.scalar_dim):
            ok, gap = certified.eq_within(lhs[j], rhs[j], tol)
            if not ok and report.axiom2:
                report.axiom2 = False
                report.witness2 = {"sample": idx, "coordinate": j, "gap": gap}

        # axiom 3: ||x + y|| <= ||x|| + ||y||
        ns = norm_intervals((x + y).entries, space.norm_kind, cfg)
        ny = norm_intervals(y.entries, space.norm_kind, cfg)
        for j in range(space.scalar_dim):
            ok, slack = certified.leq_with_slack(
                ns[j], certified.iadd(nx[j], ny[j]), tol)
            if not ok and report.axiom3:
                report.axiom3 = False
                report.witness3 = {"sample": idx, "coordinate": j, "slack": slack}

    return report


def alignment_vector(phi: Functional, primal_norm_kind: NormKind) -> ModuleVector:
    """Unit-ball input attaining the dual norm (exactly for sup/one primal
    norms; for the two-norm the coefficient vector itself, to be rescaled)."""
    space = ModuleSpace(phi.space.rank, phi.space.scalar_dim, primal_norm_kind)
    if primal_norm_kind is NormKind.SUP:
        return ModuleVector(space, tuple(sgn(c) for c in phi.coeffs))
    if primal_norm_kind is NormKind.ONE:
        d = phi.space.scalar_dim
        entries = [[Fraction(0)] * d for _ in range(phi.space.rank)]
        for j in range(d):
            best_i, best_v = 0, Fraction(-1)
            for i, c in enumerate(phi.coeffs):
                v = abs(c[j])
                if v > best_v:
                    best_i, best_v = i, v
            if best_v > 0:
                cj = phi.coeffs[best_i][j]
                entries[best_i][j] = Fraction(1 if cj > 0 else -1)
        return ModuleVector(space, tuple(LElement(e) for e in entries))
    return ModuleVector(space, phi.coeffs)
