"""Free modules over the scalar algebra with pluggable lattice-valued norms.

A module vector is a k-tuple of scalar-algebra elements; the three norm
kinds (sup, one, two) act coordinatewise in the scalar dimension, so every
norm question decouples into d independent scalar problems.  A functional
on a space is a vector of its ``dual()`` (same rank and scalar dimension,
dual norm kind) acting by ``contract``, which on a free finite-rank module
is the general form of a bounded linear map into the scalars.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

from . import certified
from .certified import Ends, Ratio
from .falgebra import (
    ApproxReal,
    DEFAULT_TOLERANCES,
    DimensionMismatch,
    Frozen,
    LElement,
    ToleranceConfig,
    sgn,
)
from .reports import CheckReport


class ShapeMismatch(ValueError):
    """Vector shapes disagree (rank or scalar dimension)."""


class NormKind(enum.Enum):
    SUP = "sup"
    ONE = "one"
    TWO = "two"


class ModuleSpace(Frozen):
    __slots__ = ("rank", "scalar_dim", "norm_kind")

    def __init__(self, rank: int, scalar_dim: int, norm_kind: NormKind):
        if rank < 1 or scalar_dim < 1:
            raise ValueError("rank and scalar_dim must be >= 1")
        self._set("rank", rank)
        self._set("scalar_dim", scalar_dim)
        self._set("norm_kind", norm_kind)

    def zero(self) -> "ModuleVector":
        return ModuleVector(self, tuple(
            LElement.zero(self.scalar_dim) for _ in range(self.rank)))

    def dual(self) -> "ModuleSpace":
        """The same shape with the dual norm kind: sup and one swap, the
        two-norm is its own dual."""
        kind = self.norm_kind
        if kind is NormKind.SUP:
            kind = NormKind.ONE
        elif kind is NormKind.ONE:
            kind = NormKind.SUP
        return ModuleSpace(self.rank, self.scalar_dim, kind)


class ModuleVector(Frozen):
    __slots__ = ("space", "entries")

    def __init__(self, space: ModuleSpace, entries: Tuple[LElement, ...]):
        if len(entries) != space.rank:
            raise ShapeMismatch(
                f"expected {space.rank} entries, got {len(entries)}")
        for e in entries:
            if e.dim != space.scalar_dim:
                raise DimensionMismatch(
                    f"entry dimension {e.dim} != {space.scalar_dim}")
        self._set("space", space)
        self._set("entries", entries)

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


def contract(a: Sequence[LElement], b: Sequence[LElement]) -> LElement:
    """sum_i a[i] * b[i] over two equally long, nonempty sequences: the one
    contraction behind functionals (dual-module vectors), the integral
    pairing, operators and the Hölder integrand."""
    acc = LElement.zero(a[0].dim)
    for x, y in zip(a, b, strict=True):
        acc = acc + x * y
    return acc


NormValue = Union[LElement, Tuple[ApproxReal, ...]]


Column = Tuple[Sequence[int], Sequence[int]]


def column_norms(kind: NormKind, columns: Iterable[Column]) -> List[Ratio]:
    """The norm step of each scalar coordinate, given as the numerators and
    denominators (> 0) of its entries, as an unreduced (num, den): the
    sup-norm's value, a maximum by cross-multiplication (one of the
    entries, so in lowest terms when they are); the one-norm's value,
    summed over one common denominator; or the two-norm's radicand, the sum
    of squares over one common denominator.  ``norm_ends`` reduces every
    pair once, in the form it needs."""
    if kind is NormKind.SUP:
        out = []
        for nums, dens in columns:
            best_num, best_den = 0, 1
            for n, d in zip(nums, dens):
                if n < 0:
                    n = -n
                if n * best_den > best_num * d:
                    best_num, best_den = n, d
            out.append((best_num, best_den))
        return out
    if kind is NormKind.ONE:
        return [certified.common_denominator_sum([abs(n) for n in nums], dens)
                for nums, dens in columns]
    return [certified.common_denominator_sum([n * n for n in nums],
                                             [d * d for d in dens])
            for nums, dens in columns]


def norm_ends(x: ModuleVector,
              cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> List[Ends]:
    """Per-scalar-coordinate certified brackets of the norm of x, in the
    norm kind of its own module ``x.space``, as integer ends
    (``certified.Ends``).  Exact coordinates come back as degenerate
    brackets.

    The coordinates are ``column_norms`` of the entries' numerators and
    denominators: the sup is already in lowest terms, the one-norm is
    reduced once, and the two-norm's sum of squares becomes the
    ``Fraction`` radicand of its ``root_bracket``, the one fraction built,
    whose two reduced (num, den) ends are the bracket's."""
    kind = x.space.norm_kind
    pairs = column_norms(kind, zip(zip(*(e.nums for e in x.entries)),
                                   zip(*(e.dens for e in x.entries))))
    if kind is NormKind.SUP:
        return [(n, d, n, d) for n, d in pairs]
    if kind is NormKind.ONE:
        return [certified.reduced(n, d) * 2 for n, d in pairs]
    bits = cfg.root_bits + 2
    return [lo + hi for lo, hi in (
        certified.root_bracket(Fraction(n, d), 2, bits) for n, d in pairs)]


def collapse(brackets: Sequence[Ends]) -> NormValue:
    """A norm result for a report: the exact element when every bracket is
    exact, else one ``ApproxReal`` per coordinate."""
    if all(certified.is_exact(e) for e in brackets):
        return LElement._raw(tuple(e[0] for e in brackets),
                             tuple(e[1] for e in brackets))
    return tuple(ApproxReal.from_ends(e) for e in brackets)


def norm(x: ModuleVector, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> NormValue:
    return collapse(norm_ends(x, cfg))


def check_norm_axioms(space: ModuleSpace,
                      samples: Sequence[Tuple[LElement, ModuleVector, ModuleVector]],
                      cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CheckReport:
    """Verify the three norm axioms on (lambda, x, y) samples; ``details``
    says which axioms held, and the witness is the first failing sample.

    Definiteness and homogeneity/triangle are exact for sup/one norms; the
    two-norm compares certified midpoints within compare_tol.
    """
    exact_kind = space.norm_kind is not NormKind.TWO
    tol = Fraction(0) if exact_kind else cfg.compare_tol
    report = CheckReport(
        name=f"norm-axioms-{space.norm_kind.value}",
        details={"trials": len(samples),
                 "axiom1": True, "axiom2": True, "axiom3": True})

    def violated(axiom: str, witness: dict) -> dict:
        report.details[axiom] = False
        return witness

    for idx, (lam, x, y) in enumerate(samples):
        nx = norm_ends(x, cfg)

        # axiom 1: ||x|| = 0 iff x = 0
        norm_zero = all(e[0] == 0 and e[2] == 0 for e in nx)
        if norm_zero != x.is_zero():
            report.fail(violated("axiom1", {"sample": idx,
                                            "x_is_zero": x.is_zero()}))
            continue

        # axiom 2: ||lam x|| = |lam| ||x||
        lhs = norm_ends(x.scale(lam), cfg)
        rhs = [certified.scale(e, abs(n), d)
               for e, n, d in zip(nx, lam.nums, lam.dens)]
        for j in range(space.scalar_dim):
            report.within(lhs[j], rhs[j], tol, lambda gap: violated(
                "axiom2", {"sample": idx, "coordinate": j,
                           "gap": Fraction(*gap)}))

        # axiom 3: ||x + y|| <= ||x|| + ||y||
        ns = norm_ends(x + y, cfg)
        ny = norm_ends(y, cfg)
        for j in range(space.scalar_dim):
            report.at_most(ns[j], certified.add(nx[j], ny[j]), tol,
                           lambda slack: violated(
                               "axiom3", {"sample": idx, "coordinate": j,
                                          "slack": Fraction(*slack)}))

    return report


def alignment_vector(phi: ModuleVector) -> ModuleVector:
    """For a functional phi, a vector of the dual module, the input in the
    unit ball of its primal module that attains phi's norm (exactly for
    sup/one primal norms; for the two-norm phi's entries themselves, to be
    rescaled)."""
    space = phi.space.dual()
    if space.norm_kind is NormKind.SUP:
        return ModuleVector(space, tuple(sgn(c) for c in phi.entries))
    if space.norm_kind is NormKind.ONE:
        entries = [[Fraction(0)] * space.scalar_dim for _ in range(space.rank)]
        for j in range(space.scalar_dim):
            best_i, best_v = 0, Fraction(-1)
            for i, c in enumerate(phi.entries):
                v = abs(c[j])
                if v > best_v:
                    best_i, best_v = i, v
            if best_v > 0:
                cj = phi.entries[best_i][j]
                entries[best_i][j] = Fraction(1 if cj > 0 else -1)
        return ModuleVector(space, tuple(LElement(e) for e in entries))
    return ModuleVector(space, phi.entries)
