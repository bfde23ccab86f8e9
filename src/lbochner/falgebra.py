"""The concrete scalar algebra: d-tuples of exact rationals.

Every scalar of the theory lives here.  Arithmetic is pointwise, the lattice
order is componentwise, and the multiplicative unit is the all-ones tuple.
All values are immutable and every operation is pure.

Irrational values (p-th roots) are carried by :class:`ApproxReal` with a
certified absolute error bound; the ring/lattice layer itself stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Tuple, Union

from ._kernel import _pykernel as _k
from .certified import Ends, mid, reduced

RationalLike = Union[Fraction, int, str]


class DimensionMismatch(ValueError):
    """Operands live in algebras of different dimension."""


def as_rational(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class LElement:
    """An element of the d-dimensional rational product algebra.

    Stored as parallel tuples of reduced numerators and positive
    denominators, the form the kernel loops operate on directly.
    """

    __slots__ = ("nums", "dens")

    def __init__(self, coords: Iterable[RationalLike]):
        nums = []
        dens = []
        for c in coords:
            q = as_rational(c)
            nums.append(q.numerator)
            dens.append(q.denominator)
        if not nums:
            raise ValueError("LElement needs at least one coordinate")
        self.nums = tuple(nums)
        self.dens = tuple(dens)

    @classmethod
    def _raw(cls, nums: Tuple[int, ...], dens: Tuple[int, ...]) -> "LElement":
        el = object.__new__(cls)
        el.nums = nums
        el.dens = dens
        return el

    @classmethod
    def unit(cls, d: int) -> "LElement":
        return cls._raw((1,) * d, (1,) * d)

    @classmethod
    def zero(cls, d: int) -> "LElement":
        return cls._raw((0,) * d, (1,) * d)

    @classmethod
    def constant(cls, q: RationalLike, d: int) -> "LElement":
        q = as_rational(q)
        return cls._raw((q.numerator,) * d, (q.denominator,) * d)

    @property
    def dim(self) -> int:
        return len(self.nums)

    @property
    def coords(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(n, d) for n, d in zip(self.nums, self.dens))

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.dens[i])

    def _check(self, other: "LElement") -> None:
        if len(self.nums) != len(other.nums):
            raise DimensionMismatch(
                f"dimension {len(self.nums)} vs {len(other.nums)}")

    def __add__(self, other: "LElement") -> "LElement":
        self._check(other)
        return LElement._raw(*_k.vadd(self.nums, self.dens, other.nums, other.dens))

    def __sub__(self, other: "LElement") -> "LElement":
        self._check(other)
        return LElement._raw(*_k.vsub(self.nums, self.dens, other.nums, other.dens))

    def __mul__(self, other: "LElement") -> "LElement":
        self._check(other)
        return LElement._raw(*_k.vmul(self.nums, self.dens, other.nums, other.dens))

    def __neg__(self) -> "LElement":
        return LElement._raw(*_k.vneg(self.nums, self.dens))

    def __abs__(self) -> "LElement":
        return LElement._raw(*_k.vabs(self.nums, self.dens))

    def __le__(self, other: "LElement") -> bool:
        # componentwise partial order: a <= b and b <= a may both be False
        self._check(other)
        return _k.vfirst_above(self.nums, self.dens,
                               other.nums, other.dens) is None

    def __ge__(self, other: "LElement") -> bool:
        return other.__le__(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LElement):
            return NotImplemented
        return self.nums == other.nums and self.dens == other.dens

    def __hash__(self) -> int:
        return hash((self.nums, self.dens))

    def __repr__(self) -> str:
        return "LElement(%s)" % ", ".join(str(q) for q in self.coords)

    def scale(self, c: RationalLike) -> "LElement":
        q = as_rational(c)
        return LElement._raw(*_k.vscale(self.nums, self.dens, q.numerator, q.denominator))

    def is_zero(self) -> bool:
        return all(n == 0 for n in self.nums)


def sgn(a: LElement) -> LElement:
    nums = tuple((n > 0) - (n < 0) for n in a.nums)
    return LElement._raw(nums, (1,) * len(nums))


def axpy(a: LElement, c: RationalLike, b: LElement) -> LElement:
    """a + c*b for a rational scalar c (fused hot path for integrals)."""
    a._check(b)
    q = as_rational(c)
    return LElement._raw(*_k.vaxpy(a.nums, a.dens, q.numerator, q.denominator,
                                   b.nums, b.dens))


class Frozen:
    """Base of the immutable value types: equal and hashed by the values of
    their ``__slots__``, which only ``__init__`` sets, through ``_set``."""

    __slots__ = ()
    _set = object.__setattr__

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        return (self._values(self) == other._values(other)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{n}={getattr(self, n)!r}" for n in self.__slots__))


class ToleranceConfig(Frozen):
    """Error budget: comparisons involving approximations use compare_tol,
    and root brackets are tightened to root_tol = compare_tol / 2**10.

    root_tol is derived once here, not on each read: ``root_bits`` reads
    it for every bracket."""

    __slots__ = ("compare_tol", "root_tol")

    def __init__(self, compare_tol: Fraction = Fraction(1, 2 ** 30)):
        if compare_tol <= 0:
            raise ValueError("compare_tol must be > 0")
        self._set("compare_tol", compare_tol)
        self._set("root_tol", compare_tol / 2 ** 10)

    @property
    def root_bits(self) -> int:
        return max(2, (self.root_tol.denominator - 1).bit_length())


DEFAULT_TOLERANCES = ToleranceConfig()


class ApproxReal(Frozen):
    """A real known to lie within value +- abs_error_bound (both rational)."""

    __slots__ = ("value", "abs_error_bound")

    def __init__(self, value: Fraction, abs_error_bound: Fraction):
        self._set("value", value)
        self._set("abs_error_bound", abs_error_bound)

    @classmethod
    def from_ends(cls, e: Ends) -> "ApproxReal":
        """The midpoint and half-width of the bracket with integer ends
        (lo_num, lo_den, hi_num, hi_den)."""
        ln, ld, hn, hd = e
        half_width = reduced(hn * ld - ln * hd, 2 * ld * hd)
        return cls(mid(e), Fraction(*half_width))

    @property
    def is_exact(self) -> bool:
        return self.abs_error_bound == 0

    def __repr__(self) -> str:
        if self.is_exact:
            return f"ApproxReal({self.value})"
        return f"ApproxReal({self.value} +- {self.abs_error_bound})"
