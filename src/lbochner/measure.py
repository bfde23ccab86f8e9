"""Finite atomic measure spaces and their measurable sets.

The sigma-algebra is the full power set of the atom set; sets are frozen
index subsets.  Zero-mass atoms are allowed (they drive the absolute-
continuity error cases downstream).  Includes the dyadic spaces and the
sign-pattern set families used by the density-failure probe.
"""

from __future__ import annotations

from fractions import Fraction
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from .falgebra import Frozen, RationalLike, as_rational


class TooManyAtoms(ValueError):
    """Partition enumeration refused: Bell-number growth."""


class TooManySubsets(ValueError):
    """Subset table refused: 2**m growth."""


class SpaceMismatch(ValueError):
    """Objects on different measure spaces combined."""


class MeasureSpace(Frozen):
    __slots__ = ("atom_names", "masses")

    def __init__(self, atom_names: Tuple[str, ...],
                 masses: Tuple[Fraction, ...]):
        if len(atom_names) != len(masses):
            raise ValueError("atom_names and masses must have equal length")
        if len(set(atom_names)) != len(atom_names):
            raise ValueError("atom names must be unique")
        if any(m < 0 for m in masses):
            raise ValueError("masses must be nonnegative")
        # the masses are nonnegative, so the total is positive iff one is
        if not any(m > 0 for m in masses):
            raise ValueError("total mass must be positive")
        self._set("atom_names", atom_names)
        self._set("masses", masses)

    @classmethod
    def build(cls, atom_names: Iterable[str],
              masses: Iterable[RationalLike]) -> "MeasureSpace":
        return cls(tuple(atom_names), tuple(as_rational(m) for m in masses))

    @property
    def size(self) -> int:
        return len(self.atom_names)

    @property
    def total_mass(self) -> Fraction:
        return sum(self.masses, Fraction(0))

    def full_set(self) -> "MeasurableSet":
        return MeasurableSet(self, frozenset(range(self.size)))

    def singleton(self, i: int) -> "MeasurableSet":
        return MeasurableSet(self, frozenset((i,)))

    def subset(self, members: Iterable[int]) -> "MeasurableSet":
        return MeasurableSet(self, frozenset(members))


class MeasurableSet(Frozen):
    __slots__ = ("space", "members")

    def __init__(self, space: MeasureSpace, members: FrozenSet[int]):
        if any(i < 0 or i >= space.size for i in members):
            raise ValueError("member index out of range")
        self._set("space", space)
        self._set("members", members)

    def names(self) -> List[str]:
        return sorted(self.space.atom_names[i] for i in self.members)


def subset_sums(terms: Sequence[int]) -> List[int]:
    """Indexed by bitmask: entry ``mask`` is the sum of the terms whose bit
    is set in ``mask``.  Each entry is one addition away from the entry
    without its lowest set bit, so the whole table costs 2**len(terms)
    additions."""
    sums = [0] * (1 << len(terms))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + terms[low.bit_length() - 1]
    return sums


class Partition(Frozen):
    __slots__ = ("blocks",)

    def __init__(self, blocks: Tuple[MeasurableSet, ...]):
        if not blocks:
            raise ValueError("partition needs at least one block")
        space = blocks[0].space
        seen: set = set()
        for b in blocks:
            if b.space != space:
                raise SpaceMismatch("partition blocks on different spaces")
            if seen & b.members:
                raise ValueError("partition blocks must be disjoint")
            seen |= b.members
        if seen != set(range(space.size)):
            raise ValueError("partition blocks must cover the space")
        self._set("blocks", blocks)


PARTITION_MAX_ATOMS = 10


def enumerate_partitions(space: MeasureSpace) -> List[Partition]:
    """Every set partition of the atoms, exactly once (Bell(m) of them);
    refused above ``PARTITION_MAX_ATOMS`` atoms."""
    m = space.size
    if m > PARTITION_MAX_ATOMS:
        raise TooManyAtoms(f"{m} atoms exceeds cap {PARTITION_MAX_ATOMS}")

    out: List[Partition] = []

    def extend(i: int, blocks: List[List[int]]) -> None:
        if i == m:
            out.append(Partition(tuple(
                space.subset(b) for b in blocks)))
            return
        for b in blocks:
            b.append(i)
            extend(i + 1, blocks)
            b.pop()
        blocks.append([i])
        extend(i + 1, blocks)
        blocks.pop()

    extend(0, [])
    return out


def dyadic_space(levels: int) -> MeasureSpace:
    """2**levels atoms of equal mass 2**-levels (total mass one); atoms are
    named by their binary address."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if levels > 20:
        raise ValueError("levels > 20 rejected (2**levels atoms)")
    n = 1 << levels
    mass = Fraction(1, n)
    names = tuple(format(i, f"0{levels}b") for i in range(n))
    return MeasureSpace(names, (mass,) * n)


def rademacher_set(space: MeasureSpace, n: int) -> MeasurableSet:
    """Atoms where the n-th fair sign is +1: binary digit n-1 (from the most
    significant) of the atom index is 0.  Requires a dyadic space."""
    m = space.size
    levels = m.bit_length() - 1
    if m != 1 << levels or levels < 1:
        raise ValueError("rademacher_set needs a dyadic space")
    if any(mass != Fraction(1, m) for mass in space.masses):
        raise ValueError("rademacher_set needs uniform dyadic masses")
    if not (1 <= n <= levels):
        raise ValueError(f"n must be in 1..{levels}")
    bit = levels - n
    return space.subset(i for i in range(m) if not (i >> bit) & 1)
