"""Seeded generators for random algebra data.

Everything is driven by stdlib Mersenne Twister instances so that a 64-bit
seed fully determines every harness; helpers derive independent streams
from (seed, label) pairs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .falgebra import LElement
from .lmodule import ModuleSpace, ModuleVector
from .measure import MeasureSpace


def rng_for(seed: int, *stream: int) -> random.Random:
    x = seed & 0xFFFFFFFFFFFFFFFF
    for s in stream:
        x = (x * 6364136223846793005 + s + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
    return random.Random(x)


def random_lelement(rng: random.Random, d: int) -> LElement:
    """d coordinates, each a numerator in [-12, 12] drawn before its
    denominator in [1, 12], reduced as integers."""
    nums = []
    dens = []
    for _ in range(d):
        num = rng.randint(-12, 12)
        den = rng.randint(1, 12)
        g = gcd(num, den)
        nums.append(num // g)
        dens.append(den // g)
    return LElement._raw(tuple(nums), tuple(dens))


def random_module_vector(rng: random.Random,
                         space: ModuleSpace) -> ModuleVector:
    return ModuleVector(space, tuple(
        random_lelement(rng, space.scalar_dim) for _ in range(space.rank)))


def random_measure_space(rng: random.Random, m: int, null_atoms: int = 0,
                         normalize: bool = False) -> MeasureSpace:
    """m atoms with masses a/b, a and b in [1, 6], a drawn first;
    null_atoms of them get mass zero.  With normalize=True the total mass
    is rescaled to one."""
    if null_atoms >= m:
        raise ValueError("need at least one positive-mass atom")
    names = tuple(f"a{i}" for i in range(m))
    masses = [Fraction(rng.randint(1, 6), rng.randint(1, 6))
              for _ in range(m)]
    if null_atoms:
        for i in rng.sample(range(m), null_atoms):
            masses[i] = Fraction(0)
    if normalize:
        total = sum(masses)
        masses = [q / total for q in masses]
    return MeasureSpace(names, tuple(masses))
