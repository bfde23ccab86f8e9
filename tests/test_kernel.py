"""The kernel loops behind LElement keep every output in canonical reduced
form."""

import random
from math import gcd

import pytest

from lbochner.falgebra import LElement


def random_element(rng, d):
    return LElement([f"{rng.randint(-40, 40)}/{rng.randint(1, 40)}"
                     for _ in range(d)])


@pytest.fixture(scope="module")
def cases():
    rng = random.Random(20240917)
    return [(random_element(rng, d), random_element(rng, d))
            for d in (1, 2, 3, 8) for _ in range(50)]


def test_outputs_reduced_and_positive(cases):
    for a, b in cases:
        for r in (a + b, a - b, a * b):
            for n, d in zip(r.nums, r.dens):
                assert d > 0
                assert gcd(n, d) == 1
