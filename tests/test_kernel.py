"""The kernel loops behind LElement keep every output in canonical reduced
form, equal to the same arithmetic on Fractions."""

import random
from fractions import Fraction
from math import gcd

import pytest

from lbochner.falgebra import LElement, axpy


def random_element(rng, d):
    return LElement([f"{rng.randint(-40, 40)}/{rng.randint(1, 40)}"
                     for _ in range(d)])


@pytest.fixture(scope="module")
def cases():
    rng = random.Random(20240917)
    seeded = [(random_element(rng, d), random_element(rng, d),
               Fraction(rng.randint(-40, 40), rng.randint(1, 40)))
              for d in (1, 2, 3, 8) for _ in range(50)]
    cancelling = LElement(["1/2", "-3/7", "5/6", "0"])
    big = 2 ** 64
    return seeded + [
        # zero coordinates and a zero scalar
        (LElement(["0", "5/3", "0"]), LElement(["0", "0", "-2/9"]),
         Fraction(0)),
        # a - b and a + (-1) * b cancel to 0/1 in every coordinate
        (cancelling, cancelling, Fraction(-1)),
        (cancelling, -cancelling, Fraction(1)),
        # coordinates and scalars above 2**64
        (LElement([f"{3 ** 50}/{big + 1}", f"-{big + 3}/{5 ** 30}"]),
         LElement([f"{big + 1}/{3 ** 49}", f"{7 ** 25}/{4 * big}"]),
         Fraction(big + 1, 3 ** 41)),
    ]


def test_outputs_reduced_and_positive(cases):
    for a, b, c in cases:
        x, y = a.coords, b.coords
        expected = {
            "+": [p + q for p, q in zip(x, y)],
            "-": [p - q for p, q in zip(x, y)],
            "*": [p * q for p, q in zip(x, y)],
            "scale": [p * c for p in x],
            "axpy": [p + c * q for p, q in zip(x, y)],
        }
        got = {"+": a + b, "-": a - b, "*": a * b, "scale": a.scale(c),
               "axpy": axpy(a, c, b)}
        for op, r in got.items():
            for n, d in zip(r.nums, r.dens):
                assert d > 0
                assert gcd(n, d) == 1
            assert list(r.coords) == expected[op], (op, a, b, c)
        assert (a <= b) == all(p <= q for p, q in zip(x, y))
