"""Seeded input documents for the benchmark workloads.

Every document is a pure function of the workload seed, written in the
program's JSON input format (rationals as "num/den" strings).  The make-up
of each document is fixed by the constants below and recorded in the
README next to them.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

# (atoms, rank, d, norm_kind, bits): numerators are drawn below 2**bits in
# magnitude, denominators from [1, 2**bits), masses from the same range.
ROOTS_PAIR = (8, 3, 3, "two", 64)      # check holder / minkowski --u --v
ROOTS_SUPREP = (10, 2, 3, "two", 64)   # check sup-rep --fn
EXHAUSTIVE_SUPREP = (12, 2, 2, "sup", 64)    # check sup-rep --fn, 4096 subsets
EXHAUSTIVE_DENSITY = (10, 2, 2, "one", 64)   # rn density --measure, 1024 subsets
EXHAUSTIVE_VARIATION = (5, 2, 2, "sup", 64)  # rn variation --measure, 52 partitions


def stream(seed: int, label: str) -> random.Random:
    """An independent generator per (seed, label)."""
    return random.Random(f"{seed}:{label}")


def _rational(rng: random.Random, bits: int, positive: bool = False) -> str:
    bound = 1 << bits
    num = rng.randrange(1, bound) if positive else rng.randrange(1 - bound, bound)
    q = Fraction(num, rng.randrange(1, bound))
    return f"{q.numerator}/{q.denominator}"


def _space(rng, atoms, bits, null_atom=None):
    masses = [_rational(rng, bits, positive=True) for _ in range(atoms)]
    if null_atom is not None:
        masses[null_atom] = "0/1"
    return {"atoms": [f"t{i}" for i in range(atoms)], "masses": masses}


def _values(rng, names, rank, d, bits, zero=()):
    return {name: [[("0/1" if name in zero else _rational(rng, bits))
                    for _ in range(d)] for _ in range(rank)]
            for name in names}


def function_doc(rng, makeup, space=None, key="values", null_atom=None):
    atoms, rank, d, kind, bits = makeup
    if space is None:
        space = _space(rng, atoms, bits, null_atom)
    zero = () if null_atom is None else (space["atoms"][null_atom],)
    return {"space": space,
            "codomain": {"rank": rank, "d": d, "norm_kind": kind},
            key: _values(rng, space["atoms"], rank, d, bits, zero)}


def roots_documents(seed: int) -> dict:
    rng = stream(seed, "roots")
    u = function_doc(rng, ROOTS_PAIR)
    v = function_doc(rng, ROOTS_PAIR, space=u["space"])
    return {"u": u, "v": v, "f": function_doc(rng, ROOTS_SUPREP)}


def exhaustive_documents(seed: int) -> dict:
    rng = stream(seed, "exhaustive")
    density_atoms = EXHAUSTIVE_DENSITY[0]
    return {
        "f": function_doc(rng, EXHAUSTIVE_SUPREP),
        # one null atom carrying the zero value: absolutely continuous, and
        # the mu-continuity table has rows with mu(F) = 0
        "g_density": function_doc(rng, EXHAUSTIVE_DENSITY, key="atom_values",
                                  null_atom=rng.randrange(density_atoms)),
        "g_variation": function_doc(rng, EXHAUSTIVE_VARIATION,
                                    key="atom_values"),
    }


def write(docs: dict, directory: str) -> dict:
    """Write each document as <name>.json; returns name -> path."""
    paths = {}
    for name, doc in docs.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths[name] = path
    return paths
