"""Constructions that tests use to build inputs and expected values and
that the package itself has no use for."""

from fractions import Fraction

from lbochner.bochner import LFunction
from lbochner.falgebra import LElement
from lbochner.lmodule import ModuleVector
from lbochner.reports import format_rational


def basis_vector(space, i):
    """e_i of the module space: the unit at entry i, zero elsewhere."""
    entries = [LElement.zero(space.scalar_dim) for _ in range(space.rank)]
    entries[i] = LElement.unit(space.scalar_dim)
    return ModuleVector(space, tuple(entries))


def heavy_blocks(real):
    """``real`` (a vector measure's ``evaluate``), ten units heavier in
    every coordinate of entry 0 on every block of two or more atoms: the
    atomic sum no longer dominates, so the variation check must fail."""
    def evaluate(G, F):
        value = real(G, F)
        if len(F.members) > 1:
            return value + basis_vector(G.codomain, 0).scale_rational(10)
        return value
    return evaluate


def indicator_times(x, F):
    """The function x * 1_F."""
    return LFunction(F.space, x.space, tuple(
        x if i in F.members else x.space.zero() for i in range(F.space.size)))


def subset_of_names(space, names):
    return space.subset(space.atom_names.index(n) for n in names)


def subset_of_mask(space, mask):
    return space.subset(i for i in range(space.size) if mask >> i & 1)


def all_subsets(space):
    """Every measurable set of the space, in bitmask order."""
    return [subset_of_mask(space, mask) for mask in range(1 << space.size)]


def measure_of(F):
    return sum((F.space.masses[i] for i in F.members), Fraction(0))


def first_envelope_violation(seq, limit, envelope):
    """The first (n, coordinate) with |seq[n] - limit| > eps, over the
    (eps, threshold) pairs of the envelope in order and n >= threshold, or
    None; coordinates are compared as fractions.  The reference for the
    completeness harness's pointwise witness."""
    for eps, threshold in envelope:
        for n in range(threshold, len(seq)):
            diff = abs(seq[n] - limit)
            for j in range(limit.dim):
                if diff[j] > eps[j]:
                    return n, j
    return None


# the document writers, inverse to the loaders of ``serialize``

def lelement_to_doc(x):
    return [format_rational(q) for q in x.coords]


def module_space_to_doc(space):
    return {"rank": space.rank, "d": space.scalar_dim,
            "norm_kind": space.norm_kind.value}


def module_vector_to_doc(x):
    return [lelement_to_doc(e) for e in x.entries]


def measure_space_to_doc(space):
    return {"atoms": list(space.atom_names),
            "masses": [format_rational(m) for m in space.masses]}


def lfunction_to_doc(f):
    return {
        "space": measure_space_to_doc(f.space),
        "codomain": module_space_to_doc(f.codomain),
        "values": {name: module_vector_to_doc(value)
                   for name, value in zip(f.space.atom_names, f.values)},
    }


def vector_measure_to_doc(G):
    """The document ``rn density --measure`` reads."""
    return {
        "space": measure_space_to_doc(G.space),
        "codomain": module_space_to_doc(G.codomain),
        "atom_values": {name: module_vector_to_doc(value)
                        for name, value in zip(G.space.atom_names,
                                               G.atom_values)},
    }


def dual_function_to_doc(v):
    """The document ``dual isometry --v`` reads: v's values, under the
    primal module whose dual v maps into."""
    doc = lfunction_to_doc(v)
    doc["codomain"] = module_space_to_doc(v.codomain.dual())
    return doc
