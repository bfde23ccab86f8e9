"""Constructions that tests use to build inputs and expected values and
that the package itself has no use for."""

from fractions import Fraction

from lbochner import certified
from lbochner.bochner import LFunction
from lbochner.falgebra import DEFAULT_TOLERANCES, LElement
from lbochner.lmodule import ModuleVector, collapse, norm_ends
from lbochner.reports import CheckReport, format_rational
from lbochner.vecmeasure import evaluate


def basis_vector(space, i):
    """e_i of the module space: the unit at entry i, zero elsewhere."""
    entries = [LElement.zero(space.scalar_dim) for _ in range(space.rank)]
    entries[i] = LElement.unit(space.scalar_dim)
    return ModuleVector(space, tuple(entries))


def heavier(e, weight):
    """The bracket e, ``weight`` heavier at both ends, in lowest terms."""
    w = Fraction(weight)
    return (certified.reduced(e[0] * w.denominator + w.numerator * e[1],
                              e[1] * w.denominator)
            + certified.reduced(e[2] * w.denominator + w.numerator * e[3],
                                e[3] * w.denominator))


def _weighs(mask, masks):
    # the default: every block of two or more atoms
    return mask in masks if masks is not None else bool(mask & (mask - 1))


def heavy_blocks(real, weight=10, masks=None):
    """``real`` (``vecmeasure._subset_norms``), ``weight`` heavier in every
    coordinate on the blocks ``masks``, by default every block of two or
    more atoms: the atomic sum no longer dominates, so the variation check
    must fail."""
    def subset_norms(G, j, cfg):
        return [heavier(e, weight) if _weighs(mask, masks) else e
                for mask, e in enumerate(real(G, j, cfg))]
    return subset_norms


def enumerate_partitions(m):
    """Every set partition of the atoms 0..m-1 exactly once, Bell(m) of
    them, each a list of blocks in the order of their least atom, each
    block a list of atoms in increasing order."""
    out = []

    def extend(i, blocks):
        if i == m:
            out.append([list(b) for b in blocks])
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


def partition_variation(G, cfg=DEFAULT_TOLERANCES, weight=0, masks=None):
    """The reference for ``vecmeasure.variation``: the atomic sum of the
    norms, compared against the norm sum of every partition, each block's
    norm taken by ``norm_ends`` of ``evaluate``, with the blocks ``masks``
    ``weight`` heavier as ``heavy_blocks`` makes them.  The witness is the
    first failing partition in ``enumerate_partitions`` order and its
    coordinate."""
    space, d = G.space, G.codomain.scalar_dim
    norms = {}

    def norm_sum(blocks):
        total = [certified.exact(0)] * d
        for block in blocks:
            mask = sum(1 << t for t in block)
            if mask not in norms:
                ends = norm_ends(evaluate(G, space.subset(block)), cfg)
                norms[mask] = [heavier(e, weight) if _weighs(mask, masks)
                               else e for e in ends]
            total = list(map(certified.add, total, norms[mask]))
        return total

    total = norm_sum([t] for t in range(space.size))
    report = CheckReport(name="variation", details={
        "variation": collapse(total), "exhaustive_checked": True,
        "blocks": space.size})
    tol = certified.tol_for(cfg.compare_tol, total)
    for partition in enumerate_partitions(space.size):
        candidate = norm_sum(partition)
        for j in range(d):
            report.at_most(candidate[j], total[j], tol, lambda _: {
                "partition": [space.subset(b).names() for b in partition],
                "coordinate": j})
    return report


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
