"""Metamorphic relations: a transformed input, run again, must give what
the relation predicts, so no independent oracle is needed.

The Radon-Nikodym commands, on a transformed input document:

* Splitting atom t of a vector measure into two atoms of masses mu(t)/3 and
  2 mu(t)/3 that carry G({t})/3 and 2 G({t})/3: the density takes the old
  value g(t) at both new atoms; the variation is unchanged, exactly for the
  sup and one norms (the norm is positively homogeneous and exact) and
  within ``--tol`` for the two-norm (its brackets are not exact); and every
  verdict holds.
* Permuting the atoms: the variation is unchanged, and the rows of the
  mu-continuity table are permuted by bitmask: with new atom k the old
  atom perm[k], new row M is old row sum(2**perm[k] for k in M).

The p-norm of a scaled indicator, at the ``bochner.lp_norm_ends`` level:

* f = c 1_S, the module vector c on the atoms of S and zero elsewhere, has
  the norm ||c|| mu(S) ** (1/p), coordinate by coordinate, within the
  comparison tolerance; the right side is built from ``lmodule.norm_ends``
  of c, ``certified.pow_ends`` and ``certified.mul``.
"""

import json
import random
from fractions import Fraction

import pytest

from lbochner import certified, serialize, vecmeasure
from lbochner.bochner import LFunction, lp_norm_ends
from lbochner.cli import main
from lbochner.falgebra import ToleranceConfig
from lbochner.lmodule import ModuleSpace, NormKind, norm_ends
from lbochner.measure import MeasureSpace
from lbochner.sampling import random_measure_space, random_module_vector
from lbochner.vecmeasure import VectorMeasure
from support import vector_measure_to_doc

TOL = Fraction(1, 2 ** 30)
KINDS = pytest.mark.parametrize("kind", list(NormKind),
                                ids=lambda k: k.value)


def drawn_measure(seed, m, kind):
    """G(F) = integral of a seeded density over F, on m atoms with one
    null atom, into the rank-2, d = 2 module of the given norm kind."""
    rng = random.Random(f"{seed}:{m}:{kind.value}")
    codomain = ModuleSpace(2, 2, kind)
    space = random_measure_space(rng, m, null_atoms=1)
    return VectorMeasure.from_density(LFunction(space, codomain, tuple(
        random_module_vector(rng, codomain) for _ in range(m))))


def split_atom(G, t):
    """G with atom t split 1:2, in mass and in value, into atom t and a new
    atom right after it."""
    third = Fraction(1, 3)
    names, masses = list(G.space.atom_names), list(G.space.masses)
    values = list(G.atom_values)
    names.insert(t + 1, names[t] + "-2")
    masses[t:t + 1] = [masses[t] * third, masses[t] * 2 * third]
    values[t:t + 1] = [values[t].scale_rational(third),
                       values[t].scale_rational(2 * third)]
    return VectorMeasure(MeasureSpace(tuple(names), tuple(masses)),
                         G.codomain, tuple(values))


def permuted(G, perm):
    """G with new atom k the old atom perm[k]."""
    space = MeasureSpace(tuple(G.space.atom_names[i] for i in perm),
                         tuple(G.space.masses[i] for i in perm))
    return VectorMeasure(space, G.codomain,
                         tuple(G.atom_values[i] for i in perm))


def run(command, G, tmp_path, name):
    """The report of ``rn <command>`` on G's document; every verdict must
    hold."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(vector_measure_to_doc(G)), encoding="utf-8")
    out = tmp_path / f"{name}.out.json"
    assert main(["rn", command, "--measure", str(path), "--tol", str(TOL),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["verdict"] == "PASS"
    assert all(c["verdict"] == "PASS" for c in doc["checks"])
    return doc, serialize.vector_measure_from_doc(
        json.loads(path.read_text(encoding="utf-8")), str(path))


def variation_values(doc):
    return doc["checks"][0]["details"]["variation"]


class TestSplitAtom:
    @KINDS
    def test_variation_unchanged(self, kind, tmp_path):
        G = drawn_measure(701, 4, kind)
        before = variation_values(run("variation", G, tmp_path, "G")[0])
        for t in range(G.space.size):
            split, _ = run("variation", split_atom(G, t), tmp_path, f"G{t}")
            after = variation_values(split)
            assert split["checks"][0]["details"]["exhaustive_checked"]
            if kind is NormKind.TWO:
                for a, b in zip(after, before):
                    gap = abs(Fraction(a["value"]) - Fraction(b["value"]))
                    assert gap <= TOL
            else:
                assert after == before

    @KINDS
    def test_density_takes_the_old_value_at_both_atoms(self, kind,
                                                       tmp_path):
        # nine atoms split into ten: the mu-continuity table at its cap
        G = drawn_measure(702, 9, kind)
        null = G.space.masses.index(0)
        _, read = run("density", G, tmp_path, "G")
        g = vecmeasure.density(read)
        for t in (null, (null + 4) % 9):
            doc, split = run("density", split_atom(G, t), tmp_path, f"G{t}")
            assert len(doc["checks"][0]["series"]) == 2 ** 10
            h = vecmeasure.density(split)
            assert h.values[t] == h.values[t + 1] == g.values[t]
            assert h.values[:t] == g.values[:t]
            assert h.values[t + 2:] == g.values[t + 1:]


class TestPermuteAtoms:
    @KINDS
    def test_variation_unchanged(self, kind, tmp_path):
        G = drawn_measure(703, 5, kind)
        before = variation_values(run("variation", G, tmp_path, "G")[0])
        for seed in range(3):
            perm = random.Random(seed).sample(range(5), 5)
            doc, _ = run("variation", permuted(G, perm), tmp_path, f"P{seed}")
            assert variation_values(doc) == before

    @KINDS
    def test_continuity_rows_permute_by_bitmask(self, kind, tmp_path):
        G = drawn_measure(704, 10, kind)
        rows = run("density", G, tmp_path, "G")[0]["checks"][0]["series"]
        perm = random.Random(704).sample(range(10), 10)
        doc, _ = run("density", permuted(G, perm), tmp_path, "P")
        new_rows = doc["checks"][0]["series"]
        assert len(new_rows) == len(rows) == 2 ** 10
        for mask, row in enumerate(new_rows):
            old = sum(1 << perm[k] for k in range(10) if mask >> k & 1)
            assert row == rows[old]


@KINDS
@pytest.mark.parametrize("p", [Fraction(1), Fraction(3, 2), Fraction(2),
                               Fraction(7, 3), Fraction(3)], ids=str)
def test_norm_of_a_scaled_indicator(kind, p):
    cfg = ToleranceConfig()
    bits = cfg.root_bits + 2
    codomain = ModuleSpace(2, 3, kind)
    for trial in range(3):
        rng = random.Random(f"indicator:{trial}:{kind.value}:{p}")
        space = random_measure_space(rng, 5, null_atoms=1)
        c = random_module_vector(rng, codomain)
        S = set(rng.sample(range(5), rng.randint(1, 5)))
        f = LFunction(space, codomain, tuple(
            c if t in S else codomain.zero() for t in range(5)))
        mu_S = sum((space.masses[t] for t in S), Fraction(0))
        root = certified.pow_ends(mu_S, (p.denominator, p.numerator), bits)
        want = [certified.mul(e, root) for e in norm_ends(c, cfg)]
        got = lp_norm_ends(f, p, cfg)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            # the two brackets meet within the tolerance
            assert certified.leq_with_slack(g, w, cfg.compare_tol)[0]
            assert certified.leq_with_slack(w, g, cfg.compare_tol)[0]
