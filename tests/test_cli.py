import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbochner import bochner, certified, cli, duality, sampling, vecmeasure
from lbochner.bochner import LFunction
from lbochner.cli import main
from lbochner.falgebra import LElement
from lbochner.lmodule import ModuleSpace, ModuleVector, NormKind
from lbochner.measure import MeasureSpace
from lbochner.vecmeasure import VectorMeasure
from support import (
    basis_vector,
    heavy_blocks,
    lfunction_to_doc,
    measure_space_to_doc,
    vector_measure_to_doc,
)


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def holder_fixtures(tmp_path):
    space = MeasureSpace.build(["a", "b"], [1, 2])
    codomain = ModuleSpace(1, 2, NormKind.SUP)
    u = LFunction(space, codomain, (
        ModuleVector(codomain, (LElement([1, 2]),)),
        ModuleVector(codomain, (LElement([3, 1]),)),
    ))
    v = LFunction(space, codomain, (
        ModuleVector(codomain, (LElement([1, 1]),)),
        ModuleVector(codomain, (LElement([1, 1]),)),
    ))
    s = write_json(tmp_path / "s.json", measure_space_to_doc(space))
    uf = write_json(tmp_path / "u.json", lfunction_to_doc(u))
    vf = write_json(tmp_path / "v.json", lfunction_to_doc(v))
    return s, uf, vf


class TestExitCodes:
    def test_holder_with_files(self, holder_fixtures, tmp_path, capsys):
        s, u, v = holder_fixtures
        out = tmp_path / "report.json"
        code = main(["check", "holder", "--space", s, "--u", u, "--v", v,
                     "--p", "2", "--seed", "7", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "PASS"
        assert doc["checks"][0]["name"] == "holder"

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["check", "holder", "--frobnicate"]) == 2
        assert ("lbochner: error: unrecognized arguments: --frobnicate"
                in capsys.readouterr().err)

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["check", "nonsense"]) == 2
        assert ("lbochner check: error: argument cmd: invalid choice: "
                "'nonsense' (choose from 'norm-axioms', 'holder', "
                "'minkowski', 'sup-rep', 'chebyshev')"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_is_usage_error(self, target, tmp_path, capsys):
        out = (tmp_path / "no" / "such" / "x.json" if target == "missing-dir"
               else tmp_path)
        code = main(["check", "norm-axioms", "--trials", "1",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    @pytest.mark.parametrize("argv", [["check", "holder", "--u"],
                                      ["rn", "density", "--measure"]],
                             ids=["u", "measure"])
    def test_undecodable_document_names_its_path(self, argv, tmp_path,
                                                 capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"atoms": ["\xff"]}')
        assert main([*argv, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: invalid JSON: ")
        assert "can't decode byte 0xff" in err

    # rank 2 and d = 1: int() would read 2.9 and "2" as the rank, and True
    # and 1.0 as d, of this very document
    @pytest.mark.parametrize("key,value", [
        ("rank", None), ("rank", [1]), ("rank", {}), ("rank", 2.9),
        ("rank", "2"), ("d", True), ("d", 1.0)])
    @pytest.mark.parametrize("argv,values", [
        (["check", "sup-rep", "--fn"], "values"),
        (["dual", "isometry", "--v"], "values"),
        (["rn", "variation", "--measure"], "atom_values"),
    ], ids=["sup-rep", "dual-isometry", "rn-variation"])
    def test_non_integer_module_shape_is_usage_error(
            self, argv, values, key, value, tmp_path, capsys):
        codomain = {"rank": 2, "d": 1, "norm_kind": "sup", key: value}
        doc = write_json(tmp_path / "doc.json", {
            "space": {"atoms": ["a", "b"], "masses": ["1/2", "1/2"]},
            "codomain": codomain,
            values: {"a": [["1/2"], ["-1/3"]], "b": [["2/1"], ["1/4"]]}})
        out = tmp_path / "report.json"
        assert main([*argv, doc, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {doc}.codomain: bad module space: "
                              "rank and d must be integers")
        assert not out.exists()

    def test_malformed_document_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["check", "holder", "--u", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_failing_check_exits_one(self, tmp_path, capsys):
        # negative control: a null atom carrying a nonzero value
        space = MeasureSpace.build(["a", "b"], [1, 0])
        codomain = ModuleSpace(1, 1, NormKind.SUP)
        G = VectorMeasure(space, codomain, (
            ModuleVector(codomain, (LElement([2]),)),
            ModuleVector(codomain, (LElement([1]),)),
        ))
        gf = write_json(tmp_path / "g.json",
                        vector_measure_to_doc(G))
        out = tmp_path / "report.json"
        code = main(["rn", "density", "--measure", gf, "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "FAIL"
        names = {c["name"]: c["verdict"] for c in doc["checks"]}
        assert names["rn-density"] == "FAIL"

    def test_dual_isometry_counts_every_failing_trial(self, tmp_path,
                                                     monkeypatch):
        real = duality.isometry_check
        calls = []

        def failing_on_trials_0_and_2(*args, **kwargs):
            rep = real(*args, **kwargs)
            calls.append(rep)
            if len(calls) in (1, 3):
                rep.fail({"forced": len(calls)})
            return rep

        monkeypatch.setattr(duality, "isometry_check", failing_on_trials_0_and_2)
        out = tmp_path / "report.json"
        code = main(["dual", "isometry", "--trials", "3", "--seed", "5",
                     "--out", str(out)])
        assert code == 1
        assert len(calls) == 3
        check = json.loads(out.read_text())["checks"][0]
        assert check["verdict"] == "FAIL"
        assert check["details"]["failures"] == 2
        assert check["witness"] == {"trial": 0, "forced": 1}


class TestFailurePaths:
    """A violated check ends in a FAIL report with a witness and exit 1,
    never in a traceback; an oversized table is refused with exit 2."""

    @staticmethod
    def _off_integral(f, E):
        # the density term of atom 0 one unit too large
        value = bochner.integrate_over(f, E)
        if 0 in E.members:
            return value + basis_vector(f.codomain, 0)
        return value

    @staticmethod
    def _heavy_blocks(monkeypatch):
        monkeypatch.setattr(vecmeasure, "_subset_norms",
                            heavy_blocks(vecmeasure._subset_norms))

    @staticmethod
    def _measure_doc(tmp_path):
        space = MeasureSpace.build(["a", "b", "c"], [1, 2, 0])
        codomain = ModuleSpace(1, 2, NormKind.SUP)
        G = VectorMeasure(space, codomain, tuple(
            ModuleVector(codomain, (LElement(v),))
            for v in ([2, -2], [4, 6], [0, 0])))
        return write_json(tmp_path / "g.json",
                          vector_measure_to_doc(G))

    @staticmethod
    def _checks(out):
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "FAIL"
        return {c["name"]: c for c in doc["checks"]}

    def test_density_mismatch(self, tmp_path, monkeypatch):
        monkeypatch.setattr(vecmeasure, "integrate_over", self._off_integral)
        out = tmp_path / "report.json"
        code = main(["rn", "density", "--measure", self._measure_doc(tmp_path),
                     "--out", str(out)])
        assert code == 1
        checks = self._checks(out)
        assert checks["mu-continuity"]["verdict"] == "PASS"
        assert checks["rn-density"]["verdict"] == "FAIL"
        assert checks["rn-density"]["witness"] == {"subset": ["a"]}
        assert checks["rn-density"]["details"] == {"verified_sets": 1}

    def test_variation_refinement_violation(self, tmp_path, monkeypatch):
        self._heavy_blocks(monkeypatch)
        out = tmp_path / "report.json"
        code = main(["rn", "variation", "--measure",
                     self._measure_doc(tmp_path), "--out", str(out)])
        assert code == 1
        check = self._checks(out)["variation"]
        assert check["verdict"] == "FAIL"
        assert check["witness"] == {"partition": [["a", "b"], ["c"]],
                                    "coordinate": 0}

    @pytest.mark.parametrize("m", range(2, 11))
    def test_variation_heavy_blocks_fail_at_every_size(self, m, tmp_path,
                                                       monkeypatch):
        # the sweep compares at every size up to the cap: the first block
        # swept, {a0, a1}, outweighs its atoms
        self._heavy_blocks(monkeypatch)
        out = tmp_path / "report.json"
        assert main(["rn", "variation", "--atoms", str(m), "--seed", "42",
                     "--out", str(out)]) == 1
        check = self._checks(out)["variation"]
        assert check["details"]["exhaustive_checked"] is True
        assert check["witness"] == {
            "partition": [["a0", "a1"]] + [[f"a{t}"] for t in range(2, m)],
            "coordinate": 0}

    def test_variation_refused_above_the_cap(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        start = time.perf_counter()
        assert main(["rn", "variation", "--atoms", "11", "--out",
                     str(out)]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            "error: variation: 11 atoms exceeds the subset table cap 10\n")
        assert not out.exists()

    def test_suite_all_takes_density_and_variation_verdicts(
            self, tmp_path, monkeypatch):
        # duality's represent solves densities too; only the suite's own
        # density check and the probe's martingale stage see the
        # corrupted term
        real_density = vecmeasure.rn_density

        def density_with_off_term(G):
            with monkeypatch.context() as patch:
                patch.setattr(vecmeasure, "integrate_over", self._off_integral)
                return real_density(G)

        monkeypatch.setattr(vecmeasure, "rn_density", density_with_off_term)
        self._heavy_blocks(monkeypatch)
        out = tmp_path / "report.json"
        assert main(["suite", "all", "--seed", "42", "--out", str(out)]) == 1
        checks = self._checks(out)
        failed = {name for name, c in checks.items() if c["verdict"] == "FAIL"}
        assert failed == {"rn-density", "variation", "rnp-probe"}
        assert checks["rn-density"]["witness"] == {"subset": ["a0"]}
        assert checks["rnp-probe"]["witness"] == {
            "stage": "martingale", "level": 0, "density": {"subset": [""]}}
        assert "partition" in checks["variation"]["witness"]

    @pytest.mark.parametrize("name", ["lp_norm_ends", "lp_from_atom_ends"])
    @pytest.mark.parametrize("argv", [
        ["run", "completeness", "--seed", "42"],
        ["run", "completeness", "--seed", "42", "--p", "3", "--norm", "two"],
        ["suite", "all", "--seed", "42"],
    ], ids=" ".join)
    def test_doubled_p_norm_fails_completeness_anchor(self, argv, name,
                                                      tmp_path, monkeypatch):
        # negative control: every other stage of the harness scales with
        # the p-norm code; the anchor's ||w||_1 comes from the atom norms
        real = getattr(bochner, name)
        monkeypatch.setattr(bochner, name, lambda *args: [
            certified.scale(e, 2, 1) for e in real(*args)])
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 1
        check = self._checks(out)["completeness-harness"]
        assert check["verdict"] == "FAIL"
        assert check["witness"]["stage"] == "anchor"

    @pytest.mark.parametrize("argv,name,witness", [
        (["dual", "represent"], "represent",
         {"stage": "density", "subset": ["a0"]}),
        (["dual", "roundtrip", "--trials", "2"], "duality-roundtrip",
         {"trial": 0, "stage": "density", "subset": ["a0"]}),
    ], ids=["represent", "roundtrip"])
    def test_represent_mismatch(self, argv, name, witness, tmp_path,
                                monkeypatch):
        # the density solver inside represent reports a failing subset
        real = duality.rn_density

        def failing_density(G):
            density, check = real(G)
            check.fail({"subset": ["a0"]})
            return density, check

        monkeypatch.setattr(duality, "rn_density", failing_density)
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 1
        check = self._checks(out)[name]
        assert check["verdict"] == "FAIL"
        assert check["witness"] == witness

    @pytest.mark.parametrize("argv,name,context", [
        (["dual", "represent"], "represent", {}),
        (["dual", "roundtrip", "--trials", "2"], "duality-roundtrip",
         {"trial": 0}),
    ], ids=["represent", "roundtrip"])
    def test_off_density(self, argv, name, context, tmp_path, monkeypatch):
        # the density represent returns is one too large in coordinate 0 of
        # entry 0 at the first positive-mass atom while its own check
        # passes: duality.represent_back, the one comparison of v_back with
        # v, names that atom in one shape for both commands
        real = duality.rn_density
        raised = []

        def off_density(G):
            g, check = real(G)
            t = next(t for t, mass in enumerate(G.space.masses) if mass > 0)
            raised.append((G.space, t))
            first, *rest = g.values[t].entries
            values = list(g.values)
            values[t] = ModuleVector(g.codomain, (
                LElement([first[0] + 1, *first.coords[1:]]), *rest))
            return LFunction(g.space, g.codomain, tuple(values)), check

        monkeypatch.setattr(duality, "rn_density", off_density)
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 1
        check = self._checks(out)[name]
        assert check["verdict"] == "FAIL"
        space, t = raised[0]
        assert check["witness"] == {**context, "stage": "dual-roundtrip",
                                    "atom": space.atom_names[t]}

    @pytest.mark.parametrize("argv", [
        ["dual", "roundtrip", "--seed", "42"],
        ["suite", "all", "--seed", "42"],
    ], ids=" ".join)
    def test_density_refusal(self, argv, tmp_path, monkeypatch):
        # negative control: the induced measure charges every null atom, so
        # no density exists; rn_density's singleton check fails at the
        # first one, and the round trip stops that trial at stage
        # "density" instead of ending as a usage error
        real = duality.induced_measure

        def charged(H):
            G = real(H)
            unit = ModuleVector(G.codomain, tuple(
                LElement.unit(G.codomain.scalar_dim)
                for _ in range(G.codomain.rank)))
            return VectorMeasure(G.space, G.codomain, tuple(
                unit if mass == 0 else value
                for mass, value in zip(G.space.masses, G.atom_values)))

        monkeypatch.setattr(duality, "induced_measure", charged)
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        roundtrips = [c for c in doc["checks"]
                      if c["name"] == "duality-roundtrip"]
        assert roundtrips and all(c["verdict"] == "FAIL" for c in roundtrips)
        space = sampling.random_measure_space(sampling.rng_for(42, 0), 3,
                                              null_atoms=1)
        null = space.atom_names[space.masses.index(0)]
        for check in roundtrips:
            assert check["series"] == []  # no trial reached its gaps
            assert check["witness"] == {"trial": 0, "stage": "density",
                                        "subset": [null]}
        assert {c["name"] for c in doc["checks"] if c["verdict"] == "FAIL"} \
            == {"duality-roundtrip"}

    @pytest.mark.parametrize("argv", [
        ["check", "norm-axioms"], ["check", "holder"], ["check", "minkowski"],
        ["check", "chebyshev"], ["dual", "isometry"], ["dual", "roundtrip"],
    ], ids=" ".join)
    def test_zero_trials_is_usage_error(self, argv, tmp_path, capsys):
        # zero trials would check nothing and print PASS
        out = tmp_path / "report.json"
        assert main([*argv, "--trials", "0", "--out", str(out)]) == 2
        assert "--trials: must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_int_trials_names_int(self, capsys):
        # as --seed says it, not by the name of the helper that checks it
        assert main(["check", "norm-axioms", "--trials", "x"]) == 2
        err = capsys.readouterr().err
        assert "argument --trials: invalid int value: 'x'" in err
        assert "_positive_int" not in err

    @pytest.mark.parametrize("argv,error", [
        (["run", "bootstrap", "--nmax", "-1"], "n_max must be >= 0"),
        (["run", "dct", "--nmax", "-1"], "n_max must be >= 0"),
        (["run", "rnp-probe", "--sets", "0"],
         "n_sets must be between 1 and levels"),
        (["run", "rnp-probe", "--levels",
          str(vecmeasure.RNP_PROBE_MAX_LEVELS + 1)],
         f"levels above {vecmeasure.RNP_PROBE_MAX_LEVELS} rejected"),
        (["run", "bootstrap", "--limit-tol", "-1"], "limit_tol must be > 0"),
        (["run", "bootstrap", "--limit-tol", "0"], "limit_tol must be > 0"),
        (["run", "completeness", "--terms", "0"], "n_terms must be >= 1"),
        (["run", "dct", "--levels", "0"], "levels must be >= 1"),
        (["run", "dct", "--levels", "-1"], "levels must be >= 1"),
        (["suite", "all", "--tol", "0"], "compare_tol must be > 0"),
        (["dual", "roundtrip", "--tol=-1/2"], "compare_tol must be > 0"),
        # a negative rational as its own word reaches the same check
        (["rn", "variation", "--tol", "-1/2"], "compare_tol must be > 0"),
        (["suite", "all", "--tol", "-3/4"], "compare_tol must be > 0"),
        (["run", "bootstrap", "--limit-tol", "-1/2"], "limit_tol must be > 0"),
        (["check", "holder", "--p", "-3/2"],
         "exponent must be >= 1 or inf, got -3/2"),
    ], ids=["run bootstrap", "run dct", "run rnp-probe",
            "run rnp-probe over the cap", "run bootstrap negative limit-tol",
            "run bootstrap zero limit-tol", "run completeness zero terms",
            "run dct zero levels", "run dct negative levels",
            "suite all zero tol", "dual roundtrip negative tol",
            "rn variation negative tol word", "suite all negative tol word",
            "run bootstrap negative limit-tol word",
            "check holder negative p word"])
    def test_negative_nmax_is_usage_error(self, argv, error, tmp_path,
                                          capsys):
        # an empty exponent chain, series or set family would end in a
        # traceback or a vacuous PASS; a nonpositive limit allowance in a
        # FAIL that no data can avoid
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"error: {error}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("word", ["-1.json", "-x"])
    def test_negative_word_joins_only_as_rational(self, word, tmp_path,
                                                  monkeypatch, capsys):
        # a dash word that is no rational stays its own word, and argparse
        # refuses it as a value
        monkeypatch.chdir(tmp_path)
        assert main(["rn", "variation", "--out", word]) == 2
        assert "--out: expected one argument" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,option", [
        (["suite", "all", "--tol", "1/0"], "--tol"),
        (["check", "holder", "--p", "1/0"], "--p"),
        (["check", "chebyshev", "--gamma", "1/0"], "--gamma"),
        (["run", "bootstrap", "--limit-tol", "1/0"], "--limit-tol"),
        (["dual", "isometry", "--p", "3/0"], "--p"),
    ], ids=["suite all --tol", "check holder --p", "check chebyshev --gamma",
            "run bootstrap --limit-tol", "dual isometry --p"])
    def test_zero_denominator_is_usage_error(self, argv, option, tmp_path,
                                             capsys):
        # a zero denominator is a parse error, not a failing check
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"error: {option}: not a rational" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["option", "document"])
    def test_huge_decimal_exponent_refused_before_building(
            self, source, tmp_path, capsys, monkeypatch):
        # Fraction("1e-3000000") would compute 10 ** 3000000 first
        monkeypatch.chdir(tmp_path)
        huge = "1e-3000000"
        if source == "option":
            argv, where = ["rn", "density", "--tol", huge], "--tol"
        else:
            write_json(tmp_path / "g.json", {
                "space": {"atoms": ["a", "b"], "masses": ["1/2", huge]},
                "codomain": {"rank": 1, "d": 1, "norm_kind": "sup"},
                "atom_values": {"a": [["1/1"]], "b": [["2/1"]]}})
            argv, where = ["rn", "density", "--measure", "g.json"], \
                "g.json.space.masses[1]"
        start = time.perf_counter()
        assert main([*argv, "--out", "report.json"]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == \
            f"error: {where}: not a rational: '{huge}'\n"
        assert not (tmp_path / "report.json").exists()

    @staticmethod
    def _density_doc(tmp_path, masses):
        return write_json(tmp_path / "g.json", {
            "space": {"atoms": ["a", "b"], "masses": masses},
            "codomain": {"rank": 1, "d": 1, "norm_kind": "sup"},
            "atom_values": {"a": [["1/1"]], "b": [["2/1"]]}})

    def test_decimal_exponent_at_the_digit_cap_refused(self, tmp_path,
                                                       capsys):
        # 10 ** cap has cap + 1 digits, one more than a report can write
        huge = f"1e{sys.get_int_max_str_digits()}"
        g = self._density_doc(tmp_path, ["1/2", huge])
        out = tmp_path / "report.json"
        assert main(["rn", "density", "--measure", g, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {g}.space.masses[1]: not a rational: '{huge}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_reported_number_above_the_digit_cap(self, fmt, tmp_path,
                                                 capsys):
        # both masses fit under the cap; mu(S) over their product does not
        half = 10 ** (sys.get_int_max_str_digits() // 2 + 50)
        g = self._density_doc(tmp_path, [f"1/{half + 1}", f"1/{half + 3}"])
        out = tmp_path / "report.out"
        assert main(["rn", "density", "--measure", g, "--format", fmt,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: mu-continuity: a reported number has more than "
            f"{sys.get_int_max_str_digits()} digits\n")
        assert not out.exists()

    def test_rnp_probe_variation_is_the_atomic_sum(self, tmp_path,
                                                   monkeypatch):
        # stage 1 sums the atoms' norms and sweeps no block: heavy blocks
        # leave the report as it is; the corrupted measure below is the
        # stage's negative control
        reports = []
        for heavy in (False, True):
            if heavy:
                self._heavy_blocks(monkeypatch)
            out = tmp_path / f"report{heavy}.json"
            assert main(["run", "rnp-probe", "--levels", "2", "--sets", "2",
                         "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("levels,digest", [
        (1, "c91702913626e6283520edc9117edf80d3f2e8b0b688e3a2f60040f20fffb2a2"),
        (2, "12f99388bd2e4533a3f9e643e56ceb445caab5afdee43d8d533ac2a3963a22ba"),
        (3, "aead605346701e64dc9c3c7bc68a44ec4262c15b6dbc987504a6d6aca71e6f54"),
        (4, "8adfe89e84b1e680855af8c1041fcc9f9cbb2a25a4fb19f3b81350b5589ff012"),
        (5, "b41cddf8181fc2b41812a0f29133a87b879598147b4c0610f548eab4c5c8f2eb"),
        (6, "5b6ea39dc5a6f30f32b6ead3d03bc6ec8b7c2221db321bf92ac1803667b8fe73"),
        (7, "b19271f28cd3a4a4aa1e96a38b5d6fcf51bbb3dc6fe2c43d97d33fb61d4de6d6"),
        (8, "56a5eab8c7a98fcf97b7d853fd1313d7f39cd6256fb6f8cf9c7656a5ca0c58c4"),
    ])
    def test_rnp_probe_every_level_passes(self, levels, digest, tmp_path):
        # up to the level cap, 256 atoms, above the subset table's
        out = tmp_path / "report.json"
        assert main(["run", "rnp-probe", "--levels", str(levels), "--sets",
                     "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_zero_norm_coordinate_runs_the_bootstrap_chain(self, tmp_path,
                                                            monkeypatch):
        # atom a's norm is zero in coordinate 1; the chain never divides,
        # so it runs there too, and a doctored step (both sides' left end
        # doubled) fails it
        v = write_json(tmp_path / "v.json", {
            "space": {"atoms": ["a", "b"], "masses": ["1/2", "1/2"]},
            "codomain": {"rank": 1, "d": 2, "norm_kind": "one"},
            "values": {"a": [["1/1", "0/1"]], "b": [["1/1", "1/1"]]}})
        argv = ["dual", "isometry", "--v", v, "--p", "2"]
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 0
        real = duality.power_sums_from_atom_ends
        monkeypatch.setattr(
            duality, "power_sums_from_atom_ends",
            lambda *args: [(2 * e[0], e[1], 2 * e[2], e[3])
                           for e in real(*args)])
        assert main([*argv, "--out", str(out)]) == 1
        check = self._checks(out)["isometry"]
        assert check["witness"] == {"trial": 0, "stage": "bootstrap",
                                    "n": 0, "coordinate": 0}

    def test_rnp_probe_rnp_codomain(self, tmp_path, monkeypatch):
        # negative control: G(F) = mu(F) in the rank-1 sup module, a
        # codomain with the density property.  Every fair-sign set has
        # mass 1/2, so no two are apart, and the densities are all 1.
        real = vecmeasure._indicator_measure

        def scalar_measure(levels, n, d):
            space = real(levels, n, d).space
            X = ModuleSpace(1, d, NormKind.SUP)
            return VectorMeasure(space, X, tuple(
                ModuleVector(X, (LElement.constant(mass, d),))
                for mass in space.masses))

        monkeypatch.setattr(vecmeasure, "_indicator_measure", scalar_measure)
        out = tmp_path / "report.json"
        assert main(["run", "rnp-probe", "--out", str(out)]) == 1
        check = self._checks(out)["rnp-probe"]
        assert check["witness"] == {"stage": "separation", "pair": [0, 1],
                                    "value": ["0/1"]}
        assert check["details"]["variation"] == ["1/1"]
        assert check["details"]["martingale_gaps"] == [["0/1"]] * 4

    def test_rnp_probe_corrupted_measure(self, tmp_path, monkeypatch):
        # negative control: the fine atom 0 carries twice its mass
        real = vecmeasure._indicator_measure

        def corrupted(levels, n, d):
            G = real(levels, n, d)
            if n < levels:
                return G
            values = list(G.atom_values)
            values[0] = values[0].scale_rational(2)
            return VectorMeasure(G.space, G.codomain, tuple(values))

        monkeypatch.setattr(vecmeasure, "_indicator_measure", corrupted)
        out = tmp_path / "report.json"
        assert main(["run", "rnp-probe", "--out", str(out)]) == 1
        check = self._checks(out)["rnp-probe"]
        assert check["witness"] == {"stage": "variation", "coordinate": 0,
                                    "value": "17/16"}

    @staticmethod
    def _doubled_scaling(monkeypatch):
        # negative control: x.scale(lam) scales by 2 lam, so homogeneity
        # fails wherever lam x is not zero
        real = ModuleVector.scale
        monkeypatch.setattr(ModuleVector, "scale",
                            lambda self, lam: real(self, lam + lam))

    def test_norm_axioms_witness(self, tmp_path, monkeypatch):
        self._doubled_scaling(monkeypatch)
        out = tmp_path / "report.json"
        assert main(["check", "norm-axioms", "--out", str(out)]) == 1
        check = self._checks(out)["norm-axioms-sup"]
        assert check["details"] == {"trials": 100, "axiom1": True,
                                    "axiom2": False, "axiom3": True}
        witness = check["witness"]
        assert {k: witness[k] for k in ("sample", "coordinate")} == {
            "sample": 0, "coordinate": 0}
        assert Fraction(witness["gap"]) > 0

    def test_suite_all_keeps_norm_axioms_witness(self, tmp_path,
                                                 monkeypatch):
        self._doubled_scaling(monkeypatch)
        out = tmp_path / "report.json"
        assert main(["suite", "all", "--seed", "42", "--out", str(out)]) == 1
        checks = self._checks(out)
        for kind in ("sup", "one", "two"):
            check = checks[f"norm-axioms-{kind}"]
            assert check["verdict"] == "FAIL"
            assert check["details"] == {"trials": 100}
            assert set(check["witness"]) == {"sample", "coordinate", "gap"}

    @staticmethod
    def _shift_operator_norm(monkeypatch):
        # negative control: the operator norm one unit too large at
        # coordinate 1
        real = duality.operator_norm_ends

        def shifted(H, cfg):
            brackets = real(H, cfg)
            ln, ld, hn, hd = brackets[1]
            brackets[1] = (ln + ld, ld, hn + hd, hd)
            return brackets

        monkeypatch.setattr(duality, "operator_norm_ends", shifted)

    @pytest.mark.parametrize("argv", [
        ["--p", "1"], ["--norm", "two", "--p", "3"],
    ], ids=["exact", "bracketed"])
    def test_isometry_witness(self, argv, tmp_path, monkeypatch):
        self._shift_operator_norm(monkeypatch)
        out = tmp_path / "report.json"
        assert main(["dual", "isometry", *argv, "--trials", "3",
                     "--out", str(out)]) == 1
        check = self._checks(out)["isometry"]
        assert check["details"]["failures"] == 3
        witness = check["witness"]
        assert {k: witness[k] for k in ("trial", "coordinate", "gap")} == {
            "trial": 0, "coordinate": 1, "gap": "1/1"}
        assert (Fraction(witness["operator_norm"])
                - Fraction(witness["dual_norm"])) == 1

    def test_roundtrip_isometry_witness(self, tmp_path, monkeypatch):
        # the round trip's isometry stage names the coordinate and the gap
        self._shift_operator_norm(monkeypatch)
        out = tmp_path / "report.json"
        assert main(["dual", "roundtrip", "--trials", "2",
                     "--out", str(out)]) == 1
        check = self._checks(out)["duality-roundtrip"]
        assert [row["gap"][1] for row in check["series"]] == ["1/1", "1/1"]
        witness = check["witness"]
        assert {k: witness[k] for k in ("trial", "stage", "coordinate",
                                        "gap")} == {
            "trial": 0, "stage": "isometry", "coordinate": 1, "gap": "1/1"}
        assert (Fraction(witness["operator_norm"])
                - Fraction(witness["dual_norm"])) == 1

    def test_sup_rep_atom_cap(self, tmp_path, capsys):
        m = bochner.SUP_REP_MAX_ATOMS + 1
        assert main(["check", "sup-rep", "--atoms", str(m)]) == 2
        assert "error:" in capsys.readouterr().err
        space = MeasureSpace.build([f"a{i}" for i in range(m)], [1] * m)
        f = LFunction.zero(space, ModuleSpace(1, 2, NormKind.SUP))
        fn = write_json(tmp_path / "f.json", lfunction_to_doc(f))
        out = tmp_path / "report.json"
        assert main(["check", "sup-rep", "--fn", fn, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_sup_rep_negative_term(self, holder_fixtures, tmp_path,
                                   monkeypatch):
        # atom a's weighted term -1 in both coordinates: {b} (mask 2)
        # weighs more than the whole space
        real = certified.scale

        def scale(a, cn, cd):
            return (certified.exact(-1) if (cn, cd) == (1, 1)
                    else real(a, cn, cd))

        monkeypatch.setattr(certified, "scale", scale)
        _, u, _ = holder_fixtures
        out = tmp_path / "report.json"
        assert main(["check", "sup-rep", "--fn", u, "--out", str(out)]) == 1
        check = self._checks(out)["sup-representation"]
        assert check["witness"] == {"subset_mask": 2, "coordinate": 0}

    def test_holder_halved_right_side(self, holder_fixtures, tmp_path,
                                      monkeypatch):
        # moves the right-hand side only: u's p-norm is halved, so
        # ||u||_p * ||v||_q halves while the pairing integral stays.  At
        # p = 1 with unit v the sides are equal, (7, 4) each.
        s, u, v = holder_fixtures
        real = bochner.lp_norm_ends
        primal = ModuleSpace(1, 2, NormKind.SUP)

        def halved_for_u(f, p, cfg):
            brackets = real(f, p, cfg)
            if f.codomain != primal:
                return brackets
            return [certified.scale(e, 1, 2) for e in brackets]

        monkeypatch.setattr(bochner, "lp_norm_ends", halved_for_u)
        out = tmp_path / "report.json"
        assert main(["check", "holder", "--u", u, "--v", v, "--p", "1",
                     "--out", str(out)]) == 1
        check = self._checks(out)["holder"]
        assert check["details"]["failures"] == 1
        assert check["witness"] == {"trial": 0, "coordinate": 0,
                                    "lhs": "7/1", "rhs": "7/2"}

    def test_minkowski_doubled_summand(self, holder_fixtures, tmp_path,
                                       monkeypatch):
        # moves the left-hand side only: u + v becomes u + 2v, while the
        # right side is ||u||_p + ||v||_p
        s, u, v = holder_fixtures
        real = LFunction.__add__
        monkeypatch.setattr(LFunction, "__add__",
                            lambda f, g: real(real(f, g), g))
        out = tmp_path / "report.json"
        assert main(["check", "minkowski", "--u", u, "--v", v, "--p", "2",
                     "--out", str(out)]) == 1
        check = self._checks(out)["minkowski"]
        assert check["details"]["failures"] == 1
        assert check["witness"] == {"trial": 0, "coordinate": 0}

    def test_suite_all_names_the_failing_minkowski_pair(self, tmp_path,
                                                       monkeypatch):
        # every Minkowski report fails through its own fail call; each
        # holder-minkowski check names the first pair, the failing check
        # and that report's witness
        real = bochner.check_minkowski

        def failing(u, v, p, cfg):
            rep = real(u, v, p, cfg)
            rep.fail({"coordinate": 1})
            return rep

        monkeypatch.setattr(bochner, "check_minkowski", failing)
        out = tmp_path / "report.json"
        assert main(["suite", "all", "--seed", "42", "--out", str(out)]) == 1
        checks = self._checks(out)
        failed = {name for name, c in checks.items() if c["verdict"] == "FAIL"}
        assert failed == {f"holder-minkowski-p{p}" for p in (1, 2, 3)}
        check = checks["holder-minkowski-p2"]
        assert check["witness"] == {"pair": 0, "check": "minkowski",
                                    "coordinate": 1}
        assert check["details"] == {"pairs": 50, "failures": 50}

    @staticmethod
    def _zero_integrals(monkeypatch):
        monkeypatch.setattr(
            bochner, "lp_from_atom_ends",
            lambda norms, masses, p, cfg: [certified.exact(0)]
            * len(norms[0]))

    def test_chebyshev_zeroed_integral(self, tmp_path, monkeypatch):
        # moves the right-hand side only: the integral of ||h_n - h|| reads
        # 0; the level-set side comes from the atom norms
        self._zero_integrals(monkeypatch)
        out = tmp_path / "report.json"
        assert main(["check", "chebyshev", "--out", str(out)]) == 1
        check = self._checks(out)["chebyshev-step"]
        assert check["witness"] == {"n": 0, "coordinate": 0,
                                    "level_measure": "12/1"}

    def test_dct_zeroed_bound(self, tmp_path, monkeypatch):
        # moves the right-hand side only: the bound keeps just the tail
        # allowance; the error side comes from the integrals
        self._zero_integrals(monkeypatch)
        out = tmp_path / "report.json"
        assert main(["run", "dct", "--out", str(out)]) == 1
        check = self._checks(out)["dominated-convergence"]
        assert check["witness"] == {"n": 0, "coordinate": 0}

    def test_dct_dominator_violation(self, tmp_path, monkeypatch):
        # an undersized dominator is a failing check, exit 1, whose witness
        # names the first term and atom that leave it
        real = cli._dct_spec
        small = Fraction(1, 4096)

        def undersized(seed, levels):
            spec = real(seed, levels)
            spec.dominator = tuple(LElement([small, small])
                                   for _ in spec.dominator)
            return spec

        monkeypatch.setattr(cli, "_dct_spec", undersized)
        out = tmp_path / "report.json"
        assert main(["run", "dct", "--out", str(out)]) == 1
        check = self._checks(out)["dominated-convergence"]
        spec = real(cli.DEFAULT_SEED, 20)
        n, t = next((n, t) for n in range(15) for t in range(20)
                    if any(abs(c) > small
                           for c in spec.term(n, t).entries[0].coords))
        assert check["witness"] == {"n": n, "atom": spec.space.atom_names[t],
                                    "dominator_violated": True}

    @pytest.mark.parametrize("cmd", ["holder", "minkowski"])
    def test_v_document_alone_draws_u_on_its_space(self, cmd, tmp_path,
                                                   monkeypatch):
        # the one-atom document of the Hölder digest as v, u seeded on v's
        # space and into the module v pairs with
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "v.json", TestGoldenReports.ONES_SUP_DOC)
        assert main(["check", cmd, "--v", "v.json",
                     "--out", "report.json"]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["verdict"] == "PASS"
        assert doc["checks"][0]["details"]["pairs"] == 1

    @pytest.mark.parametrize("cmd,error", [
        ("holder", "functions cannot be paired"),
        ("minkowski", "functions on different spaces")])
    def test_v_document_off_the_named_space_is_usage_error(
            self, cmd, error, holder_fixtures, tmp_path, capsys,
            monkeypatch):
        # an explicit --space wins over v's own, so a v elsewhere exits 2
        s, u, v = holder_fixtures
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "one.json", TestGoldenReports.ONES_SUP_DOC)
        assert main(["check", cmd, "--space", s, "--v", "one.json",
                     "--out", "report.json"]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("kind", ["one", "two"])
    def test_holder_mismatched_pair_is_usage_error(self, kind,
                                                   holder_fixtures,
                                                   tmp_path, capsys):
        # v's document names a primal module other than u's (sup): no
        # dual function of u, so nothing is measured
        s, u, v = holder_fixtures
        doc = json.loads(Path(v).read_text(encoding="utf-8"))
        doc["codomain"]["norm_kind"] = kind
        other = write_json(tmp_path / "other.json", doc)
        out = tmp_path / "report.json"
        assert main(["check", "holder", "--u", u, "--v", other,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: functions cannot be paired\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["check", "sup-rep"],
                                      ["run", "completeness"]], ids=" ".join)
    def test_exponent_below_one_is_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main([*argv, "--p", "1/2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: exponent must be >= 1 or inf, got 1/2\n"
        assert not out.exists()


SUBCOMMANDS = {
    "check": ["norm-axioms", "holder", "minkowski", "sup-rep", "chebyshev"],
    "run": ["dct", "completeness", "bootstrap", "rnp-probe"],
    "dual": ["isometry", "represent", "roundtrip"],
    "rn": ["density", "variation"],
    "suite": ["all"],
}


class TestSuiteTable:
    """``suite all`` is a table of rows over the commands' builders."""

    @staticmethod
    def _suite_checks(seed, tmp_path):
        out = tmp_path / f"suite-{seed}.json"
        assert main(["suite", "all", "--seed", str(seed),
                     "--out", str(out)]) == 0
        return json.loads(out.read_text())["checks"]

    def test_each_check_comes_from_one_row(self, tmp_path, monkeypatch):
        # wrap every row builder where the suite looks it up, as the
        # per-layer tracer does, and record what each call yields
        rows = cli._suite_rows()
        yielded = []
        for name in {row[0].__name__ for row in rows}:
            def build(*args, _real=getattr(cli, name), _name=name):
                checks = _real(*args)
                yielded.append((_name, [c.name for c in checks]))
                return checks

            monkeypatch.setattr(cli, name, build)
        names = [c["name"] for c in self._suite_checks(42, tmp_path)]
        assert [builder for builder, _ in yielded] \
            == [row[0].__name__ for row in rows]
        assert [name for _, found in yielded for name in found] == names
        assert all(found for _, found in yielded)
        assert len(set(names)) == len(names) - 1  # the two round trips
        assert names.count("duality-roundtrip") == 2

    @pytest.mark.parametrize("seed", [42, 7])
    def test_own_stream_rows_equal_their_commands(self, seed, tmp_path):
        suite = self._suite_checks(seed, tmp_path)
        own, i = [], 0
        for builder, command, overrides, stream, _ in cli._suite_rows():
            if stream is None and command != "suite all":
                own.append((i, command, overrides))
            i += 2 if builder is cli._rn_checks else 1
        assert i == len(suite)
        assert [(command, overrides) for _, command, overrides in own] == [
            ("run dct", {}), ("run bootstrap", {}), ("run rnp-probe", {}),
            ("dual roundtrip", {"p": "1"}), ("dual roundtrip", {"p": "2"})]
        for i, command, overrides in own:
            argv = [*command.split(), "--seed", str(seed)]
            for option, value in overrides.items():
                argv += [f"--{option}", value]
            out = tmp_path / "command.json"
            assert main([*argv, "--out", str(out)]) == 0
            (check,) = json.loads(out.read_text())["checks"]
            assert suite[i] == check, argv


class TestSuiteOptions:
    """``suite all`` takes the seed, the tolerance and the output options;
    its rows draw their own data, so it has no option that would shape it."""

    @pytest.mark.parametrize("option,value", [
        ("--trials", "5"), ("--atoms", "7"), ("--rank", "1"), ("--dim", "3"),
        ("--norm", "two")])
    def test_data_option_is_usage_error(self, option, value, tmp_path,
                                        capsys):
        out = tmp_path / "report.json"
        assert main(["suite", "all", "--seed", "42", option, value,
                     "--out", str(out)]) == 2
        assert (f"lbochner: error: unrecognized arguments: {option} {value}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_seed_tol_out_and_format_apply(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["suite", "all", "--seed", "7", "--tol", "1/1073741824",
                     "--out", str(out), "--format", "json"]) == 0
        config = json.loads(out.read_text())["config"]
        assert config == {"atoms": 4, "dim": 2, "norm": "sup", "rank": 2,
                          "seed": 7, "tol": "1/1073741824", "trials": 100}
        csv = tmp_path / "series.csv"
        assert main(["suite", "all", "--seed", "7", "--out", str(csv),
                     "--format", "csv"]) == 0
        assert csv.read_text().splitlines()[0] \
            == "n,coordinate,level_measure,integral,slack"

    def test_bad_seed_is_usage_error(self, capsys):
        assert main(["suite", "all", "--seed", "x"]) == 2
        assert "argument --seed: invalid int value: 'x'" \
            in capsys.readouterr().err


class TestParserSize:
    """``build_parser(argv)`` builds the top parser, one per group, and the
    subcommand parsers of the group ``argv[0]`` names, and no other."""

    @pytest.mark.parametrize("argv,parsers", [
        ([], 6), (["--help"], 6), (["nonsense"], 6),
        (["check", "holder"], 11), (["run", "dct"], 10),
        (["dual", "isometry"], 9), (["rn"], 8), (["suite", "all"], 7)],
        ids=lambda a: (" ".join(a) or "no argv") if isinstance(a, list)
        else str(a))
    def test_only_the_named_group_is_built(self, argv, parsers, monkeypatch):
        import argparse

        built = []
        real = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser(argv)
        assert len(built) == parsers


class TestHelp:
    def test_top_level_lists_every_group(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "{check,run,dual,rn,suite}" in out
        for group in SUBCOMMANDS:
            assert f"    {group} " in out

    @pytest.mark.parametrize("group", list(SUBCOMMANDS))
    def test_group_lists_every_subcommand(self, group, capsys):
        assert main([group, "--help"]) == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(SUBCOMMANDS[group]) + "}" in out

    @pytest.mark.parametrize("argv", [[g, c] for g, cmds in SUBCOMMANDS.items()
                                      for c in cmds], ids=" ".join)
    def test_subcommand_help_shows_its_options(self, argv, capsys):
        assert main([*argv, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: lbochner {' '.join(argv)} ")
        assert "--seed SEED" in out


ROOT = Path(__file__).resolve().parents[1]


def _fresh_python(code: str) -> dict:
    """Runs code in a fresh interpreter that sees src/ and perfbench/; the
    code prints one JSON document, returned here."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


class TestLazyFrontEnd:
    """The front end runs no layer's body until a command reaches it, yet
    registers every layer module: the per-layer tracer reads them all from
    sys.modules right after importing lbochner.cli."""

    def test_cli_import_registers_layers_without_running_them(self):
        doc = _fresh_python("""
import json, sys, types
before = set(sys.modules)
import lbochner.cli
lbochner.cli.build_parser()
after = dict(sys.modules)
import layertrace
print(json.dumps({
    "missing": [m for m in layertrace.LAYER_OF_MODULE if m not in after],
    "ran": [m for m in layertrace.LAYER_OF_MODULE if m != "lbochner.cli"
            and type(after[m]) is types.ModuleType],
    "stdlib_loaded": [m for m in ("dataclasses", "fractions")
                      if m not in before and m in after],
}))
""")
        assert doc == {"missing": [], "ran": [], "stdlib_loaded": []}

    def test_package_import_loads_no_submodule(self):
        doc = _fresh_python("""
import json, sys
import lbochner
loaded = sorted(m for m in sys.modules if m.startswith("lbochner."))
unresolved = [n for n in lbochner.__all__ if not hasattr(lbochner, n)]
print(json.dumps({"loaded": loaded, "unresolved": unresolved,
                  "inf": lbochner.INF is lbochner.bochner.INF}))
""")
        assert doc == {"loaded": [], "unresolved": [], "inf": True}

    def test_layer_runs_on_first_use(self, tmp_path):
        # control for the test above: a command does load what it reaches,
        # and the layers' value types need no dataclasses
        doc = _fresh_python(f"""
import json, sys
import lbochner.cli
lbochner.cli.main(["check", "norm-axioms", "--trials", "1",
                   "--out", {str(tmp_path / "r.json")!r}])
print(json.dumps(sorted(m for m in ("dataclasses", "fractions")
                        if m in sys.modules)))
""")
        assert doc == ["fractions"]

    def test_commands_load_no_code_introspection(self, tmp_path):
        # dataclasses would bring inspect, ast, dis and tokenize into every
        # process; three commands that reach every layer load none of them
        doc = _fresh_python(f"""
import json, sys
import lbochner.cli
for argv in (["suite", "all", "--seed", "42"], ["rn", "variation"],
             ["dual", "isometry"]):
    assert lbochner.cli.main(
        [*argv, "--out", {str(tmp_path / "r.json")!r}]) == 0, argv
loaded = [m for m in ("dataclasses", "inspect", "ast", "dis", "tokenize")
          if m in sys.modules]
import layertrace, types  # layertrace itself imports inspect
print(json.dumps({{
    "not_run": [m for m in layertrace.LAYER_OF_MODULE
                if type(sys.modules[m]) is not types.ModuleType],
    "loaded": loaded}}))
""")
        assert doc == {"not_run": [], "loaded": []}

    def test_well_formed_command_builds_no_parser(self, tmp_path):
        # a parser is built only for help and usage errors; its first
        # message lookup imports locale
        doc = _fresh_python(f"""
import argparse, json, sys
import lbochner.cli
built = []
real = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    real(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
runs = {{}}
for name, argv in (("read", ["--trials", "1", "--seed=7"]),
                   ("usage error", ["--trials", "0"])):
    code = lbochner.cli.main(["check", "norm-axioms", *argv, "--out",
                              {str(tmp_path / "r.json")!r}])
    runs[name] = [code, len(built), "locale" in sys.modules]
print(json.dumps(runs))
""")
        assert doc == {"read": [0, 0, False], "usage error": [2, 11, True]}


# every option flag of the command table, and words that are none
_FLAGS = sorted({flag for _, table in cli._commands().values()
                 for _, _, options in table.values()
                 for flag, *_ in options}
                | {flag for flag, _ in cli._COMMON_OPTIONS})
_NOT_FLAGS = ["--help", "-h", "--bogus", "--se", "--tri", "--limit", "--",
              "-s", "--seed ", "seed", "x"]
_WORDS = ["0", "-1", "+3", " 4", "7", "4_0", "1/2", "-1/2", "3/2", "inf",
          "", "--help", "-h", "json", "csv", "xml", "sup", "one", "two",
          "SUP", "x", "r.json", "a=b"]
_HEADS = [[group, cmd] for group, cmds in SUBCOMMANDS.items()
          for cmd in cmds] + [[], ["check"], ["--help"], ["nonsense", "all"],
                              ["check", "holde"], ["suite", "--seed"]]


@st.composite
def _argvs(draw):
    """A command head, then flags (mostly the command's own) in both
    forms, alone or as bare words, with values from a pool of words."""
    argv = list(draw(st.sampled_from(_HEADS)))
    try:
        group, cmd = argv
        _, _, options = cli._commands()[group][1][cmd]
        own = [flag for flag, _ in cli._grammar(group, options)]
    except (ValueError, KeyError):
        own = _FLAGS
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from(own) if draw(st.integers(0, 3))
                    else st.sampled_from(_FLAGS + _NOT_FLAGS))
        word = draw(st.sampled_from(_WORDS))
        argv += draw(st.sampled_from((
            [flag, word], [f"{flag}={word}"], [flag], [word])))
    return argv


def _argparse_reads(argv):
    """vars of what argparse parses from argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser(argv).parse_args(argv))
        except SystemExit:
            return None


class TestReader:
    """``main`` reads a well-formed command line from the command table
    into what argparse would parse from it, and leaves every other command
    line to argparse."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_argvs())
    def test_reader_agrees_with_argparse(self, argv):
        read = cli._read(argv)
        if read is not None:
            assert vars(read) == _argparse_reads(argv), argv

    @pytest.mark.parametrize("argv", [
        ["check", "norm-axioms"],
        ["check", "holder", "--p", "3/2", "--seed=+3", "--p", "2"],
        ["run", "bootstrap", "--limit-tol", "1/2", "--nmax", " 4"],
        ["suite", "all", "--out", "", "--format=csv"],
        ["dual", "isometry", "--norm", "two", "--trials", "4_0"]],
        ids=" ".join)
    def test_well_formed_lines_are_read(self, argv):
        read = cli._read(argv)
        assert read is not None and vars(read) == _argparse_reads(argv)

    @pytest.mark.parametrize("argv", [
        [], ["check"], ["check", "holde"], ["check", "holder", "--help"],
        ["check", "holder", "--se", "1"], ["check", "holder", "--seed"],
        ["check", "holder", "--seed", "x"], ["check", "holder", "--seed=-1"],
        ["check", "holder", "--trials", "0"], ["check", "holder", "--fn", "f"],
        ["check", "holder", "--format", "xml"], ["suite", "all", "--dim", "2"],
        ["check", "holder", "--out", "-x"], ["check", "holder", "x"]],
        ids=lambda a: " ".join(a) or "no argv")
    def test_everything_else_is_left_to_argparse(self, argv):
        assert cli._read(argv) is None

    @pytest.mark.parametrize("workload", ["suite", "roots", "exhaustive"])
    def test_benchmark_commands_are_read_to_the_same_bytes(
            self, workload, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        for command in workloads.build(workload, 303, str(tmp_path)):
            assert cli._read(command.argv) is not None, command.name
            out = Path(workloads.output_path(command))
            code = main(command.argv)
            read = out.read_bytes()
            with monkeypatch.context() as m:
                m.setattr(cli, "_read", lambda argv: None)
                assert main(command.argv) == code, command.name
            assert out.read_bytes() == read, command.name


# valid documents of the two kinds that commands read: a function (--fn,
# --u, and --v as a dual function) and a vector measure (--measure)
_VALUES = {"a": [["1/2", "-3/4"], ["2/1", "1/5"]],
           "b": [["-1/3", "5/2"], ["0/1", "7/4"]],
           "c": [["1/1", "-1/1"], ["3/2", "1/1"]]}
_SPACE = {"atoms": ["a", "b", "c"], "masses": ["1/2", "1/3", "1/6"]}
_CODOMAIN = {"rank": 2, "d": 2, "norm_kind": "sup"}
_FUNCTION_DOC = {"space": _SPACE, "codomain": _CODOMAIN, "values": _VALUES}
_MEASURE_DOC = {"space": _SPACE, "codomain": _CODOMAIN,
                "atom_values": _VALUES}
# the command lines that read them; a document is mutated at its option's
# slot, and holder's other document stays valid
_DOCUMENT_COMMANDS = [
    (["check", "sup-rep"], "--fn", _FUNCTION_DOC, {}),
    (["check", "holder"], "--u", _FUNCTION_DOC, {"--v": _FUNCTION_DOC}),
    (["check", "holder"], "--v", _FUNCTION_DOC, {"--u": _FUNCTION_DOC}),
    (["dual", "isometry"], "--v", _FUNCTION_DOC, {}),
    (["dual", "represent"], "--v", _FUNCTION_DOC, {}),
    (["rn", "density"], "--measure", _MEASURE_DOC, {}),
    (["rn", "variation"], "--measure", _MEASURE_DOC, {}),
]
# wrong values for any field: JSON's kinds, a bad rational, an unreadable
# one, an empty string and a large integer
_WRONG_VALUES = [None, 0, -1, "x", [], {}, "1/0", 2.5, True, [["1/2"]],
                 10 ** 6, "", "1e5000"]
# option values beside the documents, valid and not
_EXPONENTS = ["1", "3/2", "2", "3", "inf", "0", "1/2", "1/0", "-1", "x"]
_TOLERANCES = ["1/2", "2", "1/1073741824", "0", "-1/2", "x"]


def _paths(doc, path=()):
    """Every path into ``doc``, the empty path (the document) first."""
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, (*path, key))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    *head, last = path
    target = copy
    for key in head:
        target = target[key]
    target[last] = value
    return copy


@st.composite
def _mutated_documents(draw):
    """A command line of ``_DOCUMENT_COMMANDS`` and its documents, one of
    them mutated: a field replaced by a wrong value, an atom name
    repeated, the atoms (or the atoms and masses) emptied, or a null atom
    that the document still charges.  ``--p``, where the command takes
    it, and ``--tol`` are left at their defaults or drawn."""
    head, option, doc, others = draw(st.sampled_from(_DOCUMENT_COMMANDS))
    if head[0] != "rn" and draw(st.booleans()):
        head = [*head, "--p", draw(st.sampled_from(_EXPONENTS))]
    if draw(st.booleans()):
        head = [*head, "--tol", draw(st.sampled_from(_TOLERANCES))]
    kind = draw(st.sampled_from(["field", "duplicate", "empty", "charged"]))
    if kind == "field":
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _replaced(doc, path, draw(st.sampled_from(_WRONG_VALUES)))
    elif kind == "duplicate":
        i, j = draw(st.permutations(range(3)))[:2]
        doc = _replaced(doc, ("space", "atoms", j), _SPACE["atoms"][i])
    elif kind == "empty":
        doc = _replaced(doc, ("space", "atoms"), [])
        if draw(st.booleans()):
            doc = _replaced(doc, ("space", "masses"), [])
    else:
        t = draw(st.integers(0, 2))
        doc = _replaced(doc, ("space", "masses", t), "0/1")
    return head, {option: doc, **others}


class TestDocumentMutations:
    """Every mutated input document ends in exit 0, a failing check with a
    witness (exit 1) or an ``error:`` line (exit 2); no other exception
    leaves ``main``."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(_mutated_documents())
    def test_documented_ending(self, case):
        head, documents = case
        argv, err = list(head), io.StringIO()
        with tempfile.TemporaryDirectory() as directory:
            for n, (option, doc) in enumerate(sorted(documents.items())):
                argv += [option,
                         write_json(Path(directory) / f"doc{n}.json", doc)]
            out = Path(directory) / "report.json"
            with contextlib.redirect_stderr(err):
                code = main([*argv, "--out", str(out)])
            report = json.loads(out.read_text()) if out.exists() else None
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: "), err.getvalue()
        else:
            failing = [c for c in report["checks"] if c["verdict"] == "FAIL"]
            assert bool(failing) == (code == 1)
            assert all(c.get("witness") is not None for c in failing)


class TestOutputs:
    def test_rnp_probe_csv(self, tmp_path, capsys):
        out = tmp_path / "matrix.csv"
        code = main(["run", "rnp-probe", "--levels", "4", "--sets", "4",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("row,distances_0")
        assert len(lines) == 5  # header + 4 matrix rows

    def test_dct_series_csv(self, tmp_path):
        out = tmp_path / "dct.csv"
        code = main(["run", "dct", "--levels", "12", "--nmax", "6",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.split(",")[0] == "n"

    def test_stdout_json_when_no_out(self, capsys):
        code = main(["rn", "variation", "--atoms", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"].startswith("lbochner")

    def test_no_floats_in_report(self, tmp_path):
        out = tmp_path / "r.json"
        main(["suite", "all", "--seed", "3", "--out", str(out)])
        doc = json.loads(out.read_text())

        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(doc)


class TestDeterminism:
    def test_identical_config_byte_identical_reports(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for target in (a, b):
            code = main(["dual", "roundtrip", "--p", "2", "--trials", "5",
                         "--seed", "123", "--out", str(target)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_report(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["rn", "density", "--seed", "1", "--out", str(a)])
        main(["rn", "density", "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestGoldenReports:
    """The report bytes are part of the contract: a change that only makes
    the checks faster must leave these digests where they are."""

    @pytest.mark.parametrize("argv,code,digest", [
        (["suite", "all", "--seed", "42"], 0,
         "583b600845a98d43848208c3987dfd87fe069479f095c51f8269c2c59c75283e"),
        (["run", "bootstrap", "--p", "3", "--nmax", "20", "--atoms", "4",
          "--dim", "3", "--seed", "42"], 0,
         "ca218a0a2850ea0fc4a7c9b3a7e35b94d6a5fb43e3ce06c512fc7e1517d8cbf5"),
        (["dual", "isometry", "--norm", "two", "--p", "3", "--trials", "5",
          "--seed", "42"], 0,
         "b6494e0d28307eea068cc8a7b1c298dbb581fc9de61888c1ab694c2440b65848"),
        (["check", "holder", "--norm", "two", "--p", "3/2", "--trials", "20",
          "--seed", "42"], 0,
         "eb55ce5385902b0eb291f04da70c27d66660db103facfc5a8f285c24ec684c46"),
        (["check", "minkowski", "--norm", "one", "--p", "5/2", "--trials",
          "20", "--seed", "42"], 0,
         "a7104a35e79234763fa2ac6c2b4a94a375f7cb071e470e3cf61f1a40b830e496"),
        (["check", "sup-rep", "--norm", "two", "--rank", "2", "--p", "3/2",
          "--seed", "42"], 0,
         "5e9297cf53eb0c83c29cfc3c355f792b913139550f100fefda144fa8b9e21900"),
        (["check", "chebyshev", "--norm", "two", "--seed", "42"], 0,
         "fe81b0c16fa94ab31a334fc59209403c37b4581210f16d7b6ec3092be556cc3c"),
        (["run", "dct", "--seed", "42"], 0,
         "b16bc1b3aa8787e40de4f0c06e3e4afb5ebf10d23e88e8f59473d554f7564c7d"),
        (["run", "completeness", "--p", "3", "--norm", "two", "--seed", "42"],
         0, "95cefd19461718a5c7fd5a8a729ce76b73e47362b3762a82cddcb5ed46f3edcd"),
        (["dual", "isometry", "--norm", "one", "--p", "1", "--trials", "5",
          "--seed", "42"], 0,
         "708581457ec68638fe2c02889d9f6c42a94155617c4f9d248fcf63ca1f50fa66"),
        (["dual", "isometry", "--norm", "sup", "--p", "inf", "--trials", "5",
          "--seed", "42"], 0,
         "f4afd4e4cfb619af4c401de3f73c801bdeb4db5787a3c7ab1ffdaed4f1bd0de1"),
        (["dual", "represent", "--norm", "two", "--p", "2", "--seed", "42"], 0,
         "596fa8a897e17464dadb98faad055bcde351111c6cf9c45ed163d154272277f5"),
        (["dual", "roundtrip", "--norm", "two", "--p", "2", "--trials", "5",
          "--seed", "42"], 0,
         "6ea73a73b4ce2d09bd8482fbffeff55466507b7d9c9a031d4c356e16a286baf9"),
        (["check", "norm-axioms", "--seed", "42"], 0,
         "145d52745d7a2df9ab7774d38cdabbc9cc0bba3d7fd1ff661a21f79cfc267021"),
        (["run", "rnp-probe", "--seed", "42"], 0,
         "9c40d858ee62570547b142a2748284cc379f430871a4af6ab896dae13710b37f"),
        (["rn", "density", "--seed", "42"], 0,
         "23e8f3936542f3ce23ef9902ec2be582a733d9e986579fd2218584d94a9bbb30"),
        (["rn", "variation", "--seed", "42"], 0,
         "02882319439a341edac9435b511e9206945832ce03486fe14c76836c832a8678"),
        # fails its limit stage: the known midpoint-comparison fault
        (["run", "bootstrap", "--tol", "1/2"], 1,
         "2c21645cdcb93936c5262738472a6dde70e4a20fb1b92a713cc6185484771cff"),
        (["dual", "roundtrip", "--norm", "two", "--p", "3", "--trials", "5",
          "--seed", "42"], 0,
         "e41c8763550ec46f2f24db3c0d8c677ca500f3fda8399c4f10a10a4effbabb66"),
        # the exact contraction path at p = 1, q = inf
        (["check", "holder", "--norm", "one", "--p", "1", "--trials", "20",
          "--seed", "42"], 0,
         "61a3501b5faca90e052646412547555a58840a7a3d703dfadb567cd9bdb1f0e0"),
        # the toleranced two-norm axiom comparisons
        (["check", "norm-axioms", "--norm", "two", "--seed", "7"], 0,
         "5fe4aa7210324cf4c8315749d7fda1f9dae383d22550f6f685163bba5ac66094"),
        # six atoms, bracketed sums: 57 blocks swept
        (["rn", "variation", "--atoms", "6", "--norm", "two", "--seed", "7"],
         0, "b09e6873d2e7d94892c1d0078a2f9e27083d6c75e9df1ed18f9fbab9251ca8e8"),
        # primal and dual norm kinds differ (two-norm cases cannot tell)
        (["dual", "represent", "--norm", "sup", "--p", "1", "--seed", "42"],
         0,
         "d6d5da0cce0e590d1491cb5fae3e868a9a9567a530836975714f202077ddb074"),
        (["dual", "roundtrip", "--norm", "one", "--p", "3", "--trials", "5",
          "--seed", "42"], 0,
         "4a4c0aaff498b01ee19462ad3d75d4f4cdf06ad3e0934e04fed727dae212ecc0"),
        # the mu-continuity table at its 10-atom cap, in each norm kind
        (["rn", "density", "--norm", "one", "--atoms", "10", "--seed", "7"],
         0, "8bf60f95c04accb52701a5451fd0bffe7df6a84ff243f6174d65c533b9321587"),
        (["rn", "density", "--norm", "two", "--atoms", "9", "--rank", "3",
          "--seed", "7"], 0,
         "b959cdf142b604e24e19eebf3df779bcc63d9e44b8afbd27b1e4da4a07d8b06b"),
        (["rn", "density", "--norm", "sup", "--atoms", "10", "--rank", "1",
          "--dim", "3", "--seed", "7", "--format", "csv"], 0,
         "edb65c03ebb119cf331b5b9ee35c7b32bdbee444e252067d5d70518bbad599d5"),
        # sup-rep: exact terms (tol = 0), the pair pass, and the atom cap
        # with bracketed terms (tol != 0)
        (["check", "sup-rep", "--norm", "sup", "--atoms", "12", "--seed",
          "7"], 0,
         "b19c44353108878bec4fd13336c771a76fb13369b6f9565aeb16e5cdfb62d18d"),
        (["check", "sup-rep", "--norm", "one", "--atoms", "6", "--rank", "2",
          "--p", "3", "--seed", "7"], 0,
         "cd45fc83e24a6f5a5b0b001500ee617b8cb73919f3b884222c81666f48e99a3b"),
        (["check", "sup-rep", "--norm", "two", "--atoms", "16", "--p", "3/2",
          "--seed", "7"], 0,
         "2001cd237a196ef66341499a9c401976e90fe0e5ba508831f98859a5f83915d4"),
        # the square-root chain under an integer factor (q = 127/27)
        (["check", "holder", "--norm", "two", "--p", "127/100", "--trials",
          "5", "--seed", "42"], 0,
         "fb46c91c640b4125798fb679aca6cb10539899008d023308e9ccb5e0eddc31bc"),
        # the root path at q = 7/2, and the chain in the bootstrap
        (["dual", "isometry", "--norm", "two", "--p", "7/5", "--trials", "5",
          "--seed", "42"], 0,
         "9cb2b1dc088b550d1be01a1477d89a3a5a1848e0c90e4208a59930531b6ba290"),
    ], ids=["suite-all", "run-bootstrap", "dual-isometry", "check-holder",
            "check-minkowski", "check-sup-rep", "check-chebyshev", "run-dct",
            "run-completeness", "dual-isometry-p1", "dual-isometry-pinf",
            "dual-represent", "dual-roundtrip", "check-norm-axioms",
            "run-rnp-probe", "rn-density", "rn-variation",
            "run-bootstrap-loose-tol", "dual-roundtrip-p3",
            "check-holder-p1", "check-norm-axioms-two",
            "rn-variation-nonexhaustive", "dual-represent-sup-p1",
            "dual-roundtrip-one-p3", "rn-density-one-10",
            "rn-density-two-rank3", "rn-density-sup-csv",
            "check-sup-rep-sup-12", "check-sup-rep-one-pairs",
            "check-sup-rep-two-16", "check-holder-chain-int-part",
            "dual-isometry-root-and-chain"])
    def test_report_sha256(self, argv, code, digest, tmp_path):
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # a dual document of today's format: "codomain" names the primal
    # (sup-norm) module, so the atom values are measured in the one-norm;
    # atom c is null
    SUP_DUAL_DOC = {
        "space": {"atoms": ["a", "b", "c"], "masses": ["1/2", "1/3", "0/1"]},
        "codomain": {"rank": 2, "d": 2, "norm_kind": "sup"},
        "values": {"a": [["1/2", "-3/4"], ["2/1", "1/5"]],
                   "b": [["-1/3", "5/2"], ["0/1", "7/4"]],
                   "c": [["1/1", "-1/1"], ["3/2", "1/1"]]},
    }

    @pytest.mark.parametrize("argv,digest", [
        (["dual", "isometry", "--p", "3"],
         "09fa11b34d5665126b129b14f4fcc7df456d222768a1f57ca81e0bc601bb7536"),
        (["dual", "represent", "--p", "3"],
         "2354c4083139e2ab6bf061336b3a069c61869ea1358dd37326027be52261d1f3"),
    ], ids=["dual-isometry-sup-document", "dual-represent-sup-document"])
    def test_dual_document_report_sha256(self, argv, digest, tmp_path,
                                         monkeypatch):
        # the config echoes the document path, so it is kept relative
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "v.json", self.SUP_DUAL_DOC)
        assert main([*argv, "--v", "v.json", "--out", "report.json"]) == 0
        digest_now = hashlib.sha256(
            (tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest_now == digest

    # atom b is null and charged: G is not absolutely continuous, so no
    # density exists
    CHARGED_NULL_DOC = {
        "space": {"atoms": ["a", "b", "c"], "masses": ["1/2", "0/1", "1/3"]},
        "codomain": {"rank": 1, "d": 2, "norm_kind": "sup"},
        "atom_values": {"a": [["1/2", "-1/3"]], "b": [["1/1", "0/1"]],
                        "c": [["2/3", "1/4"]]},
    }

    def test_charged_null_atom_report_sha256(self, tmp_path, monkeypatch):
        # the refusal is two failing checks with witnesses, not an error
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "g.json", self.CHARGED_NULL_DOC)
        assert main(["rn", "density", "--measure", "g.json",
                     "--out", "report.json"]) == 1
        data = (tmp_path / "report.json").read_bytes()
        continuity, density = json.loads(data)["checks"]
        assert continuity["name"] == "mu-continuity"
        assert continuity["witness"] == {"atom": "b"}
        assert density["name"] == "rn-density"
        assert density["witness"] == {"subset": ["b"]}
        assert density["details"] == {"verified_sets": 2 ** 1}
        assert hashlib.sha256(data).hexdigest() == (
            "cf4b37d6356fd83c17587c042aec7118f487e43d6f051f3d19c529bb53a3ca3e")

    # one atom of mass 1, rank 2, d = 2, every entry 1, sup norm: as v, the
    # document names the dual of this module, so ||v||_inf is measured in
    # the one-norm (2) and the pairing 2 meets 1 * 2; in the sup norm the
    # right side would be 1 and the check would FAIL
    ONES_SUP_DOC = {
        "space": {"atoms": ["a"], "masses": ["1/1"]},
        "codomain": {"rank": 2, "d": 2, "norm_kind": "sup"},
        "values": {"a": [["1/1", "1/1"], ["1/1", "1/1"]]},
    }

    # each check of ``suite all --seed 42`` on its own, as canonical JSON
    # (sorted keys, no spaces): a change to one check names that check
    SUITE_CHECK_DIGESTS = [
        ("norm-axioms-sup",
         "07f4d412c8e6a2e5cb668da08486e9406d91fdd9aeb775c3874690725005ddd6"),
        ("norm-axioms-one",
         "f7b2ee5dcf964f47ca52c91ec2e147951fa4a4ed35c98503123a45fc373f3d09"),
        ("norm-axioms-two",
         "1695490596871277fc218a2cde92c0ee6d076fdf6eb2c899ac95f3acf445ad47"),
        ("holder-minkowski-p1",
         "45eefaab1ab0daf369ff0a48c88b822639e1368ce6660c38f91111d9eb366b11"),
        ("holder-minkowski-p2",
         "21a65e4b6a804203757dbf548db22631f976bc33db861590f5c84cffbe2e5c50"),
        ("holder-minkowski-p3",
         "130fd105ff931148e380e407c386848812ffc5fca3bd88511a32ab104def11c0"),
        ("sup-representation",
         "7a00b03e5c645e2793ef7dab93564425cd8e8f7748327cc6a9e5fe368b979ccf"),
        ("chebyshev-step",
         "d882b426782cc77cc70b38ce7fb4ddcbaa9468119a8208584e47ef4467e06ade"),
        ("dominated-convergence",
         "9a3a7e6ab23712506fe6122a7a22b330d5a4ac02df7770440c0044f878ece178"),
        ("completeness-harness",
         "e13237148dbd4d9af65d8fc272ad644d4d2703034eb64659acb760e33c049d24"),
        ("bootstrap-chain",
         "938e1789a1585783b6f57c05c71149b3853f6e182a82b8f1a27e259d90d64beb"),
        ("rnp-probe",
         "3cdafffc59328c6d918c90391a5c664f19ba7f4723835ae934493e7c455a702e"),
        ("rn-density",
         "f2e3347e49f81e1fc826389fc65f748819f93c4a1da1ad225c4898efc2f3f7a0"),
        ("variation",
         "7d8c23639de2f9f09b97bd245be9a0591b8f279d0582c95d6385d61a399731ed"),
        ("duality-roundtrip",
         "f76b7a70053d8984d6648f903214e697dd7b1ad836c5b1fe0ad8e85c1026e1d4"),
        ("duality-roundtrip",
         "f427e40b2702cbe9c1f1b5e1a9800a1d7e111569fdea0bb1d4086200fe019c3b"),
    ]

    @pytest.fixture(scope="class")
    def suite_checks(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("suite") / "report.json"
        assert main(["suite", "all", "--seed", "42", "--out", str(out)]) == 0
        return json.loads(out.read_text())["checks"]

    @pytest.mark.parametrize(
        "index,name,digest",
        [(i, name, digest)
         for i, (name, digest) in enumerate(SUITE_CHECK_DIGESTS)],
        ids=[f"{i:02d}-{name}"
             for i, (name, _) in enumerate(SUITE_CHECK_DIGESTS)])
    def test_suite_check_sha256(self, index, name, digest, suite_checks):
        assert len(suite_checks) == len(self.SUITE_CHECK_DIGESTS)
        check = suite_checks[index]
        assert check["name"] == name
        canonical = json.dumps(check, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == digest

    @pytest.mark.parametrize("hashseed", ["0", "1"])
    def test_suite_all_independent_of_hash_seed(self, hashseed):
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-m", "lbochner", "suite", "all", "--seed", "42"],
            env=env, check=True, capture_output=True).stdout
        assert hashlib.sha256(out).hexdigest() == (
            "583b600845a98d43848208c3987dfd87fe069479f095c51f8269c2c59c75283e")

    def test_holder_dual_document_report_sha256(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "u.json", self.ONES_SUP_DOC)
        assert main(["check", "holder", "--u", "u.json", "--v", "u.json",
                     "--p", "1", "--out", "report.json"]) == 0
        digest_now = hashlib.sha256(
            (tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest_now == (
            "1b95bdd5d3ea5e9b5ec369e76c0062566b892beff077c278fadafdf7fa5d6882")
