import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from lbochner import bochner, duality, serialize, vecmeasure
from lbochner.bochner import LFunction
from lbochner.cli import main
from lbochner.falgebra import LElement
from lbochner.lmodule import ModuleSpace, ModuleVector, NormKind
from lbochner.measure import MeasureSpace
from lbochner.vecmeasure import VectorMeasure


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
    s = write_json(tmp_path / "s.json", serialize.measure_space_to_doc(space))
    uf = write_json(tmp_path / "u.json", serialize.lfunction_to_doc(u))
    vf = write_json(tmp_path / "v.json", serialize.lfunction_to_doc(v))
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

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["check", "nonsense"]) == 2

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
                        serialize.vector_measure_to_doc(G))
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
                return dataclasses.replace(rep, passed=False)
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
        assert check["witness"] == {"trial": 0}


class TestFailurePaths:
    """A violated check ends in a FAIL report with a witness and exit 1,
    never in a traceback; an oversized table is refused with exit 2."""

    @staticmethod
    def _off_integral(f, E):
        # the density term of atom 0 one unit too large
        value = bochner.integrate_over(f, E)
        if 0 in E.members:
            return value + f.codomain.basis_vector(0)
        return value

    @staticmethod
    def _heavy_blocks(monkeypatch):
        # every block of two or more atoms 10 heavier than its atoms
        real = vecmeasure.evaluate

        def evaluate(G, F):
            value = real(G, F)
            if len(F.members) > 1:
                return value + G.codomain.basis_vector(0).scale_rational(10)
            return value

        monkeypatch.setattr(vecmeasure, "evaluate", evaluate)

    @staticmethod
    def _measure_doc(tmp_path):
        space = MeasureSpace.build(["a", "b", "c"], [1, 2, 0])
        codomain = ModuleSpace(1, 2, NormKind.SUP)
        G = VectorMeasure(space, codomain, tuple(
            ModuleVector(codomain, (LElement(v),))
            for v in ([2, -2], [4, 6], [0, 0])))
        return write_json(tmp_path / "g.json",
                          serialize.vector_measure_to_doc(G))

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
        assert check["witness"] == {"partition": [["a", "b", "c"]],
                                    "coordinate": 0}

    def test_suite_all_takes_density_and_variation_verdicts(
            self, tmp_path, monkeypatch):
        # duality's represent solves densities too; only the suite's own
        # density check sees the corrupted term
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
        assert failed == {"rn-density", "variation"}
        assert checks["rn-density"]["witness"] == {"subset": ["a0"]}
        assert "partition" in checks["variation"]["witness"]

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
            return vecmeasure.DensityResult(real(G).density, 0,
                                            {"subset": ["a0"]})

        monkeypatch.setattr(duality, "rn_density", failing_density)
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 1
        check = self._checks(out)[name]
        assert check["verdict"] == "FAIL"
        assert check["witness"] == witness

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

    @pytest.mark.parametrize("argv", [
        ["--p", "1"], ["--norm", "two", "--p", "3"],
    ], ids=["exact", "bracketed"])
    def test_isometry_witness(self, argv, tmp_path, monkeypatch):
        # negative control: the operator norm one unit too large at
        # coordinate 1
        real = duality.operator_norm_intervals

        def shifted(H, cfg):
            ivs = real(H, cfg)
            ivs[1] = (ivs[1][0] + 1, ivs[1][1] + 1)
            return ivs

        monkeypatch.setattr(duality, "operator_norm_intervals", shifted)
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

    def test_sup_rep_atom_cap(self, tmp_path, capsys):
        m = bochner.SUP_REP_MAX_ATOMS + 1
        assert main(["check", "sup-rep", "--atoms", str(m)]) == 2
        assert "error:" in capsys.readouterr().err
        space = MeasureSpace.build([f"a{i}" for i in range(m)], [1] * m)
        f = LFunction.zero(space, ModuleSpace(1, 2, NormKind.SUP))
        fn = write_json(tmp_path / "f.json", serialize.lfunction_to_doc(f))
        out = tmp_path / "report.json"
        assert main(["check", "sup-rep", "--fn", fn, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("argv,digest", [
        (["suite", "all", "--seed", "42"],
         "11130b134caacdfbe165be571c8dbbfe20a3390d44ca78d6555046ffc8087e48"),
        (["run", "bootstrap", "--p", "3", "--nmax", "20", "--atoms", "4",
          "--dim", "3", "--seed", "42"],
         "ca218a0a2850ea0fc4a7c9b3a7e35b94d6a5fb43e3ce06c512fc7e1517d8cbf5"),
        (["dual", "isometry", "--norm", "two", "--p", "3", "--trials", "5",
          "--seed", "42"],
         "b6494e0d28307eea068cc8a7b1c298dbb581fc9de61888c1ab694c2440b65848"),
        (["check", "holder", "--norm", "two", "--p", "3/2", "--trials", "20",
          "--seed", "42"],
         "eb55ce5385902b0eb291f04da70c27d66660db103facfc5a8f285c24ec684c46"),
        (["check", "minkowski", "--norm", "one", "--p", "5/2", "--trials",
          "20", "--seed", "42"],
         "a7104a35e79234763fa2ac6c2b4a94a375f7cb071e470e3cf61f1a40b830e496"),
        (["check", "sup-rep", "--norm", "two", "--rank", "2", "--p", "3/2",
          "--seed", "42"],
         "5e9297cf53eb0c83c29cfc3c355f792b913139550f100fefda144fa8b9e21900"),
        (["check", "chebyshev", "--norm", "two", "--seed", "42"],
         "fe81b0c16fa94ab31a334fc59209403c37b4581210f16d7b6ec3092be556cc3c"),
        (["run", "dct", "--seed", "42"],
         "b16bc1b3aa8787e40de4f0c06e3e4afb5ebf10d23e88e8f59473d554f7564c7d"),
        (["run", "completeness", "--p", "3", "--norm", "two", "--seed", "42"],
         "95cefd19461718a5c7fd5a8a729ce76b73e47362b3762a82cddcb5ed46f3edcd"),
        (["dual", "isometry", "--norm", "one", "--p", "1", "--trials", "5",
          "--seed", "42"],
         "708581457ec68638fe2c02889d9f6c42a94155617c4f9d248fcf63ca1f50fa66"),
        (["dual", "isometry", "--norm", "sup", "--p", "inf", "--trials", "5",
          "--seed", "42"],
         "f4afd4e4cfb619af4c401de3f73c801bdeb4db5787a3c7ab1ffdaed4f1bd0de1"),
        (["dual", "represent", "--norm", "two", "--p", "2", "--seed", "42"],
         "596fa8a897e17464dadb98faad055bcde351111c6cf9c45ed163d154272277f5"),
        (["dual", "roundtrip", "--norm", "two", "--p", "2", "--trials", "5",
          "--seed", "42"],
         "6ea73a73b4ce2d09bd8482fbffeff55466507b7d9c9a031d4c356e16a286baf9"),
        (["check", "norm-axioms", "--seed", "42"],
         "145d52745d7a2df9ab7774d38cdabbc9cc0bba3d7fd1ff661a21f79cfc267021"),
        (["run", "rnp-probe", "--seed", "42"],
         "3976c536cf168ab550ce4ac5610113e4ef3a106917defaa72da77e48c6c546b5"),
        (["rn", "density", "--seed", "42"],
         "23e8f3936542f3ce23ef9902ec2be582a733d9e986579fd2218584d94a9bbb30"),
        (["rn", "variation", "--seed", "42"],
         "02882319439a341edac9435b511e9206945832ce03486fe14c76836c832a8678"),
    ], ids=["suite-all", "run-bootstrap", "dual-isometry", "check-holder",
            "check-minkowski", "check-sup-rep", "check-chebyshev", "run-dct",
            "run-completeness", "dual-isometry-p1", "dual-isometry-pinf",
            "dual-represent", "dual-roundtrip", "check-norm-axioms",
            "run-rnp-probe", "rn-density", "rn-variation"])
    def test_report_sha256(self, argv, digest, tmp_path):
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
