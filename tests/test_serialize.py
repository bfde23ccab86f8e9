import re
import sys
from fractions import Fraction

import pytest

from lbochner import serialize
from lbochner.bochner import LFunction
from lbochner.falgebra import LElement
from lbochner.lmodule import ModuleSpace, NormKind
from lbochner.measure import MeasureSpace
from lbochner.reports import format_rational
from lbochner.sampling import random_module_vector, rng_for
from lbochner.vecmeasure import VectorMeasure
from support import (
    dual_function_to_doc,
    lfunction_to_doc,
    measure_space_to_doc,
    module_space_to_doc,
    vector_measure_to_doc,
)


def L(*coords):
    return LElement(list(coords))


class TestRationals:
    def test_format(self):
        assert format_rational(Fraction(3, 2)) == "3/2"
        assert format_rational(Fraction(-1, 4)) == "-1/4"
        assert format_rational(Fraction(3)) == "3/1"

    def test_parse_accepts_both_forms(self):
        assert serialize.parse_rational("3/2") == Fraction(3, 2)
        assert serialize.parse_rational("-7") == Fraction(-7)

    def test_parse_accepts_decimals(self):
        assert serialize.parse_rational("1e-5") == Fraction(1, 100000)
        assert serialize.parse_rational("2.5e3") == Fraction(2500)

    @pytest.mark.parametrize("s", ["1e4301", "1E-4301", "2.5e+9_999"])
    def test_parse_refuses_exponent_above_digit_cap(self, s):
        assert sys.get_int_max_str_digits() == 4300
        message = f"--tol: not a rational: '{s}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            serialize.parse_rational(s, "--tol")

    def test_parse_error_carries_location(self):
        with pytest.raises(ValueError, match="masses"):
            serialize.measure_space_from_doc(
                {"atoms": ["a"], "masses": ["x/y"]})


class TestSpaceDocs:
    def test_measure_space_roundtrip(self):
        space = MeasureSpace.build(["a", "b", "c"], ["1/2", 2, 0])
        doc = measure_space_to_doc(space)
        assert doc == {"atoms": ["a", "b", "c"],
                       "masses": ["1/2", "2/1", "0/1"]}
        assert serialize.measure_space_from_doc(doc) == space

    def test_module_space_roundtrip(self):
        space = ModuleSpace(3, 2, NormKind.TWO)
        doc = module_space_to_doc(space)
        assert doc == {"rank": 3, "d": 2, "norm_kind": "two"}
        assert serialize.module_space_from_doc(doc) == space


class TestFunctionDocs:
    def test_lfunction_roundtrip(self):
        rng = rng_for(61, 1)
        space = MeasureSpace.build(["a", "b"], [1, "1/3"])
        codomain = ModuleSpace(2, 2, NormKind.ONE)
        f = LFunction(space, codomain, tuple(
            random_module_vector(rng, codomain) for _ in range(2)))
        doc = lfunction_to_doc(f)
        assert serialize.lfunction_from_doc(doc) == f

    def test_vector_measure_roundtrip(self):
        rng = rng_for(62, 2)
        space = MeasureSpace.build(["a", "b"], [1, 0])
        codomain = ModuleSpace(1, 2, NormKind.SUP)
        G = VectorMeasure(space, codomain, tuple(
            random_module_vector(rng, codomain) for _ in range(2)))
        doc = vector_measure_to_doc(G)
        assert serialize.vector_measure_from_doc(doc) == G

    def test_dual_function_roundtrip(self):
        rng = rng_for(63, 3)
        space = MeasureSpace.build(["a", "b"], [1, 2])
        primal = ModuleSpace(2, 2, NormKind.SUP)
        v = LFunction(space, primal.dual(), tuple(
            random_module_vector(rng, primal.dual()) for _ in range(2)))
        doc = dual_function_to_doc(v)
        # the document names the primal module, as it always has
        assert doc["codomain"] == module_space_to_doc(primal)
        assert doc["values"] == lfunction_to_doc(v)["values"]
        assert serialize.dual_function_from_doc(doc) == v

    def test_missing_atom_value_rejected(self):
        doc = {
            "space": {"atoms": ["a", "b"], "masses": ["1/2", "1/2"]},
            "codomain": {"rank": 1, "d": 1, "norm_kind": "sup"},
            "values": {"a": [["1/1"]]},
        }
        with pytest.raises(ValueError, match="missing atoms"):
            serialize.lfunction_from_doc(doc)

    def test_wrong_rank_rejected(self):
        doc = {
            "space": {"atoms": ["a"], "masses": ["1/1"]},
            "codomain": {"rank": 2, "d": 1, "norm_kind": "sup"},
            "values": {"a": [["1/1"]]},
        }
        with pytest.raises(ValueError, match="expected 2 entries"):
            serialize.lfunction_from_doc(doc)
