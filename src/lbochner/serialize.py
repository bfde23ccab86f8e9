"""Loaders for the document formats of spaces, functions, and measures.

Rationals travel as "num/den" strings, module vectors as rank x dim arrays
of such strings, and functions as maps from atom name to such arrays.  A
dual function is a function into the dual module; its document names the
primal module as its "codomain".  The loaders are strict and raise
ValueError with a location on malformed input.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Any

from .bochner import LFunction
from .falgebra import LElement
from .lmodule import ModuleSpace, ModuleVector, NormKind
from .measure import MeasureSpace
from .vecmeasure import VectorMeasure


# the decimal exponent of a rational such as "2.5e3"
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")


def parse_rational(s: Any, where: str = "value") -> Fraction:
    """A rational from "num/den", an integer or a decimal.  A decimal
    exponent of at least the interpreter's integer-string cap
    (``sys.get_int_max_str_digits()``) is refused before ``Fraction``
    computes 10 ** exponent: 10 ** cap has cap + 1 digits, so the result
    could not be written back."""
    text = str(s)
    try:
        exponent = _EXPONENT.search(text)
        cap = sys.get_int_max_str_digits()
        if exponent and cap and abs(int(exponent.group(1))) >= cap:
            raise ValueError("decimal exponent at the digit cap or above")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{where}: not a rational: {s!r}") from exc


def lelement_from_doc(doc: Any, where: str = "element") -> LElement:
    if not isinstance(doc, list) or not doc:
        raise ValueError(f"{where}: expected a nonempty array of rationals")
    return LElement([parse_rational(s, f"{where}[{i}]")
                     for i, s in enumerate(doc)])


def module_space_from_doc(doc: Any, where: str = "codomain") -> ModuleSpace:
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object")
    try:
        kind = NormKind(doc["norm_kind"])
        rank, d = doc["rank"], doc["d"]
        # JSON integers only: a bool is no integer here, and int() would
        # read 2.9 as 2
        if type(rank) is not int or type(d) is not int:
            raise ValueError(f"rank and d must be integers, got {rank!r} "
                             f"and {d!r}")
        return ModuleSpace(rank, d, kind)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{where}: bad module space: {exc}") from exc


def module_vector_from_doc(doc: Any, space: ModuleSpace,
                           where: str = "vector") -> ModuleVector:
    if not isinstance(doc, list) or len(doc) != space.rank:
        raise ValueError(f"{where}: expected {space.rank} entries")
    return ModuleVector(space, tuple(
        lelement_from_doc(row, f"{where}[{i}]") for i, row in enumerate(doc)))


def measure_space_from_doc(doc: Any, where: str = "space") -> MeasureSpace:
    if not isinstance(doc, dict) or "atoms" not in doc or "masses" not in doc:
        raise ValueError(f"{where}: expected an object with atoms and masses")
    atoms = doc["atoms"]
    masses = doc["masses"]
    if not isinstance(atoms, list) or not isinstance(masses, list):
        raise ValueError(f"{where}: atoms and masses must be arrays")
    return MeasureSpace(tuple(str(a) for a in atoms), tuple(
        parse_rational(m, f"{where}.masses[{i}]")
        for i, m in enumerate(masses)))


def _values_from_doc(doc: Any, space: MeasureSpace, codomain: ModuleSpace,
                     where: str):
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object keyed by atom name")
    missing = [n for n in space.atom_names if n not in doc]
    if missing:
        raise ValueError(f"{where}: missing atoms {missing}")
    return tuple(
        module_vector_from_doc(doc[name], codomain, f"{where}[{name!r}]")
        for name in space.atom_names)


def lfunction_from_doc(doc: Any, where: str = "function") -> LFunction:
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object")
    space = measure_space_from_doc(doc.get("space"), f"{where}.space")
    codomain = module_space_from_doc(doc.get("codomain"), f"{where}.codomain")
    values = _values_from_doc(doc.get("values"), space, codomain,
                              f"{where}.values")
    return LFunction(space, codomain, values)


def vector_measure_from_doc(doc: Any, where: str = "measure") -> VectorMeasure:
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object")
    space = measure_space_from_doc(doc.get("space"), f"{where}.space")
    codomain = module_space_from_doc(doc.get("codomain"), f"{where}.codomain")
    values = _values_from_doc(doc.get("atom_values"), space, codomain,
                              f"{where}.atom_values")
    return VectorMeasure(space, codomain, values)


def dual_function_from_doc(doc: Any, where: str = "dual") -> LFunction:
    f = lfunction_from_doc(doc, where)
    return f.moved_to(f.codomain.dual())


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
