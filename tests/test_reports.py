import enum
import importlib
import inspect
import pkgutil
import sys
from fractions import Fraction

import pytest

import lbochner
from lbochner import certified
from lbochner.falgebra import ApproxReal, LElement
from lbochner.lmodule import ModuleSpace, ModuleVector, NormKind
from lbochner.reports import (
    CheckReport,
    check_to_doc,
    format_rational,
    to_jsonable,
)


def _package_classes():
    for info in pkgutil.walk_packages(lbochner.__path__, "lbochner."):
        if info.name.endswith(".__main__"):
            continue  # importing it would run the command line
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield cls


def _field_names(cls) -> set:
    """The names a class keeps per instance: its own ``__slots__``, and the
    parameters of its own ``__init__``."""
    names = set(cls.__dict__.get("__slots__", ()))
    init = cls.__dict__.get("__init__")
    if inspect.isfunction(init):
        names |= set(inspect.signature(init).parameters) - {"self"}
    return names


def _verdict_types(classes) -> list:
    """The classes that keep their own passed flag (field or property)
    next to a witness field."""
    found = []
    for cls in classes:
        names = _field_names(cls)
        has_passed = ("passed" in names
                      or isinstance(getattr(cls, "passed", None), property))
        if has_passed and any(n.startswith("witness") for n in names):
            found.append(cls.__qualname__)
    return found


class TestFail:
    def test_starts_passing_without_witness(self):
        check = CheckReport(name="c")
        assert check.passed and check.failures == 0
        assert "witness" not in check_to_doc(check)

    def test_every_failure_counts_and_the_first_witness_stays(self):
        check = CheckReport(name="c")
        check.fail({"n": 0})
        check.fail({"n": 1})
        check.fail({"n": 2})
        assert not check.passed
        assert check.failures == 3
        assert check.witness == {"n": 0}
        doc = check_to_doc(check)
        assert doc["verdict"] == "FAIL" and doc["witness"] == {"n": 0}
        assert "failures" not in doc


def _recorder():
    """A witness callable that records each margin it is called with."""
    calls = []

    def witness(margin):
        calls.append(margin)
        return {"call": len(calls), "margin": margin}

    return witness, calls


# exact brackets (lo_num, lo_den, hi_num, hi_den)
ONE, TWO, THREE = (1, 1, 1, 1), (2, 1, 2, 1), (3, 1, 3, 1)


class TestSeam:
    """``at_most``, ``within`` and ``absorb``: the comparisons of
    ``certified`` and the first-failure rule of ``fail`` in one place."""

    @pytest.mark.parametrize("compare,lhs,rhs,tol,margin", [
        ("at_most", TWO, ONE, Fraction(1, 2), (-1, 1)),
        ("within", THREE, ONE, Fraction(1), (2, 1)),
    ])
    def test_a_miss_fails_with_the_witness_of_its_margin(
            self, compare, lhs, rhs, tol, margin):
        check = CheckReport(name="c")
        witness, calls = _recorder()
        assert getattr(check, compare)(lhs, rhs, tol, witness) == margin
        assert calls == [margin]
        assert not check.passed and check.failures == 1
        assert check.witness == {"call": 1, "margin": margin}

    @pytest.mark.parametrize("compare,lhs,rhs,tol,margin", [
        ("at_most", ONE, TWO, Fraction(0), (1, 1)),
        ("at_most", TWO, ONE, Fraction(1), (-1, 1)),
        ("within", TWO, ONE, Fraction(1), (1, 1)),
        ("within", ONE, ONE, Fraction(0), (0, 1)),
    ])
    def test_a_pass_returns_the_margin_and_builds_no_witness(
            self, compare, lhs, rhs, tol, margin):
        check = CheckReport(name="c")
        witness, calls = _recorder()
        assert getattr(check, compare)(lhs, rhs, tol, witness) == margin
        assert calls == []
        assert check.passed and check.failures == 0
        assert check.witness is None

    @pytest.mark.parametrize("compare,sides", [
        ("at_most", [(TWO, ONE), (ONE, TWO), (THREE, ONE)]),
        ("within", [(TWO, ONE), (ONE, ONE), (THREE, ONE)]),
    ])
    def test_every_miss_counts_and_the_first_witness_stays(
            self, compare, sides):
        check = CheckReport(name="c")
        witness, calls = _recorder()
        for lhs, rhs in sides:
            getattr(check, compare)(lhs, rhs, Fraction(0), witness)
        assert len(calls) == 2 and check.failures == 2
        assert check.witness == {"call": 1, "margin": calls[0]}

    def test_margins_are_those_of_certified(self):
        # unreduced: 1/3 <= 3/4 passes with slack 5/12 as (5, 12); the
        # midpoints 5/12 and 23/40 miss by more than 1/7
        check = CheckReport(name="c")
        witness, calls = _recorder()
        lhs, rhs, tol = (1, 3, 1, 2), (2, 5, 3, 4), Fraction(1, 7)
        assert check.at_most(lhs, rhs, tol, witness) \
            == certified.leq_with_slack(lhs, rhs, tol)[1]
        assert check.within(lhs, rhs, tol, witness) \
            == certified.eq_within(lhs, rhs, tol)[1] == calls[0]
        assert len(calls) == 1

    def test_absorb_of_a_passing_report_is_a_no_op(self):
        check = CheckReport(name="c")
        check.absorb(CheckReport(name="sub"), trial=3)
        assert check.passed and check.failures == 0
        assert check.witness is None

    def test_absorb_puts_the_context_before_the_sub_witness(self):
        check = CheckReport(name="c")
        sub = CheckReport(name="sub")
        sub.fail({"coordinate": 1})
        sub.fail({"coordinate": 2})
        check.absorb(sub, trial=3, stage="s")
        assert check.witness == {"trial": 3, "stage": "s", "coordinate": 1}
        assert list(check.witness) == ["trial", "stage", "coordinate"]
        # one failing sub-report counts once, however often it failed
        assert check.failures == 1
        other = CheckReport(name="other")
        other.fail({"coordinate": 0})
        check.absorb(other, trial=4)
        assert check.failures == 2
        assert check.witness == {"trial": 3, "stage": "s", "coordinate": 1}


class TestOneVerdictType:
    def test_no_other_class_keeps_a_verdict(self):
        """CheckReport is the one verdict type: no other class of the
        package keeps its own passed flag (field or property) next to a
        witness field."""
        found = list(_package_classes())
        assert CheckReport in found
        assert _verdict_types(found) == ["CheckReport"]

    def test_a_second_verdict_type_is_flagged(self):
        # controls: slots, __init__ parameters and a passed property
        class BySlots:
            __slots__ = ("passed", "witness")

        class ByInit:
            def __init__(self, passed, witness_atom):
                pass

        class ByProperty:
            __slots__ = ("witness",)
            passed = property(lambda self: True)

        class NoWitness:
            __slots__ = ("passed", "details")

        assert _verdict_types([BySlots, ByInit, ByProperty, NoWitness]) == [
            "TestOneVerdictType.test_a_second_verdict_type_is_flagged."
            "<locals>.BySlots",
            "TestOneVerdictType.test_a_second_verdict_type_is_flagged."
            "<locals>.ByInit",
            "TestOneVerdictType.test_a_second_verdict_type_is_flagged."
            "<locals>.ByProperty"]


def isinstance_to_jsonable(obj):
    """``to_jsonable`` as it was with the scalar test first and the
    containers and rationals after it."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, float):
        raise TypeError("binary floating point is not allowed in reports")
    if isinstance(obj, dict):
        return {str(k): isinstance_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [isinstance_to_jsonable(v) for v in items]
    if hasattr(obj, "abs_error_bound") and hasattr(obj, "value"):
        return {"value": format_rational(obj.value),
                "error_bound": format_rational(obj.abs_error_bound)}
    if hasattr(obj, "coords") and hasattr(obj, "nums"):
        return [format_rational(q) for q in obj.coords]
    if hasattr(obj, "entries"):
        return [isinstance_to_jsonable(e) for e in obj.entries]
    if hasattr(obj, "value") and hasattr(obj, "name"):
        return isinstance_to_jsonable(obj.value)
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


class Third(Fraction):
    """A Fraction subclass: rendered as its value, like a Fraction."""


class Colour(enum.Enum):
    RED = "red"
    GREEN = 2


class FlagDict(dict):
    pass


class TestRendering:
    """``to_jsonable``, which tests containers and rationals before the
    scalars, renders every value kind as the scalar-first order did:
    ``bool`` is neither a container nor a rational."""

    MODULE = ModuleSpace(2, 2, NormKind.ONE)
    VALUES = {
        "fraction": Fraction(-3, 4),
        "integral fraction": Fraction(5),
        "fraction subclass": Third(1, 3),
        "int": 7,
        "bool": True,
        "bool in a dict": {"passed": False, 3: True},
        "none": None,
        "str": "a0",
        "enum": Colour.RED,
        "int enum value": Colour.GREEN,
        "norm kind": NormKind.TWO,
        "lelement": LElement([Fraction(1, 2), -3]),
        "approx real": ApproxReal(Fraction(7, 5), Fraction(1, 1 << 40)),
        "module vector": ModuleVector(MODULE, (
            LElement([1, Fraction(-2, 3)]), LElement([0, 5]))),
        "tuple": (Fraction(1, 3), "x", None),
        "set": {3, 1, 2},
        "frozenset": frozenset({"b", "a"}),
        "dict subclass": FlagDict(a=Fraction(1, 2)),
        "nested": {"series": [{"mu": Fraction(1, 6), "value_norm": [
            Fraction(2, 3), (ApproxReal(Fraction(1), Fraction(0)),)]}],
            "witness": {"partition": [["a0", "a1"], ["a2"]],
                        "coordinate": 1, "set": frozenset({2, 0})}},
    }

    @pytest.mark.parametrize("value", list(VALUES.values()), ids=list(VALUES))
    def test_same_as_the_isinstance_chain(self, value):
        got = to_jsonable(value)
        assert got == isinstance_to_jsonable(value)
        assert type(got) is type(isinstance_to_jsonable(value))

    def test_bool_stays_a_bool(self):
        # True == 1, so the comparison above cannot tell them apart
        assert to_jsonable({"ok": True})["ok"] is True
        assert to_jsonable([False])[0] is False

    @pytest.mark.parametrize("value", [
        0.5, [1, 0.5], {"x": 0.5}, (Fraction(1), 0.5)],
        ids=["float", "in a list", "in a dict", "in a tuple"])
    def test_float_is_refused(self, value):
        with pytest.raises(TypeError, match="binary floating point"):
            to_jsonable(value)

    def test_number_above_the_digit_cap_names_the_check(self):
        cap = sys.get_int_max_str_digits()
        check = CheckReport(name="mu-continuity",
                            details={"mu": Fraction(10 ** cap, 3)})
        with pytest.raises(ValueError, match=(
                f"^mu-continuity: a reported number has more than "
                f"{cap} digits$")):
            check_to_doc(check)
        check.details = {"mu": Fraction(10 ** (cap - 1), 3)}
        assert check_to_doc(check)["details"]["mu"] \
            == f"{10 ** (cap - 1)}/3"
