import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import lbochner
from lbochner import certified
from lbochner.reports import CheckReport, check_to_doc


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
