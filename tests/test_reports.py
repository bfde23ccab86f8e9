import importlib
import inspect
import pkgutil

import lbochner
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
