import dataclasses
import importlib
import inspect
import pkgutil

import lbochner
from lbochner.reports import CheckReport, check_to_doc


def _package_dataclasses():
    for info in pkgutil.walk_packages(lbochner.__path__, "lbochner."):
        if info.name.endswith(".__main__"):
            continue  # importing it would run the command line
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                yield cls


class TestFail:
    def test_starts_passing_without_witness(self):
        check = CheckReport(name="c")
        assert check.passed and check.failures == 0
        assert "witness" not in check_to_doc(check)

    def test_every_failure_counts_and_the_first_witness_stays(self):
        check = CheckReport(name="c")
        check.fail({"n": 0})
        check.fail({"n": 1})
        check.fail()
        assert not check.passed
        assert check.failures == 3
        assert check.witness == {"n": 0}
        doc = check_to_doc(check)
        assert doc["verdict"] == "FAIL" and doc["witness"] == {"n": 0}
        assert "failures" not in doc


class TestOneVerdictType:
    def test_no_other_dataclass_keeps_a_verdict(self):
        """CheckReport is the one verdict type: no other dataclass keeps its
        own passed flag (field or property) next to a witness field."""
        found = list(_package_dataclasses())
        assert CheckReport in found
        verdict_types = []
        for cls in found:
            names = {f.name for f in dataclasses.fields(cls)}
            has_passed = ("passed" in names
                          or isinstance(getattr(cls, "passed", None), property))
            if has_passed and any(n.startswith("witness") for n in names):
                verdict_types.append(cls.__qualname__)
        assert verdict_types == ["CheckReport"]
