from lbochner.reports import CheckReport, check_to_doc


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
