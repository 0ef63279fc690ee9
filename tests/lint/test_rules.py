"""Each lint rule against its fixture: exact rule ids at exact lines.

The fixtures live under ``fixtures/`` (excluded from whole-tree lint runs
by the default ``*fixtures*`` glob) and pin their repro-relative scope with
a ``# repro-lint: module=...`` pragma, so directory-scoped rules fire even
though the files physically live under ``tests/``.
"""

from pathlib import Path

from repro.lint import lint_file

FIXTURES = Path(__file__).parent / "fixtures"


def findings_of(name):
    return lint_file(str(FIXTURES / name))


def located(findings):
    """(rule, line) pairs, the part the fixtures pin exactly."""
    return sorted((finding.rule, finding.line) for finding in findings)


class TestM1UncountedChecks:
    def test_flags_prohibits_and_non_store_receivers(self):
        findings = findings_of("m1_uncounted_checks.py")
        assert located(findings) == [
            ("M1", 5),  # nogood.prohibits(view)
            ("M1", 9),  # bucket.is_violated(view)
        ]

    def test_store_receivers_pass(self):
        lines = [
            finding.line for finding in findings_of("m1_uncounted_checks.py")
        ]
        for counted_line in (13, 17):  # store / self.nogood_store
            assert counted_line not in lines


class TestX0BadSuppressions:
    def test_unjustified_and_unknown_disables_are_findings(self):
        findings = findings_of("x0_bad_suppressions.py")
        assert located(findings) == [
            ("M1", 5),   # the disable is void, so M1 still fires
            ("M1", 9),
            ("X0", 5),   # disable without justification
            ("X0", 9),   # disable of an unknown rule
        ]

    def test_x0_explains_the_expected_form(self):
        findings = findings_of("x0_bad_suppressions.py")
        x0 = [finding for finding in findings if finding.rule == "X0"]
        assert any("justification" in finding.message for finding in x0)
        assert any("unknown rule" in finding.message for finding in x0)


class TestCleanFixture:
    def test_clean_code_produces_no_findings(self):
        assert findings_of("clean.py") == []


class TestFindingShape:
    def test_findings_carry_location_hint_and_source(self):
        finding = findings_of("m1_uncounted_checks.py")[0]
        assert finding.path.endswith("m1_uncounted_checks.py")
        assert finding.line == 5
        assert finding.column >= 1
        assert finding.hint  # the checker owes the author a way out
        assert finding.source == "return nogood.prohibits(view)"
        text = finding.format()
        assert f":{finding.line}:" in text and "fix:" in text
        assert "fix:" not in finding.format(show_hint=False)
