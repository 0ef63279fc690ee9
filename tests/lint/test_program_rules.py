"""The whole-program rule A1 against its fixture.

Same golden pattern as ``test_rules.py``: the dirty fixture pins exact
(rule, line) pairs and carries clean counterexamples that must stay
silent.
"""

from pathlib import Path

from repro.lint import lint_file

FIXTURES = Path(__file__).parent / "fixtures"


def findings_of(name):
    return lint_file(str(FIXTURES / name))


def located(findings):
    return sorted((finding.rule, finding.line) for finding in findings)


class TestA1AgentTransport:
    def test_flags_transport_references_in_agent_methods(self):
        findings = findings_of("a1_agent_transport.py")
        assert located(findings) == [
            ("A1", 11),  # self.transport attribute
            ("A1", 13),  # mailbox parameter
            ("A1", 14),  # mailbox read
        ]

    def test_non_agent_classes_are_exempt(self):
        lines = [f.line for f in findings_of("a1_agent_transport.py")]
        assert 23 not in lines  # NotAnAgent.pump(transport)

    def test_message_names_class_and_method(self):
        by_line = {f.line: f for f in findings_of("a1_agent_transport.py")}
        assert "LeakyAgent.step" in by_line[11].message
        assert "Outgoing" in by_line[11].hint


class TestCleanFixtures:
    def test_runtime_scoped_clean_fixture_is_clean(self):
        assert findings_of("clean_runtime.py") == []

    def test_algorithm_scoped_clean_fixture_is_clean(self):
        assert findings_of("clean.py") == []
