"""The whole-program rules (P2/A1) against their fixtures.

Same golden pattern as ``test_rules.py``: each dirty fixture pins exact
(rule, line) pairs, and each fixture carries clean counterexamples that
must stay silent — the escape analyses are judged as much by what
they ignore as by what they flag.
"""

from pathlib import Path

from repro.lint import lint_file

FIXTURES = Path(__file__).parent / "fixtures"


def findings_of(name):
    return lint_file(str(FIXTURES / name))


def located(findings):
    return sorted((finding.rule, finding.line) for finding in findings)


class TestP2MutationAfterSend:
    def test_flags_shallow_freeze_and_escaped_mutations(self):
        findings = findings_of("p2_mutation_after_send.py")
        assert located(findings) == [
            ("P2", 10),  # Dict field on a frozen dataclass
            ("P2", 21),  # append after send (straight line)
            ("P2", 28),  # append after send inside the same loop
        ]

    def test_rebinds_and_pre_send_mutations_pass(self):
        lines = [f.line for f in findings_of("p2_mutation_after_send.py")]
        for clean_line in (15, 35, 40):
            assert clean_line not in lines

    def test_messages_point_back_at_the_send(self):
        by_line = {f.line: f for f in findings_of("p2_mutation_after_send.py")}
        assert "line 20" in by_line[21].message
        assert "Tuple" in by_line[10].hint


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
