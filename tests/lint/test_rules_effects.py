"""The interleaving rule R1 against its fixture.

Golden pattern as in ``test_rules.py``: dirty lines pinned exactly, clean
counterexamples asserted silent.
"""

from pathlib import Path

from repro.lint import lint_file

FIXTURES = Path(__file__).parent / "fixtures"


def findings_of(name):
    return lint_file(str(FIXTURES / name))


def located(findings):
    return sorted((finding.rule, finding.line) for finding in findings)


class TestEffectRules:
    def test_flags_every_interleaving_hazard(self):
        findings = findings_of("r_effect_rules.py")
        assert located(findings) == [
            ("R1", 13),  # view internals: agent_view._entries
            ("R1", 15),  # item-assign into the view
        ]

    def test_clean_counterexamples_stay_silent(self):
        lines = [f.line for f in findings_of("r_effect_rules.py")]
        # absorb() uses the counter-guarded API / non-view containers.
        for clean_line in (20, 22):
            assert clean_line not in lines

    def test_messages_explain_the_hazard(self):
        (first, _second) = findings_of("r_effect_rules.py")
        assert "agent_view._entries" in first.message

    def test_rules_scope_to_algorithms(self):
        from repro.lint.catalogue import rule_by_id

        rule = rule_by_id("R1")
        assert rule.applies("algorithms/awc.py")
        assert not rule.applies("runtime/engine.py")
        assert not rule.applies(None)
