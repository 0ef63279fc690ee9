"""SARIF/JSON renderings and the exit-code contract across formats."""

import json
from pathlib import Path

from repro.cli import main as repro_main
from repro.lint import lint_file
from repro.lint.cli import main as lint_main
from repro.lint.output import SARIF_VERSION, to_json, to_sarif

FIXTURES = Path(__file__).parent / "fixtures"
DIRTY = str(FIXTURES / "m1_uncounted_checks.py")
CLEAN = str(FIXTURES / "clean_runtime.py")
NO_EXCLUDE = ["--exclude", "*__never__*"]


class TestSarif:
    def test_log_structure_and_rule_metadata(self):
        findings = lint_file(DIRTY)
        log = to_sarif(findings)
        assert log["version"] == SARIF_VERSION
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        (rule,) = run["tool"]["driver"]["rules"]
        assert rule["id"] == "M1"
        assert rule["defaultConfiguration"]["level"] == "error"
        assert rule["shortDescription"]["text"]

    def test_results_point_at_the_finding(self):
        findings = lint_file(DIRTY)
        log = to_sarif(findings)
        results = log["runs"][0]["results"]
        assert len(results) == len(findings)
        first = results[0]
        assert first["ruleId"] == "M1"
        location = first["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("m1_uncounted_checks.py")
        assert "\\" not in location["artifactLocation"]["uri"]
        assert location["region"]["startLine"] == findings[0].line
        assert (
            first["partialFingerprints"]["reproLintBaseline/v1"]
            == findings[0].fingerprint
        )

    def test_rule_index_is_consistent(self):
        findings = lint_file(DIRTY) + lint_file(
            str(FIXTURES / "a1_agent_transport.py")
        )
        log = to_sarif(findings)
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        for result in log["runs"][0]["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_empty_findings_is_still_a_valid_log(self):
        log = to_sarif([])
        assert log["runs"][0]["results"] == []
        assert log["runs"][0]["tool"]["driver"]["rules"] == []


class TestFingerprintStability:
    """Rename + line drift must not churn partialFingerprints.

    Code-scanning UIs key findings on the partial fingerprint to track
    them across pushes; a fingerprint that embeds line numbers or on-disk
    paths would resurrect every finding as 'new' after a refactor. The
    golden pair is the same dirty module before and after a file rename,
    an inserted helper, and the resulting line shift.
    """

    BEFORE = str(FIXTURES / "sarif_fp_before.py")
    AFTER = str(FIXTURES / "sarif_fp_after.py")

    def sarif_fingerprints(self, path):
        log = to_sarif(lint_file(path))
        return [
            result["partialFingerprints"]["reproLintBaseline/v1"]
            for result in log["runs"][0]["results"]
        ]

    def test_golden_pair_fingerprints_are_identical(self):
        assert (
            self.sarif_fingerprints(self.BEFORE)
            == self.sarif_fingerprints(self.AFTER)
        )

    def test_the_pair_really_moved(self):
        # Guard the guard: the findings sit on different lines in
        # different files, so the identity cannot come from location.
        before, after = lint_file(self.BEFORE), lint_file(self.AFTER)
        assert [f.line for f in before] != [f.line for f in after]
        assert before[0].path != after[0].path

    def test_fingerprints_anchor_on_scope_not_path(self):
        for finding in lint_file(self.BEFORE):
            assert "algorithms/fixture_sarif_fp.py" in finding.fingerprint
            assert "tests/lint" not in finding.fingerprint


class TestJson:
    def test_round_trips_every_field(self):
        findings = lint_file(DIRTY)
        payload = json.loads(to_json(findings))
        assert len(payload) == len(findings)
        assert payload[0]["rule"] == "M1"
        assert set(payload[0]) == {
            "path", "line", "column", "rule", "message", "hint", "source",
        }


class TestCliFormats:
    def test_exit_code_contract_is_format_independent(self, capsys):
        for fmt in ("text", "json", "sarif"):
            assert lint_main([CLEAN, "--format", fmt] + NO_EXCLUDE) == 0
            assert lint_main([DIRTY, "--format", fmt] + NO_EXCLUDE) == 1
            capsys.readouterr()

    def test_sarif_on_stdout_parses(self, capsys):
        lint_main([DIRTY, "--format", "sarif"] + NO_EXCLUDE)
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == SARIF_VERSION

    def test_output_flag_writes_the_file(self, tmp_path, capsys):
        target = tmp_path / "report.sarif"
        code = lint_main(
            [DIRTY, "--format", "sarif", "--output", str(target)]
            + NO_EXCLUDE
        )
        assert code == 1
        assert capsys.readouterr().out == ""
        log = json.loads(target.read_text())
        assert log["runs"][0]["results"]

    def test_repro_subcommand_forwards_format_and_output(self, tmp_path):
        target = tmp_path / "report.json"
        code = repro_main(
            ["lint", DIRTY, "--format", "json", "--output", str(target),
             "--exclude", "*__never__*"]
        )
        assert code == 1
        assert json.loads(target.read_text())
