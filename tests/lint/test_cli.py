"""The command-line surface: exit codes, formats, and the repro subcommand."""

import json
from pathlib import Path

from repro.cli import main as repro_main
from repro.lint.cli import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures"
CLEAN = str(FIXTURES / "clean.py")
DIRTY = str(FIXTURES / "m1_uncounted_checks.py")
#: Reach files under fixtures/ past the default exclude.
NO_EXCLUDE = ["--exclude", "*__never__*"]


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert lint_main([CLEAN] + NO_EXCLUDE) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, capsys):
        assert lint_main([DIRTY] + NO_EXCLUDE) == 1
        out = capsys.readouterr().out
        assert "M1" in out and ":5:" in out

    def test_default_excludes_skip_fixture_violations(self, capsys):
        assert lint_main([str(FIXTURES)]) == 0


class TestOutput:
    def test_json_format_is_parseable(self, capsys):
        assert lint_main([DIRTY, "--format", "json"] + NO_EXCLUDE) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {entry["rule"] for entry in payload} == {"M1"}
        assert {entry["line"] for entry in payload} == {5, 9}
        assert all(entry["hint"] for entry in payload)

    def test_no_hints_flag(self, capsys):
        lint_main([DIRTY, "--no-hints"] + NO_EXCLUDE)
        assert "fix:" not in capsys.readouterr().out

    def test_list_rules_prints_the_catalogue(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        from repro.lint.catalogue import KNOWN_RULE_IDS

        for rule_id in sorted(KNOWN_RULE_IDS) + ["X0"]:
            assert rule_id in out


class TestBaselineFlags:
    def test_write_then_check_with_baseline(self, tmp_path, capsys):
        baseline = str(tmp_path / "repro-lint.baseline")
        assert (
            lint_main(
                [DIRTY, "--write-baseline", "--baseline", baseline]
                + NO_EXCLUDE
            )
            == 0
        )
        capsys.readouterr()
        assert lint_main([DIRTY, "--baseline", baseline] + NO_EXCLUDE) == 0

    def test_baseline_file_documents_itself(self, tmp_path):
        baseline = str(tmp_path / "repro-lint.baseline")
        lint_main(
            [DIRTY, "--write-baseline", "--baseline", baseline] + NO_EXCLUDE
        )
        text = Path(baseline).read_text()
        assert text.startswith("#")
        assert "M1\t" in text


class TestBaselineShrink:
    def test_holds_when_tree_matches_baseline(self, tmp_path, capsys):
        baseline = str(tmp_path / "repro-lint.baseline")
        lint_main(
            [DIRTY, "--write-baseline", "--baseline", baseline] + NO_EXCLUDE
        )
        capsys.readouterr()
        assert (
            lint_main(
                [DIRTY, "--check-baseline-shrink", "--baseline", baseline]
                + NO_EXCLUDE
            )
            == 0
        )
        assert "baseline holds" in capsys.readouterr().out

    def test_fails_on_growth(self, tmp_path, capsys):
        baseline = str(tmp_path / "repro-lint.baseline")
        Path(baseline).write_text("# empty on purpose\n")
        assert (
            lint_main(
                [DIRTY, "--check-baseline-shrink", "--baseline", baseline]
                + NO_EXCLUDE
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "NEW" in out and "only shrinks" in out

    def test_stale_entries_reported_but_pass(self, tmp_path, capsys):
        baseline = str(tmp_path / "repro-lint.baseline")
        lint_main(
            [DIRTY, "--write-baseline", "--baseline", baseline] + NO_EXCLUDE
        )
        capsys.readouterr()
        # The clean fixture has none of the baselined findings, so every
        # baseline entry is stale — still exit 0, shrinking is allowed.
        assert (
            lint_main(
                [CLEAN, "--check-baseline-shrink", "--baseline", baseline]
                + NO_EXCLUDE
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "STALE" in out and "can be removed" in out

    def test_committed_baseline_holds_for_the_shipped_tree(self, capsys):
        assert lint_main(["src/", "--check-baseline-shrink"]) == 0
        assert "baseline holds" in capsys.readouterr().out


class TestExplain:
    def test_known_rule_prints_catalogue_entry(self, capsys):
        assert lint_main(["--explain", "M1"]) == 0
        out = capsys.readouterr().out
        assert "M1" in out and "counted" in out.lower()
        assert "Why:" in out and "Bad:" in out and "Good:" in out

    def test_every_rule_id_has_an_explanation(self, capsys):
        from repro.lint.catalogue import ALL_RULES

        for rule in ALL_RULES:
            assert lint_main(["--explain", rule.id]) == 0, rule.id
        assert lint_main(["--explain", "X0"]) == 0
        capsys.readouterr()

    def test_unknown_rule_is_a_usage_error(self, capsys):
        assert lint_main(["--explain", "Z9"]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestReproSubcommand:
    def test_repro_lint_clean(self, capsys):
        assert repro_main(["lint", CLEAN, "--exclude", "*__never__*"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_repro_lint_findings(self, capsys):
        assert repro_main(["lint", DIRTY, "--exclude", "*__never__*"]) == 1

    def test_repro_lint_list_rules(self, capsys):
        assert repro_main(["lint", "--list-rules"]) == 0
        assert "M1" in capsys.readouterr().out
