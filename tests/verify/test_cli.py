"""``repro verify``: both modes of the verifier CLI."""

import json

from repro.verify.cli import main


class TestMatrixMode:
    def test_prints_footprints_and_matrix(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "AwcAgent:" in out
        assert "CONFLICT" in out
        assert "commute" in out


class TestExploreMode:
    def test_unknown_entry_is_fatal(self, capsys):
        assert main(["--explore", "--only", "nope"]) == 2
        assert "FATAL" in capsys.readouterr().err

    def test_explore_writes_report_and_exits_clean(self, tmp_path, capsys):
        output = tmp_path / "report.json"
        code = main(
            [
                "--explore",
                "--only",
                "multi-awc-n5",
                "--no-naive",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "multi-awc-n5" in out
        assert "0 violation(s)" in out
        payload = json.loads(output.read_text())
        [entry] = payload["entries"]
        assert entry["name"] == "multi-awc-n5"
        assert entry["explored"] > 0
        assert not entry["violations"]

    def test_json_format_prints_the_report(self, capsys):
        code = main(
            [
                "--explore",
                "--only",
                "multi-awc-n5",
                "--no-naive",
                "--budget",
                "3",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"][0]["explored_capped"] is True

    def test_no_naive_reports_no_prune_ratio(self, capsys):
        # Without a naive count the ratio was never measured: JSON says
        # null and the text report n/a, not a ratio of 1.
        argv = ["--explore", "--only", "multi-awc-n5", "--no-naive",
                "--budget", "3"]
        assert main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prune_ratio"] is None
        assert payload["entries"][0]["prune_ratio"] is None
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "prune=n/a" in out
        assert "prune ratio n/a" in out
