"""``--gate``: a requested gate never silently skips.

Missing, corrupt, or wrong-shape baselines are configuration errors — one
FATAL line, exit code 1, no traceback. A readable baseline applies the 20%
floor to the verifier's schedules/sec.
"""

import json

from repro.experiments.bench import check_gate


def verify_baseline(tmp_path, schedules_per_second):
    path = tmp_path / "BENCH_verify.json"
    path.write_text(
        json.dumps({"verify": {"schedules_per_second": schedules_per_second}})
    )
    return str(path)


class TestUnreadableBaselines:
    def test_missing_file_is_fatal(self, tmp_path, capsys):
        assert check_gate(str(tmp_path / "absent.json"), 1000.0) == 1
        out = capsys.readouterr().out
        assert out.startswith("FATAL: gate baseline")
        assert "does not exist" in out
        assert len(out.strip().splitlines()) == 1

    def test_corrupt_json_is_fatal(self, tmp_path, capsys):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        assert check_gate(str(path), 1000.0) == 1
        out = capsys.readouterr().out
        assert "is unreadable" in out
        assert len(out.strip().splitlines()) == 1

    def test_wrong_shape_names_the_missing_metric(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"benchmark": "something_else"}))
        assert check_gate(str(path), 1000.0) == 1
        out = capsys.readouterr().out
        assert "has no verify.schedules_per_second metric" in out

    def test_non_mapping_json_is_a_shape_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        assert check_gate(str(path), 1000.0) == 1
        assert "has no" in capsys.readouterr().out


class TestFloor:
    def test_within_tolerance_passes(self, tmp_path, capsys):
        baseline = verify_baseline(tmp_path, 1000.0)
        assert check_gate(baseline, 900.0) == 0
        out = capsys.readouterr().out
        assert "gate: measured" in out
        assert "floor" in out

    def test_regression_beyond_tolerance_fails(self, tmp_path, capsys):
        baseline = verify_baseline(tmp_path, 1000.0)
        assert check_gate(baseline, 700.0) == 1
        assert "regressed more than 20%" in capsys.readouterr().out

    def test_verify_axis_reads_its_own_metric(self, tmp_path, capsys):
        baseline = verify_baseline(tmp_path, 500.0)
        assert check_gate(baseline, 450.0) == 0
        assert "verify schedules/sec" in capsys.readouterr().out
        assert check_gate(baseline, 100.0) == 1

    def test_committed_verify_baseline_has_the_gated_metric(self):
        payload = json.loads(open("BENCH_verify.json").read())
        assert float(payload["verify"]["schedules_per_second"]) > 0
        assert payload["verify"]["violations"] == []
        assert payload["verify"]["prune_ratio"] >= 10.0
