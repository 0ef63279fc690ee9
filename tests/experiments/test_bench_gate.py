"""``--gate``: a requested gate never silently skips.

Missing, corrupt, or wrong-shape baselines are configuration errors — one
FATAL line, exit code 1, no traceback. A readable baseline applies the 20%
floor to the verifier's schedules/sec.
"""

import json

from repro.experiments import bench
from repro.experiments.bench import check_gate
from repro.verify import explorer


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


class TestDefaultGate:
    def test_run_is_gated_against_the_committed_baseline_not_itself(
        self, tmp_path, monkeypatch, capsys
    ):
        # `repro bench --gate` writes its report over the baseline it
        # gates on; the baseline must be read before it is overwritten.
        committed = tmp_path / bench.COMMITTED
        committed.write_text(
            json.dumps({"verify": {"schedules_per_second": 1e9}})
        )
        entry = explorer.EntryReport(
            name="stub", algorithm="AWC+Rslv", explored=10, naive=200,
            naive_counted=True, seconds=1.0,
        )
        monkeypatch.setattr(bench, "_repo_root", lambda: tmp_path)
        monkeypatch.setattr(
            explorer,
            "explore_corpus",
            lambda: explorer.ExplorationReport(entries=[entry]),
        )
        assert bench.main(["--gate"]) == 1
        assert "regressed more than 20%" in capsys.readouterr().out
        written = json.loads(committed.read_text())
        assert written["verify"]["schedules_per_second"] == 210.0
