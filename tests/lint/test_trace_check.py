"""Trace cross-validation: --check-trace on real and corrupted traces."""

import json
from pathlib import Path

from repro.algorithms.registry import algorithm_by_name
from repro.experiments.runner import random_initial_assignment
from repro.lint.cli import main as lint_main
from repro.lint.trace_check import check_trace_file, check_trace_records
from repro.problems.coloring import random_coloring_instance
from repro.runtime.metrics import MetricsCollector
from repro.runtime.simulator import SynchronousSimulator
from repro.runtime.trace import TraceRecorder

TRACES = Path(__file__).parent / "fixtures" / "traces"


def record_run(tmp_path, seed=6):
    """Run a small traced trial and write its trace to disk."""
    problem = random_coloring_instance(12, seed=8).to_discsp()
    metrics = MetricsCollector()
    agents = algorithm_by_name("AWC+Rslv").build(
        problem, metrics, seed, random_initial_assignment(problem, seed)
    )
    tracer = TraceRecorder()
    result = SynchronousSimulator(
        problem, agents, metrics=metrics, tracer=tracer
    ).run()
    path = tmp_path / "trace.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for record in tracer.to_jsonl_records():
            handle.write(json.dumps(record) + "\n")
    return path, result


class TestRoundTrip:
    def test_fresh_trace_validates(self, tmp_path):
        path, result = record_run(tmp_path)
        assert result.solved
        assert check_trace_file(str(path)) == []

    def test_corrupting_the_fresh_trace_fails(self, tmp_path):
        path, _result = record_run(tmp_path)
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        # Push a mid-trace message back to cycle 0: clock regression.
        victim = next(
            record
            for record in records
            if record["event"] == "message" and record["cycle"] >= 2
        )
        victim["cycle"] = 0
        corrupted = tmp_path / "corrupted.jsonl"
        corrupted.write_text(
            "\n".join(json.dumps(record) for record in records) + "\n"
        )
        violations = check_trace_file(str(corrupted))
        assert any("clock went backwards" in v for v in violations)

    def test_cli_exit_codes(self, tmp_path, capsys):
        path, _result = record_run(tmp_path)
        assert lint_main(["--check-trace", str(path)]) == 0
        assert "upholds every recorded invariant" in capsys.readouterr().out
        bad = TRACES / "bad_clock.jsonl"
        assert lint_main(["--check-trace", str(bad)]) == 1
        assert "clock went backwards" in capsys.readouterr().out


class TestCorruptedFixtures:
    def test_valid_small_trace_is_clean(self):
        assert check_trace_file(str(TRACES / "valid_small.jsonl")) == []

    def test_clock_regression(self):
        violations = check_trace_file(str(TRACES / "bad_clock.jsonl"))
        assert len(violations) == 1
        assert "clock went backwards" in violations[0]

    def test_truncated_trace_has_no_summary(self):
        violations = check_trace_file(str(TRACES / "missing_summary.jsonl"))
        assert any("no summary record" in v for v in violations)

    def test_summary_count_mismatch(self):
        violations = check_trace_file(str(TRACES / "bad_counts.jsonl"))
        assert any("counts must conserve" in v for v in violations)

    def test_broken_value_chain(self):
        violations = check_trace_file(str(TRACES / "bad_chain.jsonl"))
        assert any("value chain broken" in v for v in violations)


class TestRecordChecks:
    def test_empty_trace_is_a_violation(self):
        assert check_trace_records([]) == [
            "trace is empty — a recorded run always has a summary"
        ]

    def test_unknown_event_type(self):
        violations = check_trace_records(
            [(1, {"event": "teleport", "cycle": 0})]
        )
        assert "unknown event type" in violations[0]

    def test_delivery_records_are_unknown(self):
        # The simulator records sends only; a delivery record comes from
        # some other producer and is rejected rather than skipped.
        violations = check_trace_records(
            [(1, {"event": "delivery", "cycle": 1, "sender": 1,
                  "recipient": 2})]
        )
        assert "unknown event type 'delivery'" in violations[0]

    def test_unreadable_file(self, tmp_path):
        violations = check_trace_file(str(tmp_path / "absent.jsonl"))
        assert violations and "cannot read trace" in violations[0]

    def test_malformed_json_line(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text('{"event": "summary", "messages": 0}\nnot json\n')
        violations = check_trace_file(str(path))
        assert any("not valid JSON" in v for v in violations)

    def test_sync_backend_trace_remains_valid(self):
        records = [
            (1, {"event": "message", "cycle": 0, "sender": 1, "recipient": 2}),
            (2, {"event": "summary", "messages": 1, "value_changes": 0,
                 "dropped": 0}),
        ]
        assert check_trace_records(records) == []
