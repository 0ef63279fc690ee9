"""``check_run`` on fabricated run results: each per-schedule invariant."""

from repro.runtime.simulator import RunResult
from repro.verify.corpus import corpus_by_name
from repro.verify.invariants import check_run


def run_result(**fields):
    """An unfinished 7-cycle run on an empty assignment, plus *fields*."""
    values = dict(
        solved=False,
        unsolvable=False,
        capped=False,
        quiescent=False,
        cycles=7,
        maxcck=0,
        total_checks=0,
        messages_sent=0,
        generated_nogoods=0,
        redundant_generations=0,
    )
    values.update(fields)
    return RunResult(**values)


def check(result):
    [entry] = corpus_by_name(["multi-awc-n5"])
    problem, agents = entry.build()
    return check_run(problem, agents, result, deliveries=())


class TestQuiescentFailure:
    def test_quiescent_unsolved_run_is_a_violation(self):
        violations = check(run_result(quiescent=True))
        assert len(violations) == 1
        assert violations[0].startswith("quiescent and unsolved")
        assert "after 7 cycles" in violations[0]

    def test_quiescent_unsolvable_verdict_is_not_a_violation(self):
        assert check(run_result(quiescent=True, unsolvable=True)) == []

    def test_capped_run_is_not_a_violation(self):
        assert check(run_result(capped=True)) == []


class TestDetectorAgreement:
    def test_solved_claim_on_a_non_solution_is_a_violation(self):
        violations = check(run_result(solved=True))
        assert len(violations) == 1
        assert violations[0].startswith("detector disagreement")
