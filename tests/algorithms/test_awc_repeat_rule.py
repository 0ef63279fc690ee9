"""The completeness rule's interaction with recording policies.

AWC's "same nogood as previously generated → do nothing" rule is only sound
when the announced nogood is recorded somewhere: the recorded copy is what
eventually forces another agent to move. When the recording policy drops
the nogood (size bounds, norec), doing nothing can freeze the whole system
— a regression observed on unique-solution 3SAT with 4thRslv. These tests
pin the fix: dropped nogoods always break the deadend via the priority
raise instead.
"""

import pytest

from repro.algorithms.registry import awc
from repro.experiments.runner import run_cell
from repro.problems.sat.generators import unique_solution_3sat
from repro.problems.sat.to_discsp import sat_to_discsp


@pytest.fixture(scope="module")
def onesat_problems():
    return [
        sat_to_discsp(unique_solution_3sat(25, seed=s).formula)
        for s in range(3)
    ]


class TestNoFreezeWithDroppedNogoods:
    @pytest.mark.parametrize("label", ["2ndRslv", "3rdRslv", "4thRslv"])
    def test_size_bounded_never_quiesces_unsolved(
        self, onesat_problems, label
    ):
        cell = run_cell(
            onesat_problems, awc(label), 5, master_seed=7, n=25,
            max_cycles=10_000,
        )
        frozen = [t for t in cell.trials if t.quiescent and not t.solved]
        assert frozen == []
        assert cell.percent_solved == 100.0

    def test_norec_never_quiesces_unsolved(self, onesat_problems):
        cell = run_cell(
            onesat_problems, awc("Rslv/norec"), 5, master_seed=7, n=25,
            max_cycles=10_000,
        )
        frozen = [t for t in cell.trials if t.quiescent and not t.solved]
        assert frozen == []

    def test_full_recording_repeat_rule_still_terminates(
        self, onesat_problems
    ):
        # With full recording the rule applies and runs still finish.
        cell = run_cell(
            onesat_problems, awc("Rslv"), 5, master_seed=7, n=25,
            max_cycles=10_000,
        )
        assert cell.percent_solved == 100.0
