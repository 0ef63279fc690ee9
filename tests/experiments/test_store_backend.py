"""The store seam: swapping in the linear oracle must not change the search.

:class:`~repro.core.store.LinearNogoodStore` drops the per-value index, so
it runs every violation test the index skips. Counting never steers
control flow, so a trial rebound to the linear store must follow the dict
store's trajectory exactly — same solved flag, cycles and assignment —
while counting at least as many checks.
"""

import pytest

from repro.algorithms.registry import awc, db
from repro.experiments.paper import instances_for
from repro.experiments.runner import run_cell, run_trial
from repro.problems.coloring import random_coloring_instance

from ..conftest import with_linear_store


@pytest.fixture(scope="module")
def coloring():
    return random_coloring_instance(12, seed=3).to_discsp()


@pytest.fixture(scope="module")
def sat():
    return instances_for("d3s", 10, 1, seed=3)[0]


def assert_same_trajectory_counting_more(linear, baseline):
    # Same search: the counting never steers control flow.
    assert linear.solved == baseline.solved
    assert linear.cycles == baseline.cycles
    assert linear.assignment == baseline.assignment
    assert linear.messages_sent == baseline.messages_sent
    # The naive scan runs every test the dict index skips.
    assert linear.total_checks >= baseline.total_checks
    assert linear.maxcck >= baseline.maxcck


class TestTrialParity:
    def test_linear_matches_trajectory_but_counts_more(self, coloring):
        baseline = run_trial(coloring, awc("Rslv"), seed=0)
        linear = run_trial(coloring, with_linear_store(awc("Rslv")), seed=0)
        assert_same_trajectory_counting_more(linear, baseline)

    def test_linear_matches_trajectory_on_sat(self, sat):
        baseline = run_trial(sat, awc("Rslv"), seed=1)
        linear = run_trial(sat, with_linear_store(awc("Rslv")), seed=1)
        assert_same_trajectory_counting_more(linear, baseline)

    def test_linear_matches_trajectory_for_mcs(self, coloring):
        baseline = run_trial(coloring, awc("Mcs"), seed=0)
        linear = run_trial(coloring, with_linear_store(awc("Mcs")), seed=0)
        assert_same_trajectory_counting_more(linear, baseline)

    def test_linear_matches_trajectory_for_mcs_on_sat(self, sat):
        baseline = run_trial(sat, awc("Mcs"), seed=1)
        linear = run_trial(sat, with_linear_store(awc("Mcs")), seed=1)
        assert_same_trajectory_counting_more(linear, baseline)

    def test_mcs_on_linear_finds_no_false_unsolvability(self):
        # Mcs's conflict-set test once skipped the owner's pair; on the
        # linear store, whose for_value returns nogoods binding the owner
        # to any value, every subset then passed as a conflict set and
        # this solvable instance was reported unsolvable after 7 cycles.
        problem = random_coloring_instance(12, seed=0).to_discsp()
        linear = run_trial(problem, with_linear_store(awc("Mcs")), seed=0)
        assert linear.solved
        assert not linear.unsolvable
        assert linear.cycles == run_trial(problem, awc("Mcs"), seed=0).cycles

    def test_linear_matches_trajectory_for_db(self, coloring):
        baseline = run_trial(coloring, db(), seed=2)
        linear = run_trial(coloring, with_linear_store(db()), seed=2)
        assert_same_trajectory_counting_more(linear, baseline)


class TestCellParity:
    def test_linear_cell_matches_trajectory(self, coloring):
        other = random_coloring_instance(12, seed=4).to_discsp()
        cells = [
            run_cell(
                [coloring, other],
                spec,
                inits_per_instance=2,
                master_seed=7,
                n=12,
            )
            for spec in (awc("Rslv"), with_linear_store(awc("Rslv")))
        ]
        baseline, linear = cells
        assert len(linear.trials) == len(baseline.trials) == 4
        for linear_trial, baseline_trial in zip(linear.trials, baseline.trials):
            assert_same_trajectory_counting_more(linear_trial, baseline_trial)
