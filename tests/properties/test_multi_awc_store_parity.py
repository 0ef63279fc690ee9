"""Dict-versus-linear store parity on multi-variable AWC trials.

The registry's ``multi_awc`` spec routes the multi-variable workload
through the same harness seams as single-variable AWC — including the
store rebind. These trials pin the store contract end-to-end on re-owned
coloring instances: the linear oracle follows the dict store's trajectory
while counting at least as much.
"""

import pytest

from repro.algorithms.registry import multi_awc
from repro.core.problem import DisCSP
from repro.experiments.runner import run_trial
from repro.problems.coloring import random_coloring_instance

from ..conftest import with_linear_store


def multi_problem(seed, num_agents=4):
    """A 12-node coloring instance re-owned onto a few agents."""
    csp = random_coloring_instance(12, seed=seed).to_csp()
    owner = {variable: variable % num_agents for variable in csp.variables}
    return DisCSP.from_csp(csp, owner)


def assert_same_trajectory_counting_more(linear, baseline):
    assert linear.solved == baseline.solved
    assert linear.cycles == baseline.cycles
    assert linear.assignment == baseline.assignment
    assert linear.total_checks >= baseline.total_checks
    assert linear.maxcck >= baseline.maxcck


@pytest.mark.parametrize("seed", (0, 1))
def test_linear_matches_trajectory_but_counts_more(seed):
    problem = multi_problem(seed=3)
    baseline = run_trial(problem, multi_awc("Rslv"), seed=seed)
    linear = run_trial(problem, with_linear_store(multi_awc("Rslv")), seed=seed)
    assert_same_trajectory_counting_more(linear, baseline)


def test_parity_holds_without_learning():
    problem = multi_problem(seed=5, num_agents=3)
    baseline = run_trial(problem, multi_awc("No"), seed=0)
    linear = run_trial(problem, with_linear_store(multi_awc("No")), seed=0)
    assert_same_trajectory_counting_more(linear, baseline)
