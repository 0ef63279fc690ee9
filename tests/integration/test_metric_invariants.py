"""Cross-algorithm metric invariants.

Whatever the algorithm, the paper's measures obey arithmetic identities:
maxcck is the sum of per-cycle maxima, so it can never exceed the total
check count nor be negative, and with history enabled the retained maxima
must sum to it exactly. Pinning these for every algorithm guards the
accounting layer against drift when algorithms evolve.
"""

import pytest

from repro.algorithms.registry import algorithm_by_name
from repro.experiments.runner import random_initial_assignment
from repro.problems.coloring import random_coloring_instance
from repro.runtime.metrics import MetricsCollector
from repro.runtime.simulator import SynchronousSimulator

ALGORITHMS = ["AWC+Rslv", "AWC+Mcs", "AWC+No", "AWC+3rdRslv", "DB", "ABT"]


def run_with_history(problem, label, seed=3):
    metrics = MetricsCollector(keep_history=True)
    spec = algorithm_by_name(label)
    agents = spec.build(
        problem, metrics, seed, random_initial_assignment(problem, seed)
    )
    simulator = SynchronousSimulator(
        problem, agents, metrics=metrics, max_cycles=8000
    )
    result = simulator.run()
    return result, metrics, agents


@pytest.fixture(scope="module")
def problem():
    return random_coloring_instance(14, seed=5).to_discsp()


@pytest.mark.parametrize("label", ALGORITHMS)
class TestInvariants:
    def test_history_sums_to_maxcck(self, problem, label):
        result, _metrics, _agents = run_with_history(problem, label)
        assert sum(result.max_history) == result.maxcck
        assert len(result.max_history) == result.cycles

    def test_maxcck_bounded_by_total(self, problem, label):
        result, _metrics, _agents = run_with_history(problem, label)
        assert 0 <= result.maxcck <= result.total_checks

    def test_total_checks_equals_agent_counters(self, problem, label):
        result, _metrics, agents = run_with_history(problem, label)
        agent_total = sum(agent.check_counter.total for agent in agents)
        assert result.total_checks == agent_total

    def test_message_conservation(self, problem, label):
        result, _metrics, _agents = run_with_history(problem, label)
        assert result.messages_sent >= 0
        # Every trial here should actually solve; capped/quiescent runs
        # would make the remaining assertions vacuous.
        assert result.solved
        assert problem.is_solution(result.assignment)

    def test_generation_counts_consistent(self, problem, label):
        result, _metrics, _agents = run_with_history(problem, label)
        assert 0 <= result.redundant_generations <= result.generated_nogoods
