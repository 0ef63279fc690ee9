"""AWC: unit behaviour and end-to-end solving with every learning method."""

import pytest

from repro.algorithms.awc import AwcAgent, build_awc_agents
from repro.algorithms.registry import awc
from repro.core import DisCSP, Nogood, UnsolvableError, integer_domain
from repro.experiments.runner import run_trial
from repro.learning import learning_method
from repro.problems.coloring import coloring_discsp, random_coloring_instance
from repro.runtime.messages import (
    NogoodMessage,
    OkMessage,
    RequestValueMessage,
)
from repro.runtime.metrics import MetricsCollector
from repro.runtime.random_source import derive_rng

from ..conftest import clique_graph, cycle_graph, triangle_graph


def make_agent(problem, agent_id, learning="Rslv", initial=None):
    return AwcAgent(
        agent_id,
        problem,
        learning_method(learning),
        MetricsCollector(),
        derive_rng(0, "test-agent", agent_id),
        initial_value=initial,
    )


def pair_problem():
    """x0, x1 over {0,1}; (0,0) forbidden."""
    return DisCSP.one_variable_per_agent(
        {0: integer_domain(2), 1: integer_domain(2)},
        [Nogood.of((0, 0), (1, 0))],
    )


class TestInitialization:
    def test_announces_initial_value_to_neighbors(self):
        agent = make_agent(pair_problem(), 0, initial=1)
        outgoing = agent.initialize()
        assert outgoing == [(1, OkMessage(0, 0, 1, 0))]
        assert agent.value == 1
        assert agent.priority == 0

    def test_unconstrained_agent_sends_nothing(self):
        problem = DisCSP.one_variable_per_agent(
            {0: integer_domain(2), 1: integer_domain(2), 2: integer_domain(2)},
            [Nogood.of((0, 0), (1, 0))],
        )
        agent = make_agent(problem, 2, initial=0)
        assert agent.initialize() == []


class TestOkHandling:
    def test_consistent_agent_stays_quiet(self):
        agent = make_agent(pair_problem(), 1, initial=1)
        agent.initialize()
        assert agent.step([OkMessage(0, 0, 0, 0)]) == []

    def test_inconsistent_agent_repairs_and_announces(self):
        # x1 (lower than x0 at equal priority) must move off the conflict.
        agent = make_agent(pair_problem(), 1, initial=0)
        agent.initialize()
        outgoing = agent.step([OkMessage(0, 0, 0, 0)])
        assert agent.value == 1
        assert (0, OkMessage(1, 1, 1, 0)) in outgoing

    def test_higher_agent_ignores_lower_conflict(self):
        # x0 outranks x1 at equal priority, so the shared nogood is *lower*
        # for x0 and it does not move.
        agent = make_agent(pair_problem(), 0, initial=0)
        agent.initialize()
        assert agent.step([OkMessage(1, 1, 0, 0)]) == []
        assert agent.value == 0

    def test_duplicate_ok_changes_nothing(self):
        agent = make_agent(pair_problem(), 1, initial=1)
        agent.initialize()
        agent.step([OkMessage(0, 0, 0, 0)])
        assert agent.step([OkMessage(0, 0, 0, 0)]) == []


class TestDeadend:
    def deadend_agent(self):
        """Agent 2 of a 2-colored triangle, squeezed by both neighbors."""
        problem = coloring_discsp(triangle_graph(), 2)
        agent = make_agent(problem, 2, initial=0)
        agent.initialize()
        return agent

    def test_backtrack_raises_priority_and_announces(self):
        agent = self.deadend_agent()
        outgoing = agent.step(
            [OkMessage(0, 0, 0, 0), OkMessage(1, 1, 1, 0)]
        )
        assert agent.priority == 1
        nogood_messages = [
            m for _r, m in outgoing if isinstance(m, NogoodMessage)
        ]
        assert nogood_messages
        assert nogood_messages[0].nogood == Nogood.of((0, 0), (1, 1))
        ok_messages = [m for _r, m in outgoing if isinstance(m, OkMessage)]
        assert all(m.priority == 1 for m in ok_messages)

    def test_nogood_sent_to_every_member(self):
        agent = self.deadend_agent()
        outgoing = agent.step(
            [OkMessage(0, 0, 0, 0), OkMessage(1, 1, 1, 0)]
        )
        recipients = {
            r for r, m in outgoing if isinstance(m, NogoodMessage)
        }
        assert recipients == {0, 1}

    def test_same_nogood_twice_does_nothing(self):
        # The paper's completeness rule: an identical regenerated nogood
        # triggers no action at all.
        agent = self.deadend_agent()
        agent.step([OkMessage(0, 0, 0, 0), OkMessage(1, 1, 1, 0)])
        priority_after_first = agent.priority
        # Force the same deadend again: neighbours reassert their values at
        # priorities above ours.
        outgoing = agent.step(
            [OkMessage(0, 0, 0, 5), OkMessage(1, 1, 1, 5)]
        )
        assert [m for _r, m in outgoing if isinstance(m, NogoodMessage)] == []
        assert agent.priority == priority_after_first

    def test_empty_nogood_flags_unsolvable(self):
        problem = DisCSP.one_variable_per_agent(
            {0: integer_domain(2), 1: integer_domain(2)},
            [
                Nogood.of((0, 0)),
                Nogood.of((0, 1)),
                Nogood.of((0, 0), (1, 0)),
            ],
        )
        agent = make_agent(problem, 0, initial=0)
        agent.initialize()
        agent.step([OkMessage(1, 1, 0, 0)])
        assert isinstance(agent.failure, UnsolvableError)


class TestNogoodReception:
    def test_records_and_requests_unknown_variables(self):
        problem = coloring_discsp(cycle_graph(4), 3)  # 0-1-2-3-0
        agent = make_agent(problem, 0, initial=0)
        agent.initialize()
        # A nogood mentioning x2, which agent 0 is not linked to.
        nogood = Nogood.of((0, 0), (2, 1))
        outgoing = agent.step([NogoodMessage(1, nogood)])
        assert nogood in agent.store
        requests = [
            (r, m) for r, m in outgoing if isinstance(m, RequestValueMessage)
        ]
        assert requests == [(2, RequestValueMessage(0, 2))]

    def test_sender_added_to_recipients(self):
        problem = coloring_discsp(cycle_graph(6), 3)
        agent = make_agent(problem, 0, initial=0)
        agent.initialize()
        # Agent 3 is not an initial neighbor of 0 on the 6-cycle.
        assert 3 not in agent.recipients
        agent.step([NogoodMessage(3, Nogood.of((0, 0), (3, 1)))])
        assert 3 in agent.recipients

    def test_size_bounded_recording_drops_large_nogoods(self):
        problem = coloring_discsp(cycle_graph(4), 3)
        agent = make_agent(problem, 0, learning="1stRslv", initial=0)
        agent.initialize()
        big = Nogood.of((0, 0), (1, 1), (2, 2))
        agent.step([NogoodMessage(1, big)])
        assert big not in agent.store

    def test_request_value_answered_immediately(self):
        agent = make_agent(pair_problem(), 0, initial=1)
        agent.initialize()
        outgoing = agent.step([RequestValueMessage(1, 0)])
        assert (1, OkMessage(0, 0, 1, 0)) in outgoing


class TestEndToEnd:
    @pytest.mark.parametrize(
        "learning", ["Rslv", "Mcs", "No", "3rdRslv", "Rslv/norec"]
    )
    def test_solves_random_coloring(self, learning):
        problem = random_coloring_instance(15, seed=2).to_discsp()
        result = run_trial(problem, awc(learning), seed=11, max_cycles=5000)
        assert result.solved
        assert problem.is_solution(result.assignment)

    def test_complete_learning_proves_unsolvable_triangle(self):
        problem = coloring_discsp(triangle_graph(), 2)
        result = run_trial(problem, awc("Rslv"), seed=1, max_cycles=5000)
        assert result.unsolvable
        assert not result.solved

    def test_complete_learning_proves_unsolvable_k4(self):
        problem = coloring_discsp(clique_graph(4), 3)
        result = run_trial(problem, awc("Rslv"), seed=1, max_cycles=20000)
        assert result.unsolvable

    def test_no_learning_cannot_prove_unsolvable(self):
        problem = coloring_discsp(triangle_graph(), 2)
        result = run_trial(problem, awc("No"), seed=1, max_cycles=500)
        assert not result.solved
        assert not result.unsolvable  # it just never finishes

    def test_deterministic_runs(self):
        problem = random_coloring_instance(12, seed=4).to_discsp()
        first = run_trial(problem, awc("Rslv"), seed=3)
        second = run_trial(problem, awc("Rslv"), seed=3)
        assert first.cycles == second.cycles
        assert first.maxcck == second.maxcck
        assert first.assignment == second.assignment

    def test_different_seeds_differ(self):
        problem = random_coloring_instance(12, seed=4).to_discsp()
        outcomes = {
            run_trial(problem, awc("Rslv"), seed=s).cycles for s in range(6)
        }
        assert len(outcomes) > 1


class TestBuilder:
    def test_builds_one_agent_per_id(self):
        problem = coloring_discsp(triangle_graph(), 3)
        agents = build_awc_agents(
            problem, learning_method("Rslv"), MetricsCollector(), seed=0
        )
        assert [a.id for a in agents] == [0, 1, 2]

    def test_initial_assignment_respected(self):
        problem = coloring_discsp(triangle_graph(), 3)
        agents = build_awc_agents(
            problem,
            learning_method("Rslv"),
            MetricsCollector(),
            seed=0,
            initial_assignment={0: 2, 1: 1, 2: 0},
        )
        for agent in agents:
            agent.initialize()
        assert [a.value for a in agents] == [2, 1, 0]

    def test_awc_agents_hold_no_collector_reference(self):
        # Agents keep a private GenerationLog that the collector merges at
        # cycle boundaries, so no agent holds the shared collector.
        problem = random_coloring_instance(4, seed=1, num_edges=5).to_discsp()
        metrics = MetricsCollector()
        agents = build_awc_agents(
            problem, learning_method("Rslv"), metrics, seed=0
        )
        for agent in agents:
            assert not hasattr(agent, "metrics")
            assert agent.generation_log is metrics.generation_log_for(
                agent.id
            )
        # Logs are per-agent objects, not one shared alias.
        logs = {id(agent.generation_log) for agent in agents}
        assert len(logs) == len(agents)
