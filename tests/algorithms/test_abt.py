"""ABT: the static-order ancestor with agent-view nogoods."""

from repro.algorithms.abt import AbtAgent, build_abt_agents
from repro.algorithms.registry import abt
from repro.core import DisCSP, Nogood, integer_domain
from repro.experiments.runner import run_trial
from repro.problems.coloring import coloring_discsp, random_coloring_instance
from repro.runtime.messages import NogoodMessage, OkMessage
from repro.runtime.random_source import derive_rng

from ..conftest import clique_graph, triangle_graph


def make_agent(problem, agent_id, initial=None):
    return AbtAgent(
        agent_id,
        problem,
        derive_rng(0, "abt-test", agent_id),
        initial_value=initial,
    )


def pair_problem():
    return DisCSP.one_variable_per_agent(
        {0: integer_domain(2), 1: integer_domain(2)},
        [Nogood.of((0, 0), (1, 0))],
    )


class TestStaticOrder:
    def test_ok_flows_only_downward(self):
        problem = coloring_discsp(triangle_graph(), 3)
        top = make_agent(problem, 0, initial=0)
        bottom = make_agent(problem, 2, initial=0)
        assert {r for r, _m in top.initialize()} == {1, 2}
        assert bottom.initialize() == []

    def test_lower_agent_adapts(self):
        agent = make_agent(pair_problem(), 1, initial=0)
        agent.initialize()
        agent.step([OkMessage(0, 0, 0, 0)])
        assert agent.value == 1

    def test_backtrack_sends_view_as_nogood(self):
        problem = coloring_discsp(triangle_graph(), 2)
        agent = make_agent(problem, 2, initial=0)
        agent.initialize()
        outgoing = agent.step([OkMessage(0, 0, 0, 0), OkMessage(1, 1, 1, 0)])
        nogoods = [m for _r, m in outgoing if isinstance(m, NogoodMessage)]
        assert nogoods
        # The whole agent view becomes the nogood (the paper's description
        # of ABT learning) and goes to its lowest-priority member: x1.
        assert nogoods[0].nogood == Nogood.of((0, 0), (1, 1))
        assert [r for r, m in outgoing if isinstance(m, NogoodMessage)] == [1]

    def test_backtrack_erases_culprit_from_view(self):
        problem = coloring_discsp(triangle_graph(), 2)
        agent = make_agent(problem, 2, initial=0)
        agent.initialize()
        agent.step([OkMessage(0, 0, 0, 0), OkMessage(1, 1, 1, 0)])
        assert not agent.view.knows(1)
        assert agent.view.knows(0)

    def test_stale_nogood_answered_with_ok(self):
        agent = make_agent(pair_problem(), 0, initial=1)
        agent.initialize()
        outgoing = agent.step(
            [NogoodMessage(1, Nogood.of((0, 0), (1, 0)))]
        )
        # Our value (1) is not the one the nogood blames; re-announce it.
        assert (1, OkMessage(0, 0, 1, 0)) in outgoing


class TestEndToEnd:
    def test_solves_random_coloring(self):
        problem = random_coloring_instance(15, seed=2).to_discsp()
        result = run_trial(problem, abt(), seed=11, max_cycles=10000)
        assert result.solved
        assert problem.is_solution(result.assignment)

    def test_proves_unsolvable_triangle(self):
        problem = coloring_discsp(triangle_graph(), 2)
        result = run_trial(problem, abt(), seed=1, max_cycles=5000)
        assert result.unsolvable

    def test_proves_unsolvable_k4(self):
        problem = coloring_discsp(clique_graph(4), 3)
        result = run_trial(problem, abt(), seed=1, max_cycles=20000)
        assert result.unsolvable

    def test_deterministic(self):
        problem = random_coloring_instance(12, seed=4).to_discsp()
        first = run_trial(problem, abt(), seed=3)
        second = run_trial(problem, abt(), seed=3)
        assert first.cycles == second.cycles

    def test_builder(self):
        problem = coloring_discsp(triangle_graph(), 3)
        agents = build_abt_agents(problem, seed=0)
        assert [a.id for a in agents] == [0, 1, 2]
