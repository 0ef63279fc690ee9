"""ABT's backtrack-nogood modes: agent view vs resolvent."""

import pytest

from repro.algorithms.abt import AbtAgent, ABT_LEARNING_MODES
from repro.algorithms.registry import abt
from repro.core.exceptions import ModelError
from repro.experiments.runner import run_trial
from repro.problems.binary_csp import nqueens_discsp
from repro.problems.coloring import coloring_discsp, random_coloring_instance
from repro.problems.graphs import Graph
from repro.runtime.messages import NogoodMessage, OkMessage
from repro.runtime.random_source import derive_rng

from ..conftest import clique_graph, triangle_graph


def make_agent(problem, agent_id, learning, initial=None):
    return AbtAgent(
        agent_id,
        problem,
        derive_rng(0, "abt-learn-test", agent_id),
        initial_value=initial,
        learning=learning,
    )


class TestResolventNogoods:
    def test_resolvent_smaller_than_view(self):
        """Star topology: node 3 adjacent to 0, 1, 2 with 2 colors.

        With 2 colors, nodes 0 and 1 alone (both red) block both of node
        3's... not quite: build 0-3, 1-3, 2-3 arcs, 2 colors; view 0=r,
        1=g, 2=r: value r blocked by 0 (or 2), value g blocked by 1. The
        view nogood has 3 members, the resolvent only 2.
        """
        graph = Graph(4, [(0, 3), (1, 3), (2, 3)])
        problem = coloring_discsp(graph, 2)
        agent = make_agent(problem, 3, "resolvent", initial=0)
        agent.initialize()
        outgoing = agent.step(
            [
                OkMessage(0, 0, 0, 0),
                OkMessage(1, 1, 1, 0),
                OkMessage(2, 2, 0, 0),
            ]
        )
        nogoods = [m for _r, m in outgoing if isinstance(m, NogoodMessage)]
        assert nogoods
        first = nogoods[0].nogood
        assert len(first) == 2
        assert not first.mentions(3)

    def test_view_mode_sends_whole_view(self):
        graph = Graph(4, [(0, 3), (1, 3), (2, 3)])
        problem = coloring_discsp(graph, 2)
        agent = make_agent(problem, 3, "view", initial=0)
        agent.initialize()
        outgoing = agent.step(
            [
                OkMessage(0, 0, 0, 0),
                OkMessage(1, 1, 1, 0),
                OkMessage(2, 2, 0, 0),
            ]
        )
        nogoods = [m for _r, m in outgoing if isinstance(m, NogoodMessage)]
        assert len(nogoods[0].nogood) == 3

    def test_invalid_mode_rejected(self):
        problem = coloring_discsp(triangle_graph(), 3)
        with pytest.raises(ModelError):
            make_agent(problem, 0, "telepathy")

    def test_modes_enumerated(self):
        assert set(ABT_LEARNING_MODES) == {"view", "resolvent"}


class TestEndToEnd:
    @pytest.mark.parametrize("learning", ABT_LEARNING_MODES)
    def test_solves_random_coloring(self, learning):
        problem = random_coloring_instance(15, seed=2).to_discsp()
        result = run_trial(
            problem, abt(learning), seed=11, max_cycles=10000
        )
        assert result.solved
        assert problem.is_solution(result.assignment)

    @pytest.mark.parametrize("learning", ABT_LEARNING_MODES)
    def test_proves_unsolvable(self, learning):
        problem = coloring_discsp(clique_graph(4), 3)
        result = run_trial(problem, abt(learning), seed=1, max_cycles=30000)
        assert result.unsolvable

    def test_solves_nqueens(self):
        problem = nqueens_discsp(6)
        result = run_trial(
            problem, abt("resolvent"), seed=3, max_cycles=10000
        )
        assert result.solved

    def test_registry_names(self):
        assert abt().name == "ABT"
        assert abt("resolvent").name == "ABT(resolvent)"
