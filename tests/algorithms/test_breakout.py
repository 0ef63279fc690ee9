"""Distributed breakout: waves, mutual exclusion, and the breakout rule."""

import pytest

from repro.algorithms.breakout import BreakoutAgent, build_breakout_agents
from repro.algorithms.registry import db
from repro.core import DisCSP, Domain, Nogood, integer_domain
from repro.core.exceptions import ModelError
from repro.experiments.runner import run_trial
from repro.problems.coloring import coloring_discsp, random_coloring_instance
from repro.runtime.messages import ImproveMessage, OkRoundMessage
from repro.runtime.random_source import derive_rng

from ..conftest import cycle_graph, triangle_graph


def make_agent(problem, agent_id, initial=None, weight_mode="nogood"):
    return BreakoutAgent(
        agent_id,
        problem,
        derive_rng(0, "db-test", agent_id),
        initial_value=initial,
        weight_mode=weight_mode,
    )


def pair_problem():
    return DisCSP.one_variable_per_agent(
        {0: integer_domain(2), 1: integer_domain(2)},
        [Nogood.of((0, 0), (1, 0))],
    )


class TestWaves:
    def test_initialize_sends_round_zero_ok(self):
        agent = make_agent(pair_problem(), 0, initial=1)
        assert agent.initialize() == [(1, OkRoundMessage(0, 0, 1, 0))]

    def test_ok_wave_produces_improve(self):
        agent = make_agent(pair_problem(), 0, initial=0)
        agent.initialize()
        outgoing = agent.step([OkRoundMessage(1, 1, 0, 0)])
        improves = [m for _r, m in outgoing if isinstance(m, ImproveMessage)]
        assert len(improves) == 1
        # Conflict on (0,0): eval 1, moving to value 1 fixes it: improve 1.
        assert improves[0].eval == 1
        assert improves[0].improve == 1
        assert improves[0].round_index == 0

    def test_satisfied_agent_announces_zero_improve(self):
        agent = make_agent(pair_problem(), 0, initial=1)
        agent.initialize()
        outgoing = agent.step([OkRoundMessage(1, 1, 0, 0)])
        improve = outgoing[0][1]
        assert improve.eval == 0
        assert improve.improve == 0

    def test_incomplete_wave_waits(self):
        problem = coloring_discsp(triangle_graph(), 3)
        agent = make_agent(problem, 0, initial=0)
        agent.initialize()
        assert agent.step([OkRoundMessage(1, 1, 0, 0)]) == []

    def test_winner_moves_loser_stays(self):
        # Symmetric conflict: both could improve by 1; the tie goes to the
        # smaller id.
        winner = make_agent(pair_problem(), 0, initial=0)
        loser = make_agent(pair_problem(), 1, initial=0)
        winner.initialize()
        loser.initialize()
        winner.step([OkRoundMessage(1, 1, 0, 0)])
        loser.step([OkRoundMessage(0, 0, 0, 0)])
        winner.step([ImproveMessage(1, 1, 1, 0)])
        loser.step([ImproveMessage(0, 1, 1, 0)])
        assert winner.value == 1
        assert loser.value == 0

    def test_next_round_ok_carries_incremented_round(self):
        agent = make_agent(pair_problem(), 0, initial=0)
        agent.initialize()
        agent.step([OkRoundMessage(1, 1, 0, 0)])
        outgoing = agent.step([ImproveMessage(1, 0, 0, 0)])
        oks = [m for _r, m in outgoing if isinstance(m, OkRoundMessage)]
        assert oks and oks[0].round_index == 1

    def test_none_is_a_value_not_an_unknown(self):
        # The first ok? of a neighbor at None must match a nogood on None.
        domain = Domain([None, "a"])
        problem = DisCSP.one_variable_per_agent(
            {0: domain, 1: domain}, [Nogood.of((0, "a"), (1, None))]
        )
        agent = make_agent(problem, 0, initial="a")
        agent.initialize()
        improve = agent.step([OkRoundMessage(1, 1, None, 0)])[0][1]
        assert (improve.eval, improve.improve) == (1, 1)

    def test_future_round_messages_are_buffered(self):
        agent = make_agent(pair_problem(), 0, initial=0)
        agent.initialize()
        # Round 1's ok arrives before round 0 is complete: nothing happens.
        assert agent.step([OkRoundMessage(1, 1, 1, 1)]) == []
        # Round 0 completes: improve goes out for round 0 only.
        outgoing = agent.step([OkRoundMessage(1, 1, 0, 0)])
        assert all(m.round_index == 0 for _r, m in outgoing)


class TestBreakoutRule:
    def quasi_local_minimum_agent(self):
        """Two agents forced into conflict: domain {0} on both sides.

        Every value violates the single nogood and nobody can improve:
        a quasi-local-minimum by construction.
        """
        problem = DisCSP.one_variable_per_agent(
            {0: integer_domain(1), 1: integer_domain(1)},
            [Nogood.of((0, 0), (1, 0))],
        )
        agent = make_agent(problem, 0, initial=0)
        agent.initialize()
        return agent

    def test_weights_increase_at_qlm(self):
        agent = self.quasi_local_minimum_agent()
        agent.step([OkRoundMessage(1, 1, 0, 0)])
        agent.step([ImproveMessage(1, 1, 0, 0)])
        assert agent.breakouts == 1
        assert agent.weights[Nogood.of((0, 0), (1, 0))] == 2

    def test_no_breakout_when_neighbor_can_improve(self):
        agent = self.quasi_local_minimum_agent()
        agent.step([OkRoundMessage(1, 1, 0, 0)])
        agent.step([ImproveMessage(1, 1, 1, 0)])
        assert agent.breakouts == 0

    def test_weights_raise_eval(self):
        agent = self.quasi_local_minimum_agent()
        agent.step([OkRoundMessage(1, 1, 0, 0)])
        agent.step([ImproveMessage(1, 1, 0, 0)])
        outgoing = agent.step([OkRoundMessage(1, 1, 0, 1)])
        improve = outgoing[0][1]
        assert improve.eval == 2  # weight now 2


class TestWeightModes:
    def test_pair_mode_shares_weight_across_colors(self):
        problem = coloring_discsp(triangle_graph(), 3)
        agent = make_agent(problem, 0, weight_mode="pair")
        first = Nogood.of((0, 0), (1, 0))
        second = Nogood.of((0, 1), (1, 1))
        assert agent._weight_key(first) == agent._weight_key(second)

    def test_nogood_mode_separates_them(self):
        problem = coloring_discsp(triangle_graph(), 3)
        agent = make_agent(problem, 0, weight_mode="nogood")
        first = Nogood.of((0, 0), (1, 0))
        second = Nogood.of((0, 1), (1, 1))
        assert agent._weight_key(first) != agent._weight_key(second)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ModelError):
            make_agent(pair_problem(), 0, weight_mode="magic")


class TestEndToEnd:
    @pytest.mark.parametrize("weight_mode", ["nogood", "pair"])
    def test_solves_random_coloring(self, weight_mode):
        problem = random_coloring_instance(15, seed=2).to_discsp()
        result = run_trial(
            problem, db(weight_mode), seed=11, max_cycles=5000
        )
        assert result.solved
        assert problem.is_solution(result.assignment)

    def test_cannot_prove_unsolvable(self):
        problem = coloring_discsp(triangle_graph(), 2)
        result = run_trial(problem, db(), seed=1, max_cycles=200)
        assert not result.solved
        assert not result.unsolvable
        assert result.capped

    def test_deterministic(self):
        problem = random_coloring_instance(12, seed=4).to_discsp()
        first = run_trial(problem, db(), seed=3)
        second = run_trial(problem, db(), seed=3)
        assert first.cycles == second.cycles
        assert first.assignment == second.assignment

    def test_uses_two_cycles_per_round(self):
        # DB's wave structure: cycles alternate ok?/improve, so solving
        # takes an even-ish cycle count well above AWC's on the same input.
        problem = coloring_discsp(cycle_graph(6), 3)
        result = run_trial(problem, db(), seed=5, max_cycles=5000)
        assert result.solved

    def test_builder(self):
        problem = coloring_discsp(triangle_graph(), 3)
        agents = build_breakout_agents(problem, seed=0)
        assert [a.id for a in agents] == [0, 1, 2]
