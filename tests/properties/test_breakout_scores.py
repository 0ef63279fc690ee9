"""DB's incremental scores against a from-scratch weighted rescan.

``BreakoutAgent`` keeps, per stored nogood, the count of non-owner pairs
the view does not match, and per domain value the weighted sum of its
violated nogoods. After every ok wave of a whole trial, each value's score
must equal the weights summed over a violated list computed from scratch
on a copy of the store (a copy, so the agent's check counter is not
touched), and the wave must have charged exactly the checks of one batch
scan of the domain: the sum of ``len(for_value(v))``.
"""

from functools import partial

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.algorithms.registry import AlgorithmSpec, db
from repro.core import CheckCounter
from repro.experiments.runner import network_model, run_trial
from repro.problems.coloring import random_coloring_instance
from repro.problems.sat.generators import planted_3sat
from repro.problems.sat.to_discsp import sat_to_discsp

from ..conftest import with_linear_store


def _checked_ok_wave(agent, waves):
    """Wrap *agent*'s ok wave in the from-scratch comparison."""
    finish = agent._finish_ok_wave

    def checked():
        store = agent.store
        values = agent.domain.values
        before = agent.check_counter.total
        outgoing = finish()
        assert agent.check_counter.total - before == sum(
            len(store.for_value(value)) for value in values
        )
        copy = type(store)(agent.variable, CheckCounter(), store.nogoods())
        for value in values:
            expected = sum(
                agent.weights.get(agent._weight_key(nogood), 1)
                for nogood in copy.violated(agent.view, value)
            )
            assert agent._scores[value] == expected, (agent.id, value)
        assert agent._my_eval == agent._scores[agent.value]
        waves.append(agent.id)
        return outgoing

    agent._finish_ok_wave = checked


def _checked_agents(build, waves, problem, metrics, seed, initial):
    agents = build(problem, metrics, seed, initial)
    for agent in agents:
        _checked_ok_wave(agent, waves)
    return agents


@st.composite
def problems(draw):
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        # The paper's density needs 10 nodes for its edges to fit.
        size = draw(st.integers(10, 14))
        return random_coloring_instance(size, seed=seed).to_discsp()
    size = draw(st.integers(4, 12))
    return sat_to_discsp(planted_3sat(size, seed=seed).formula)


class TestIncrementalScores:
    @given(
        problem=problems(),
        weight_mode=st.sampled_from(["nogood", "pair"]),
        network=st.sampled_from(["sync", "random:3"]),
        linear=st.booleans(),
        trial_seed=st.integers(0, 1_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_scores_match_a_rescan_after_every_ok_wave(
        self, problem, weight_mode, network, linear, trial_seed
    ):
        spec = db(weight_mode)
        if linear:
            spec = with_linear_store(spec)
        waves = []
        checked = AlgorithmSpec(
            spec.name, partial(_checked_agents, spec.build, waves)
        )
        result = run_trial(
            problem,
            checked,
            seed=trial_seed,
            max_cycles=80,
            network_factory=network_model(network),
        )
        # Only a trial solved by its initial assignment finishes no wave.
        assert waves or result.solved
