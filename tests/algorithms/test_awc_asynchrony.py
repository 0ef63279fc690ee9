"""AWC under stale and reordered information — unit-level scenarios.

The integration suite shows AWC solves problems over delayed networks;
these tests pin the unit-level behaviours that make that work: views hold
the *last received* information, nogoods built from stale views are
harmless (never violated once reality diverges), and the add-link
machinery keeps late-joining watchers informed.
"""

from repro.algorithms.awc import AwcAgent
from repro.core import Nogood
from repro.learning import learning_method
from repro.problems.coloring import coloring_discsp
from repro.problems.graphs import Graph
from repro.runtime.messages import (
    NogoodMessage,
    OkMessage,
    RequestValueMessage,
)
from repro.runtime.metrics import MetricsCollector
from repro.runtime.random_source import derive_rng


def make_agent(problem, agent_id, initial=None):
    return AwcAgent(
        agent_id,
        problem,
        learning_method("Rslv"),
        MetricsCollector(),
        derive_rng(0, "stale-test", agent_id),
        initial_value=initial,
    )


def path_problem():
    """0 - 1 - 2 with 2 colors."""
    return coloring_discsp(Graph(3, [(0, 1), (1, 2)]), 2)


class TestStaleViews:
    def test_last_message_wins(self):
        agent = make_agent(path_problem(), 1, initial=1)
        agent.initialize()
        agent.step([OkMessage(0, 0, 0, 0), OkMessage(0, 0, 1, 0)])
        assert agent.view.value_of(0) == 1

    def test_reordered_ok_still_converges_locally(self):
        # Two updates in the "wrong" order: the agent reacts to the final
        # one; its value is consistent with what it last heard.
        agent = make_agent(path_problem(), 1, initial=0)
        agent.initialize()
        agent.step([OkMessage(0, 0, 1, 0), OkMessage(0, 0, 0, 0)])
        assert agent.value != agent.view.value_of(0)

    def test_stale_nogood_is_inert(self):
        # A nogood naming an outdated value never fires once the view moved
        # on.
        agent = make_agent(path_problem(), 1, initial=1)
        agent.initialize()
        agent.step([OkMessage(0, 0, 0, 0)])
        stale = Nogood.of((0, 1), (1, 1))  # claims x0=1, but view says 0
        agent.step([NogoodMessage(0, stale)])
        assert stale in agent.store
        assert agent.value == 1  # unaffected: the nogood cannot be violated


class TestAddLink:
    def test_unknown_variable_triggers_request_and_reply_cycle(self):
        problem = coloring_discsp(Graph(4, [(0, 1), (2, 3)]), 3)
        receiver = make_agent(problem, 0, initial=0)
        receiver.initialize()
        outgoing = receiver.step(
            [NogoodMessage(1, Nogood.of((0, 0), (2, 2)))]
        )
        requests = [m for _r, m in outgoing if isinstance(m, RequestValueMessage)]
        assert requests == [RequestValueMessage(0, 2)]

        owner = make_agent(problem, 2, initial=2)
        owner.initialize()
        replies = owner.step([RequestValueMessage(0, 2)])
        assert (0, OkMessage(2, 2, 2, 0)) in replies
        assert 0 in owner.recipients  # future changes now reach agent 0

    def test_requester_reacts_to_the_answer(self):
        problem = coloring_discsp(Graph(4, [(0, 1), (2, 3)]), 3)
        receiver = make_agent(problem, 0, initial=0)
        receiver.initialize()
        receiver.step([NogoodMessage(1, Nogood.of((0, 0), (2, 2)))])
        # Once x2's value arrives and matches the nogood, x0 must move
        # (agent 2 outranks agent 0? No: id 0 < 2, so x0 outranks x2 at
        # equal priority and the learned nogood is *lower* — x0 stays).
        outgoing = receiver.step([OkMessage(2, 2, 2, 0)])
        assert receiver.view.value_of(2) == 2
        assert receiver.value == 0
        assert outgoing == []

    def test_learned_nogood_fires_when_owner_outranks(self):
        problem = coloring_discsp(Graph(4, [(0, 1), (2, 3)]), 3)
        receiver = make_agent(problem, 3, initial=1)
        receiver.initialize()
        receiver.step([NogoodMessage(1, Nogood.of((3, 1), (0, 0)))])
        # x0 outranks x3, so once x0=0 is known the nogood is higher and
        # violated: x3 must move off value 1.
        receiver.step([OkMessage(0, 0, 0, 0)])
        assert receiver.value != 1


class TestPriorityDynamics:
    def test_priority_never_decreases(self):
        problem = coloring_discsp(Graph(2, [(0, 1)]), 1)
        # Single color: permanent conflict; agents keep backtracking.
        low = make_agent(problem, 1, initial=0)
        low.initialize()
        seen = [low.priority]
        for _round in range(4):
            low.step([OkMessage(0, 0, 0, seen[-1] + 1)])
            seen.append(low.priority)
        assert seen == sorted(seen)

    def test_priority_raise_exceeds_every_known_priority(self):
        problem = coloring_discsp(triangle := Graph(3, [(0, 1), (0, 2), (1, 2)]), 2)
        agent = make_agent(problem, 2, initial=0)
        agent.initialize()
        agent.step([OkMessage(0, 0, 0, 7), OkMessage(1, 1, 1, 3)])
        assert agent.priority == 8
