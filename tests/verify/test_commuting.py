"""Declared commuting deliveries, checked by running both orders.

The explorer prunes a same-recipient pair of deliveries only when the
recipient's class lists the pair's message types in
``commuting_deliveries``. Nothing proves such a declaration statically, so
this test runs it: at every choice point of every schedule the pruned
explorer runs, each enabled same-recipient pair the recipient declares
commuting is delivered to two pickled copies of the recipient, once in
each order with one ``step`` per message. Both orders must leave byte-equal
pickles of the recipient and of the concatenated outgoing messages.
"""

import pickle
from collections import defaultdict

from repro.algorithms.breakout import BreakoutAgent
from repro.runtime.agent import SimulatedAgent
from repro.runtime.messages import ImproveMessage, OkRoundMessage
from repro.runtime.simulator import SynchronousSimulator
from repro.verify import explorer
from repro.verify.corpus import PINNED_CORPUS, corpus_by_name


class CommutationProbe:
    """Runs both orders of each declared pair at the states it is shown.

    The explorer's schedules share prefixes, and a run is determined by its
    decisions, so a choice point whose decision sequence was already seen
    is skipped. A (recipient state, pair) combination is checked once.
    """

    def __init__(self):
        self.visited = set()
        self.checked = set()
        self.mismatches = []

    def check(self, decisions, enabled, agents):
        if decisions in self.visited:
            return
        self.visited.add(decisions)
        inboxes = defaultdict(list)
        for delivery in enabled:
            inboxes[delivery.recipient].append(delivery.message)
        for recipient, messages in inboxes.items():
            declared = agents[recipient].commuting_deliveries
            pairs = [
                (first, second)
                for index, first in enumerate(messages)
                for second in messages[index + 1:]
                if frozenset((type(first), type(second))) in declared
            ]
            if not pairs:
                continue
            state = pickle.dumps(agents[recipient])
            for first, second in pairs:
                key = (state, first, second)
                if key in self.checked:
                    continue
                self.checked.add(key)
                if _deliver(state, first, second) != _deliver(
                    state, second, first
                ):
                    self.mismatches.append((recipient, first, second))


def _deliver(state, first, second):
    """Pickles of a copy of the agent and its output after two steps."""
    agent = pickle.loads(state)
    outgoing = agent.step([first]) + agent.step([second])
    return pickle.dumps(agent), pickle.dumps(outgoing)


def probing_simulator(probe):
    """A simulator class that shows *probe* every choice point."""

    class ProbingSimulator(SynchronousSimulator):
        def __init__(self, problem, agents, **kwargs):
            super().__init__(problem, agents, **kwargs)
            network = self.network
            by_id = {agent.id: agent for agent in self.agents}
            deliver = network.deliver

            def probed_deliver():
                enabled = network.enabled()
                if len(enabled) > 1:
                    probe.check(network.choices_taken, enabled, by_id)
                return deliver()

            network.deliver = probed_deliver

    return ProbingSimulator


class TestDeclarations:
    def test_agents_declare_nothing_by_default(self):
        assert SimulatedAgent.commuting_deliveries == frozenset()

    def test_breakout_declares_only_ok_against_improve(self):
        assert BreakoutAgent.commuting_deliveries == {
            frozenset({OkRoundMessage, ImproveMessage})
        }

    def test_only_db_n4_declares_pairs(self):
        # The commutation check below runs on db-n4; a corpus entry whose
        # agents start declaring pairs must be checked there too.
        declaring = [
            entry.name
            for entry in PINNED_CORPUS
            if any(agent.commuting_deliveries for agent in entry.build()[1])
        ]
        assert declaring == ["db-n4"]


class TestDeclaredPairsCommute:
    def test_on_every_state_the_explorer_reaches(self, monkeypatch):
        probe = CommutationProbe()
        monkeypatch.setattr(
            explorer, "SynchronousSimulator", probing_simulator(probe)
        )
        [entry] = corpus_by_name(["db-n4"])
        report = explorer.explore_entry(entry, count_naive=False)
        assert probe.checked, "no declared pair was ever enabled"
        assert probe.mismatches == []
        assert report.explored == 792
