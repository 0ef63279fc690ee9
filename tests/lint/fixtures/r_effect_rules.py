# repro-lint: module=algorithms/fixture_effects.py
"""Dirty and clean cases for the interleaving rule R1.

This fixture pins the rule's line anchors and its clean counterexamples.
"""


class BypassAgent(SimulatedAgent):  # noqa: F821 — name-based closure
    def step(self, messages):
        for message in messages:
            if isinstance(message, OkMessage):  # noqa: F821
                # R1: reaching into the view's private internals.
                self.agent_view._entries[message.variable] = message.value
                # R1: item-assigning around update()'s counter bump.
                self.neighbor_view[message.variable] = message.value
        return []

    def absorb(self, message):
        # Clean: the counter-guarded API.
        self.agent_view.update(message.variable, message.value)
        # Clean: item writes into non-view containers are fine.
        self.counts[message.sender] = 1
