"""The seeded interleaving bug the schedule explorer must catch.

``RacyAgent`` commits its decision state on the *first* ``ok?`` it sees —
the classic absorb-vs-commit race: two messages from distinct senders race
to the same recipient, and whichever the transport delivers first decides
the final assignment. ``RacyAgent`` declares no commuting deliveries, and
an undeclared pair is dependent, which is why the race survives pruning.
:func:`build_racy_setup` wires the race so that one delivery order solves
the instance and the other ends quiescent and unsolved — the explorer must
report the outcome divergence.
"""

from repro.core.nogood import Nogood
from repro.core.problem import CSP, DisCSP
from repro.runtime.agent import SimulatedAgent
from repro.runtime.messages import OkMessage


class RacyAgent(SimulatedAgent):
    """Dirty: decision state committed inside the per-message dispatch."""

    def __init__(self, agent_id, variable, initial_value):
        super().__init__(agent_id)
        self.variable = variable
        self.value = initial_value
        self.committed = False

    def initialize(self):
        return []

    def step(self, messages):
        for message in messages:
            if isinstance(message, OkMessage):
                if not self.committed:
                    self.value = message.value  # dirty: first writer wins
                    self.committed = True
        return []

    def local_assignment(self):
        return {self.variable: self.value}


class AnnouncerAgent(SimulatedAgent):
    """Announces a pinned value to the racy agent once, at startup."""

    def __init__(self, agent_id, variable, value, target):
        super().__init__(agent_id)
        self.variable = variable
        self.value = value
        self.target = target

    def initialize(self):
        return [(self.target, OkMessage(self.id, self.variable, self.value))]

    def step(self, messages):
        return []

    def local_assignment(self):
        return {self.variable: self.value}


def build_racy_setup():
    """(problem, agents) where the delivery order decides solvability.

    Variable 0 (the racy agent's) must end up 0 — the only nogood forbids
    ``x0 = 1``. Agent 1 announces 1, agent 2 announces 0; both ``ok?``
    messages race to agent 0, which freezes on whichever arrives first.
    Deliver agent 2's first and the run solves; deliver agent 1's first
    and it goes quiescent, unsolved.
    """
    domains = {0: (0, 1), 1: (0, 1), 2: (0, 1)}
    csp = CSP(domains, [Nogood([(0, 1)])])
    problem = DisCSP.from_csp(csp)
    agents = [
        RacyAgent(0, variable=0, initial_value=1),
        AnnouncerAgent(1, variable=1, value=1, target=0),
        AnnouncerAgent(2, variable=2, value=0, target=0),
    ]
    return problem, agents
