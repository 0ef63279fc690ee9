"""The protocol every simulated agent implements.

The simulator drives agents through exactly two entry points:

* :meth:`SimulatedAgent.initialize` — called once at cycle 0; the agent
  chooses its initial value(s) and returns its first messages;
* :meth:`SimulatedAgent.step` — called once per cycle with the messages
  delivered this cycle; the agent updates its state and returns outgoing
  messages, which the network will deliver in a later cycle.

Agents never touch the network or other agents directly; all interaction is
through returned :data:`~repro.runtime.messages.Outgoing` pairs. That
restriction is what makes the synchronous-cycle semantics (and the cost
accounting) airtight.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Type

from ..core.exceptions import UnsolvableError
from ..core.problem import AgentId
from ..core.store import CheckCounter, NogoodStore
from ..core.variables import Value, VariableId
from .messages import Message, Outgoing


class SimulatedAgent(ABC):
    """Base class for agents run by the synchronous simulator."""

    def __init__(self, agent_id: AgentId) -> None:
        self.id = agent_id
        #: Shared with this agent's nogood store; sampled by the metrics
        #: collector at cycle boundaries.
        self.check_counter = CheckCounter()
        #: Set when the agent derives the empty nogood. The simulator
        #: terminates the run and reports the problem unsolvable.
        self.failure: Optional[UnsolvableError] = None

    @abstractmethod
    def initialize(self) -> List[Outgoing]:
        """Choose initial value(s); return the first messages to send."""

    @abstractmethod
    def step(self, messages: Sequence[Message]) -> List[Outgoing]:
        """Process one cycle's incoming messages; return outgoing ones."""

    @abstractmethod
    def local_assignment(self) -> Dict[VariableId, Value]:
        """The agent's current values for the variables it owns."""

    def rebind_store(self, store_class: Type[NogoodStore]) -> None:
        """Swap this agent's nogood store implementation, keeping contents.

        The store parity tests call this right after building the agents
        to swap in the linear oracle
        (:class:`~repro.core.store.LinearNogoodStore`). The default is a
        no-op: agents without a nogood store (or with bespoke storage)
        simply ignore the request. Subclasses that own stores must rebuild them with the same
        check counter and re-add every nogood in insertion order, so the
        swap is invisible to the cost accounting.
        """

    def has_pending_work(self) -> bool:
        """True when the agent needs another step even without new mail.

        The synchronous simulator steps every agent every cycle, so an
        agent with leftover internal work (e.g. the multi-variable AWC
        agent's intra-round carryover queue) is always revisited; what this
        signal decides is quiescence: an idle network does not end the run
        while any agent reports pending work, so agents that buffer work
        across steps must override it. The default is False: for agents
        whose ``step([])`` is a no-op, nothing is owed.
        """
        return False

    def fail_unsolvable(self, message: str = "") -> None:
        """Record that this agent proved the problem unsolvable."""
        self.failure = UnsolvableError(self.id, message)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id})"
