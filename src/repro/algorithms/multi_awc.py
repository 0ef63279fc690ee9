"""Multi-variable-per-agent AWC — the Section 5 extension.

The paper notes that all distributed CSPs can in principle be converted to
the one-variable-per-agent class, but that real problems often give one
agent a whole local CSP, and points to the authors' extended AWC variants
for that setting. This module implements the natural extension: an agent
hosts one *virtual AWC handler per owned variable*, and messages between two
handlers of the same agent are exchanged **within a cycle** (local
computation is free relative to communication), while messages to other
agents take a network cycle as usual.

That intra-cycle shortcut is the whole point of keeping variables together:
the hosting agent can settle local conflicts without spending communication
cycles on them. A cap bounds the intra-cycle rounds so one agent cannot
simulate an unbounded amount of search in a single "cycle"; messages beyond
the cap simply carry over to the next cycle, degrading gracefully toward the
one-variable-per-agent behaviour.

All handlers of an agent share one check counter, so ``maxcck`` counts an
agent's total local computation per cycle, exactly as for single-variable
agents.
"""

from __future__ import annotations

import random
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from ..core.exceptions import ModelError
from ..core.problem import AgentId, DisCSP
from ..core.store import NogoodStore
from ..core.variables import Value, VariableId
from ..learning.base import LearningMethod
from ..runtime.agent import SimulatedAgent
from ..runtime.messages import (
    Message,
    NogoodMessage,
    OkMessage,
    Outgoing,
    RequestValueMessage,
)
from ..runtime.metrics import MetricsCollector
from .awc import AwcAgent

if TYPE_CHECKING:  # the builder imports derive_rng lazily at runtime
    from ..runtime.random_source import Seed

#: Default bound on intra-agent message rounds within one cycle.
DEFAULT_INTRA_ROUND_CAP = 50


class MultiVariableAwcAgent(SimulatedAgent):
    """An agent owning several variables, each run by a virtual AWC handler."""

    def __init__(
        self,
        agent_id: AgentId,
        problem: DisCSP,
        learning: LearningMethod,
        metrics: MetricsCollector,
        rng_factory: Callable[[VariableId], random.Random],
        initial_assignment: Optional[Dict[VariableId, Value]] = None,
        intra_round_cap: int = DEFAULT_INTRA_ROUND_CAP,
    ) -> None:
        super().__init__(agent_id)
        if intra_round_cap < 1:
            raise ModelError(
                f"intra_round_cap must be positive, got {intra_round_cap}"
            )
        self.problem = problem
        self.intra_round_cap = intra_round_cap
        self._handlers: Dict[VariableId, AwcAgent] = {}
        self._carryover: Dict[VariableId, List[Message]] = {}
        for variable in problem.variables_of(agent_id):
            initial = (
                initial_assignment.get(variable)
                if initial_assignment is not None
                else None
            )
            handler = AwcAgent(
                agent_id,
                problem,
                learning,
                metrics,
                rng_factory(variable),
                initial_value=initial,
                variable=variable,
            )
            # All handlers account their checks to the hosting agent.
            handler.check_counter = self.check_counter
            handler.store.counter = self.check_counter
            self._handlers[variable] = handler
        # The handler map is fixed from here on; iterate this instead of
        # re-sorting the keys on every dispatch.
        self._ordered_variables: Tuple[VariableId, ...] = tuple(
            sorted(self._handlers)
        )

    # -- simulator protocol -----------------------------------------------------

    def initialize(self) -> List[Outgoing]:
        external: List[Outgoing] = []
        for variable in self._ordered_variables:
            outgoing = self._handlers[variable].initialize()
            external.extend(self._dispatch(variable, outgoing))
        external.extend(self._run_intra_rounds())
        return external

    def step(self, messages: Sequence[Message]) -> List[Outgoing]:
        for message in messages:
            self._enqueue(message, originating_variable=None)
        external = self._run_intra_rounds()
        self._propagate_failure()
        return external

    def local_assignment(self) -> Dict[VariableId, Value]:
        return {
            variable: handler.value
            for variable, handler in self._handlers.items()
        }

    def rebind_store(self, store_class: Type[NogoodStore]) -> None:
        """Rebind every handler's store; all keep the shared check counter."""
        for variable in self._ordered_variables:
            self._handlers[variable].rebind_store(store_class)

    def has_pending_work(self) -> bool:
        """Carryover left by a capped intra-round drain awaits another step.

        The synchronous simulator revisits every agent each cycle, so an
        ``intra_round_cap`` overflow is retried automatically, and it reads
        this signal before calling an idle network quiescent.
        """
        return bool(self._carryover)

    # -- internal message plumbing ------------------------------------------------

    def _run_intra_rounds(self) -> List[Outgoing]:
        """Drain handler queues, looping intra-agent messages within the cycle."""
        external: List[Outgoing] = []
        rounds = 0
        while self._carryover and rounds < self.intra_round_cap:
            rounds += 1
            batch, self._carryover = self._carryover, {}
            for variable in sorted(batch):
                handler = self._handlers[variable]
                outgoing = handler.step(batch[variable])
                external.extend(self._dispatch(variable, outgoing))
        return external

    def _dispatch(
        self, origin: VariableId, outgoing: Sequence[Outgoing]
    ) -> List[Outgoing]:
        """Split handler output into external messages and internal queueing."""
        external: List[Outgoing] = []
        for recipient, message in outgoing:
            if recipient == self.id:
                self._enqueue(message, originating_variable=origin)
            else:
                external.append((recipient, message))
        return external

    def _enqueue(
        self, message: Message, originating_variable: Optional[VariableId]
    ) -> None:
        """Route one (external or internal) message to handler queues."""
        if isinstance(message, OkMessage):
            for variable in self._handlers:
                if variable != originating_variable:
                    self._carryover.setdefault(variable, []).append(message)
        elif isinstance(message, NogoodMessage):
            for variable in sorted(message.nogood.variables):
                if variable in self._handlers and variable != originating_variable:
                    self._carryover.setdefault(variable, []).append(message)
        elif isinstance(message, RequestValueMessage):
            if message.variable in self._handlers:
                self._carryover.setdefault(message.variable, []).append(message)
        else:
            raise ModelError(
                f"multi-variable AWC cannot route message {message!r}"
            )

    def _propagate_failure(self) -> None:
        for handler in self._handlers.values():
            if handler.failure is not None and self.failure is None:
                self.failure = handler.failure


def build_multi_awc_agents(
    problem: DisCSP,
    learning: LearningMethod,
    metrics: MetricsCollector,
    seed: "Seed",
    initial_assignment: Optional[Dict[VariableId, Value]] = None,
    intra_round_cap: int = DEFAULT_INTRA_ROUND_CAP,
) -> List[MultiVariableAwcAgent]:
    """Build one multi-variable AWC agent per agent id of *problem*."""
    from ..runtime.random_source import derive_rng

    agents = []
    for agent_id in problem.agents:

        def rng_factory(
            variable: VariableId, _agent: AgentId = agent_id
        ) -> random.Random:
            return derive_rng(seed, "multi-awc", _agent, variable)

        agents.append(
            MultiVariableAwcAgent(
                agent_id,
                problem,
                learning,
                metrics,
                rng_factory,
                initial_assignment=initial_assignment,
                intra_round_cap=intra_round_cap,
            )
        )
    return agents
