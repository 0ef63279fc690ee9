"""Shared plumbing for the distributed algorithms.

Provides the seeded tie-breaking helper every algorithm uses for value
selection, and the common base for one-variable-per-agent agents (owning
variable lookup, initial local nogoods, recipients bookkeeping).
"""

from __future__ import annotations

import random
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

from ..core.exceptions import ModelError
from ..core.problem import AgentId, DisCSP
from ..core.store import NogoodStore
from ..core.variables import Domain, Value, VariableId
from ..runtime.agent import SimulatedAgent

T = TypeVar("T")


def argmin_with_ties(
    candidates: Iterable[T],
    score: Callable[[T], object],
    rng: random.Random,
) -> T:
    """The candidate with the smallest score; ties broken uniformly by *rng*.

    Scanning keeps *all* tied candidates and draws one, rather than keeping
    the first: a first-wins rule would bias every agent toward low domain
    values and make runs degenerate in ways the paper's randomized trials
    do not have.
    """
    best_score: Optional[object] = None
    ties: List[T] = []
    for candidate in candidates:
        value = score(candidate)
        if best_score is None or value < best_score:  # type: ignore[operator]
            best_score = value
            ties = [candidate]
        elif value == best_score:
            ties.append(candidate)
    if not ties:
        raise ModelError("argmin_with_ties called with no candidates")
    if len(ties) == 1:
        return ties[0]
    return ties[rng.randrange(len(ties))]


class SingleVariableAgent(SimulatedAgent):
    """Base for agents that own exactly one variable of a DisCSP.

    Sets up the store preloaded with the agent's local nogoods (every nogood
    relevant to its variable, inter-agent ones included — the paper's
    locality assumption) and the initial recipient set (the owners of the
    other variables in those nogoods).
    """

    #: The store implementation; the ablation benchmarks swap in
    #: :class:`~repro.core.store.LinearNogoodStore` to measure what the
    #: per-value index saves.
    store_class = NogoodStore

    def __init__(
        self,
        agent_id: AgentId,
        problem: DisCSP,
        rng: random.Random,
        initial_value: Optional[Value] = None,
        variable: Optional[VariableId] = None,
    ) -> None:
        super().__init__(agent_id)
        owned = problem.variables_of(agent_id)
        if variable is None:
            if len(owned) != 1:
                raise ModelError(
                    f"agent {agent_id} owns {len(owned)} variables; this "
                    "algorithm requires the one-variable-per-agent setting "
                    "(see multi_awc for the extension)"
                )
            variable = owned[0]
        elif variable not in owned:
            raise ModelError(
                f"agent {agent_id} does not own variable {variable}"
            )
        self.problem = problem
        self.variable: VariableId = variable
        self.domain: Domain = problem.csp.domain_of(self.variable)
        self.rng = rng
        self.store = self.store_class(
            self.variable,
            self.check_counter,
            problem.csp.relevant_nogoods(self.variable),
        )
        # Owners of the variables we share nogoods with. When this agent
        # hosts several variables (multi_awc), its own id can appear here:
        # the hosting wrapper routes such messages internally.
        self.recipients = {
            problem.owner_of(neighbor)
            for neighbor in problem.csp.neighbors_of(self.variable)
        }
        if initial_value is not None and initial_value not in self.domain:
            raise ModelError(
                f"initial value {initial_value!r} is outside the domain of "
                f"x{self.variable}"
            )
        self._initial_value = initial_value
        self.value: Value = self.domain.values[0]
        # Cached sorted copy of ``recipients`` (see sorted_recipients()).
        self._sorted_recipients: Tuple[AgentId, ...] = ()
        self._sorted_recipients_size = -1

    def rebind_store(self, store_class: Type[NogoodStore]) -> None:
        """Rebuild the store as *store_class*, preserving counter and contents.

        Nogoods are re-added in the original insertion order so any
        order-sensitive downstream behavior (scan order, tie-breaking via
        stable keys) is unchanged. ``add`` is not a counted operation, so
        the check counter is untouched by the swap.
        """
        if type(self.store) is store_class:
            return
        old = self.store
        nogoods = list(old.nogoods())
        # Initial nogoods come first in insertion order.
        initial = len(nogoods) - old.learned_count()
        replacement = store_class(
            self.variable, self.check_counter, nogoods[:initial]
        )
        for nogood in nogoods[initial:]:
            replacement.add(nogood)
        self.store = replacement

    def pick_initial_value(self) -> Value:
        """The configured initial value, or a uniform random one."""
        if self._initial_value is not None:
            return self._initial_value
        return self.rng.choice(self.domain.values)

    def owner_of(self, variable: VariableId) -> AgentId:
        """The agent owning *variable* (used to route requests and nogoods)."""
        return self.problem.owner_of(variable)

    def local_assignment(self) -> Dict[VariableId, Value]:
        return {self.variable: self.value}

    def sorted_recipients(self) -> Tuple[AgentId, ...]:
        """Recipients in a deterministic order (for reproducible routing).

        Called on every broadcast, so the sorted copy is cached and
        invalidated by size: ``recipients`` only ever *grows* (``add`` on
        nogood receipt and value requests; episode resets keep the grown
        set), so an unchanged length means an unchanged set. The tuple is
        shared between calls — callers must not mutate it.
        """
        if len(self.recipients) != self._sorted_recipients_size:
            self._sorted_recipients = tuple(sorted(self.recipients))
            self._sorted_recipients_size = len(self.recipients)
        return self._sorted_recipients
