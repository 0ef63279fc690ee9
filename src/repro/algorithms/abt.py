"""The asynchronous backtracking algorithm (ABT) — AWC's ancestor.

Included because the paper positions resolvent learning against ABT's
baseline behaviour: "an agent uses an agent_view itself as a nogood. The
cost of this method is virtually zero ... However, the obtained nogood is
not so effective."

ABT fixes the agent ordering up front — here, smaller id = higher priority —
instead of reordering dynamically like AWC. Each agent keeps a view of the
higher-priority agents it is linked to, and:

* on ``ok?``: update the view, re-establish consistency (pick any value
  consistent with the view; deterministic first-fit, which is ABT's
  classical value rule);
* at a deadend: take the **entire agent view** as the new nogood, send it to
  its lowest-priority member, erase that member's value from the view, and
  re-check (classic ABT backtracking);
* on ``nogood``: record it, request values of unknown variables (add-link),
  re-check, and — if our value did not change — re-announce it to the
  sender, whose nogood was based on possibly stale data.

Deriving the empty nogood proves insolubility; with all nogoods recorded,
ABT is complete. ABT is not part of the paper's tables, but it provides the
reference point for the "agent_view as nogood" learning cost/benefit and is
exercised by the extension benchmarks.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..core.assignment import AgentView
from ..core.nogood import Nogood
from ..core.problem import AgentId, DisCSP
from ..core.variables import Value, VariableId
from ..learning.resolvent import stable_nogood_key

if TYPE_CHECKING:  # the builder imports derive_rng lazily at runtime
    from ..runtime.random_source import Seed
from ..runtime.messages import (
    Message,
    NogoodMessage,
    OkMessage,
    Outgoing,
    RequestValueMessage,
)
from .base import SingleVariableAgent


#: ABT backtrack nogood construction: the classic whole-agent-view nogood,
#: or a resolvent built like Section 3's rule (one smallest violated nogood
#: per domain value, unioned, own variable removed). The latter is the
#: paper's "what if ABT learned better nogoods" counterfactual.
ABT_LEARNING_MODES = ("view", "resolvent")


def _smallest_nogood_order(nogood: Nogood) -> Tuple[int, object]:
    """Sort key for "the smallest violated nogood": size, then structure.

    Module-level (not a lambda at the ``min()`` call) so the per-deadend
    path allocates no closure.
    """
    return (len(nogood), stable_nogood_key(nogood))


class AbtAgent(SingleVariableAgent):
    """One ABT agent under the static smaller-id-first priority order."""

    def __init__(
        self,
        agent_id: AgentId,
        problem: DisCSP,
        rng: random.Random,
        initial_value: Optional[Value] = None,
        learning: str = "view",
    ) -> None:
        super().__init__(agent_id, problem, rng, initial_value)
        if learning not in ABT_LEARNING_MODES:
            from ..core.exceptions import ModelError

            raise ModelError(
                f"ABT learning must be one of {ABT_LEARNING_MODES}, "
                f"got {learning!r}"
            )
        self.learning = learning
        self.view = AgentView()
        # ok? messages flow down the priority order: only lower-priority
        # (larger-id) neighbors need to hear our value.
        self.recipients = {
            neighbor for neighbor in self.recipients if neighbor > agent_id
        }

    # -- simulator protocol -----------------------------------------------------

    def initialize(self) -> List[Outgoing]:
        self.value = self.pick_initial_value()
        # As in AWC: unary nogoods must be respected (or proven jointly
        # unsatisfiable) before the first announcement, because checks are
        # otherwise only triggered by incoming messages.
        reaction = self._check_agent_view()
        outgoing = [
            (recipient, message)
            for recipient, message in reaction
            if isinstance(message, NogoodMessage)
        ]
        outgoing.extend(self._broadcast_ok(self.sorted_recipients()))
        return outgoing

    def step(self, messages: Sequence[Message]) -> List[Outgoing]:
        outgoing: List[Outgoing] = []
        changed = False
        nogood_senders: Set[AgentId] = set()
        requesters: Set[AgentId] = set()
        for message in messages:
            if isinstance(message, OkMessage):
                if self.view.update(message.variable, message.value, 0):
                    changed = True
            elif isinstance(message, NogoodMessage):
                changed = True
                nogood_senders.add(message.sender)
                outgoing.extend(self._receive_nogood(message.nogood))
            elif isinstance(message, RequestValueMessage):
                self.recipients.add(message.sender)
                requesters.add(message.sender)
        informed: Set[AgentId] = set()
        if changed:
            old_value = self.value
            outgoing.extend(self._check_agent_view())
            if self.value != old_value:
                informed = set(self.recipients)
            else:
                # Our value stands: senders of (stale) nogoods must be told.
                for sender in sorted(nogood_senders):
                    outgoing.append((sender, self._ok_message()))
                    informed.add(sender)
        for requester in sorted(requesters - informed):
            outgoing.append((requester, self._ok_message()))
        return outgoing

    # -- ABT decision procedure ----------------------------------------------------

    def _check_agent_view(self) -> List[Outgoing]:
        outgoing: List[Outgoing] = []
        while True:
            if self._consistent(self.value):
                return outgoing
            replacement = self._first_consistent_value()
            if replacement is not None:
                self.value = replacement
                outgoing.extend(self._broadcast_ok(self.sorted_recipients()))
                return outgoing
            backtrack_messages = self._backtrack()
            outgoing.extend(backtrack_messages)
            if self.failure is not None:
                return outgoing
            # Loop: the culprit's value was erased from the view; re-check.

    def _consistent(self, value: Value) -> bool:
        # The store's scan short-circuits on the first violation and stops
        # counting checks there, like ABT's classical consistency test.
        return self.store.is_consistent(self.view, value)

    def _first_consistent_value(self) -> Optional[Value]:
        for value in self.domain:
            if value != self.value and self._consistent(value):
                return value
        return None

    def _backtrack(self) -> List[Outgoing]:
        """Derive a nogood for the deadend and send it to its lowest member.

        In ``view`` mode (classic ABT) the whole agent view is the nogood —
        "the cost of this method is virtually zero ... however, the obtained
        nogood is not so effective" (paper, Section 1). In ``resolvent``
        mode the nogood is built with Section 3's rule instead, typically
        much smaller, which prunes more and backjumps further (the culprit
        can be an agent far up the order).
        """
        if self.learning == "resolvent":
            nogood = self._resolvent_nogood()
        else:
            nogood = Nogood(
                (variable, self.view.value_of(variable))
                for variable in self.view
            )
        if len(nogood) == 0:
            self.fail_unsolvable("derived the empty nogood at a deadend")
            return []
        # The lowest-priority member is the largest id (priority = -id).
        culprit = max(nogood.variables)
        self.view.forget(culprit)
        return [(self.owner_of(culprit), NogoodMessage(self.id, nogood))]

    def _resolvent_nogood(self) -> Nogood:
        """Section 3's rule under ABT's fixed order.

        Every nogood outranks the agent in ABT (its members are all higher
        in the static order), so "select the smallest violated nogood per
        value" needs no priority bookkeeping; ties are broken structurally
        for reproducibility.
        """
        pairs = set()
        violated_per_value = self.store.violated_batch(
            self.view, self.domain.values
        )
        for violated in violated_per_value:
            if not violated:
                # Not a true deadend for this value (can happen only if the
                # caller mis-detected); fall back to the full view.
                return Nogood(
                    (variable, self.view.value_of(variable))
                    for variable in self.view
                )
            best = min(violated, key=_smallest_nogood_order)
            pairs.update(
                pair for pair in best.pairs if pair[0] != self.variable
            )
        return Nogood(pairs)

    def _receive_nogood(self, nogood: Nogood) -> Sequence[Outgoing]:
        # The duplicate-add path returns an empty tuple, not a throwaway
        # list.
        if not self.store.add(nogood):
            return ()
        requests: List[Outgoing] = []
        for variable in sorted(nogood.variables):
            if variable != self.variable and not self.view.knows(variable):
                requests.append(
                    (
                        self.owner_of(variable),
                        RequestValueMessage(self.id, variable),
                    )
                )
        return requests

    # -- helpers -------------------------------------------------------------------

    def _ok_message(self) -> OkMessage:
        return OkMessage(self.id, self.variable, self.value, 0)

    def _broadcast_ok(self, recipients: Sequence[AgentId]) -> List[Outgoing]:
        message = self._ok_message()
        return [(recipient, message) for recipient in recipients]


def build_abt_agents(
    problem: DisCSP,
    seed: "Seed",
    initial_assignment: Optional[Dict[VariableId, Value]] = None,
    learning: str = "view",
) -> List[AbtAgent]:
    """Build one ABT agent per agent id of *problem*."""
    from ..runtime.random_source import derive_rng

    agents = []
    for agent_id in problem.agents:
        variable = problem.variables_of(agent_id)[0]
        initial = (
            initial_assignment.get(variable)
            if initial_assignment is not None
            else None
        )
        agents.append(
            AbtAgent(
                agent_id,
                problem,
                derive_rng(seed, "abt-agent", agent_id),
                initial_value=initial,
                learning=learning,
            )
        )
    return agents
