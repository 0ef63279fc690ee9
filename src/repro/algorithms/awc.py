"""The asynchronous weak-commitment search algorithm (AWC), Section 2.2.

Every agent holds one variable, announces its value (with a dynamic
*priority*, initially 0) via ``ok?`` messages, and reacts to what it hears:

* if no **higher** nogood (one whose priority outranks the agent's variable)
  is violated, it does nothing;
* if violated higher nogoods can be repaired by changing its value, it moves
  to the candidate value violating the fewest **lower** nogoods and
  re-announces;
* otherwise it is at a *deadend*: it asks its learning method for a new
  nogood, announces that nogood to every agent whose variable it mentions,
  **raises its own priority** above everything it can see, moves to the
  value violating the fewest of all its nogoods, and re-announces. If the
  new nogood equals the previously generated one, it does nothing at all —
  the paper's rule "required to ensure the completeness of the algorithm".

Receiving a nogood that mentions an unknown variable triggers a value
request to that variable's owner (the add-link mechanism inherited from
ABT); the owner replies with an ``ok?`` and keeps the requester informed
from then on.

The learning method is fully pluggable (see :mod:`repro.learning`); this one
class therefore covers the paper's Rslv, Mcs, No, kthRslv, and rec/norec
variants.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from ..core.assignment import AgentView
from ..core.nogood import Nogood
from ..core.problem import AgentId, DisCSP
from ..core.variables import Value, VariableId
from ..learning.base import DeadendContext, LearningMethod
from ..runtime.messages import (
    Message,
    NogoodMessage,
    OkMessage,
    Outgoing,
    RequestValueMessage,
)
from ..runtime.metrics import MetricsCollector
from .base import SingleVariableAgent, argmin_with_ties

if TYPE_CHECKING:  # the builder imports derive_rng lazily at runtime
    from ..runtime.random_source import Seed

#: Score accessor for (candidate, lower-count) pairs; module-level so the
#: per-message selection path allocates no closure.
_lower_count_of = itemgetter(1)


class AwcAgent(SingleVariableAgent):
    """One AWC agent: a variable, a view, a store, and a learning method."""

    def __init__(
        self,
        agent_id: AgentId,
        problem: DisCSP,
        learning: LearningMethod,
        metrics: MetricsCollector,
        rng: random.Random,
        initial_value: Optional[Value] = None,
        variable: Optional[VariableId] = None,
    ) -> None:
        super().__init__(agent_id, problem, rng, initial_value, variable)
        self.learning = learning
        # The agent keeps only its own append-only log, never the shared
        # collector, so agents share no mutable metrics state.
        self.generation_log = metrics.generation_log_for(agent_id)
        self.priority = 0
        self.view = AgentView()
        self.last_generated: Optional[Nogood] = None
        # Reusable candidate-value buffers for the per-message decision
        # procedure: ``clear()`` keeps list capacity, so once warm the scan
        # allocates nothing. Both are consumed before any
        # call that could re-enter the decision procedure.
        self._scratch_others: List[Value] = []
        self._scratch_candidates: List[Value] = []
        self._scratch_requesters: Set[AgentId] = set()

    # -- simulator protocol ----------------------------------------------------

    def initialize(self) -> List[Outgoing]:
        self.value = self.pick_initial_value()
        # Establish consistency with *unary* nogoods up front. The view is
        # still empty so only nogoods binding this variable alone can be
        # violated; without this, an agent with no neighbors (or whose
        # domain is wiped out by unary constraints) would never act at all,
        # since checks are otherwise message-driven.
        reaction = self._check_agent_view()
        outgoing = [
            (recipient, message)
            for recipient, message in reaction
            if isinstance(message, NogoodMessage)
        ]
        outgoing.extend(self._broadcast_ok(self.sorted_recipients()))
        return outgoing

    def step(self, messages: Sequence[Message]) -> List[Outgoing]:
        # Value requests and broadcast bookkeeping live in reusable scratch
        # sets, and outgoing messages accumulate in one list from the start
        # (the old requests-then-copy shape allocated a set, a list and a
        # copy on every delivery). Message order is unchanged:
        # add-link requests first, then the reaction, then requester oks.
        state_changed = False
        requesters = self._scratch_requesters
        requesters.clear()
        outgoing: List[Outgoing] = []
        for message in messages:
            if isinstance(message, OkMessage):
                if self.view.update(
                    message.variable, message.value, message.priority
                ):
                    state_changed = True
            elif isinstance(message, NogoodMessage):
                # Keep the generator informed of our future moves: it built
                # this nogood from our announced value.
                self.recipients.add(message.sender)
                outgoing.extend(self._receive_nogood(message.nogood))
                state_changed = True
            elif isinstance(message, RequestValueMessage):
                self.recipients.add(message.sender)
                requesters.add(message.sender)
        if state_changed:
            reaction = self._check_agent_view()
            outgoing.extend(reaction)
            if requesters:
                for recipient, reaction_message in reaction:
                    if isinstance(reaction_message, OkMessage):
                        requesters.discard(recipient)
        if requesters:
            for requester in sorted(requesters):
                outgoing.append((requester, self._ok_message()))
        return outgoing

    # -- the AWC decision procedure --------------------------------------------

    def _check_agent_view(self) -> List[Outgoing]:
        """React to the current view; returns messages to send."""
        if not self.store.count_violated_higher(
            self.view, self.value, self.priority
        ):
            return []
        others = self._scratch_others
        others.clear()
        for value in self.domain:
            if value != self.value:
                others.append(value)
        higher_per_value = self.store.count_violated_higher_batch(
            self.view, others, self.priority
        )
        repair_candidates = self._scratch_candidates
        repair_candidates.clear()
        for value, higher in zip(others, higher_per_value):
            if not higher:
                repair_candidates.append(value)
        if repair_candidates:
            self.value = self._least_lower_violations(repair_candidates)
            return self._broadcast_ok(self.sorted_recipients())
        return self._backtrack()

    def _backtrack(self) -> List[Outgoing]:
        """Handle a deadend: learn, raise priority, move, re-announce."""
        outgoing: List[Outgoing] = []
        nogood = self.learning.make_nogood(
            DeadendContext(
                variable=self.variable,
                domain=self.domain,
                priority=self.priority,
                view=self.view,
                store=self.store,
            )
        )
        if nogood is not None:
            # Every generation event is counted (Table 4's measure counts a
            # regeneration even when the rule below suppresses acting on it).
            self.generation_log.record(nogood)
            if len(nogood) == 0:
                self.fail_unsolvable("derived the empty nogood")
                return []
            if (
                self.learning.should_record(nogood)
                and nogood == self.last_generated
            ):
                # The completeness rule: repeating the identical nogood would
                # loop forever; the recorded copy at the recipients will
                # eventually force someone else to move. That justification
                # needs the nogood to actually be recorded — for nogoods the
                # recording policy drops (size bounds, norec) the deadend is
                # instead broken by the priority raise below (footnote 1),
                # otherwise the whole system can freeze.
                return []
            self.last_generated = nogood
            announcement = NogoodMessage(self.id, nogood)
            owners = {
                self.owner_of(variable) for variable in nogood.variables
            }
            for owner in sorted(owners):
                outgoing.append((owner, announcement))
        self.priority = max(self.priority, self.view.highest_priority()) + 1
        # At the raised priority every nogood involving other variables is
        # now *lower*; only learned unary nogoods on this very variable can
        # still rank higher (their priority is TOP). The paper's "value
        # causing the minimum violation on all its nogoods" must not pick a
        # unary-forbidden value — nothing would ever make the agent move off
        # it, freezing the system — so those values are excluded here, and
        # lower violations are minimized among the rest.
        all_values = self.domain.values
        higher_per_value = self.store.count_violated_higher_batch(
            self.view, all_values, self.priority
        )
        candidates = self._scratch_candidates
        candidates.clear()
        for value, higher in zip(all_values, higher_per_value):
            if not higher:
                candidates.append(value)
        if not candidates:
            # Every value is forbidden by a unary nogood on this variable:
            # the recursive deadend derives the empty resolvent and reports
            # the problem unsolvable.
            outgoing.extend(self._backtrack())
            return outgoing
        self.value = self._least_lower_violations(candidates)
        outgoing.extend(self._broadcast_ok(self.sorted_recipients()))
        return outgoing

    def _receive_nogood(self, nogood: Nogood) -> Sequence[Outgoing]:
        """Record an announced nogood (policy permitting); request unknowns.

        Returns an empty tuple on the no-request paths — under ``norec``
        policies that is every call, so the refused path must not build a
        throwaway list.
        """
        if not self.learning.should_record(nogood):
            return ()
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

    # -- helpers ---------------------------------------------------------------

    def _least_lower_violations(self, candidates: List[Value]) -> Value:
        """The candidate violating the fewest lower nogoods (random ties).

        Scores come from one batch call; check counting and the rng
        tie-draw are identical to scoring each candidate individually
        inside :func:`argmin_with_ties`.
        """
        lower_counts = self.store.count_violated_lower_batch(
            self.view, candidates, self.priority
        )
        chosen = argmin_with_ties(
            zip(candidates, lower_counts),
            _lower_count_of,
            self.rng,
        )
        return chosen[0]

    def _ok_message(self) -> OkMessage:
        return OkMessage(self.id, self.variable, self.value, self.priority)

    def _broadcast_ok(self, recipients: Sequence[AgentId]) -> List[Outgoing]:
        message = self._ok_message()
        return [(recipient, message) for recipient in recipients]


def build_awc_agents(
    problem: DisCSP,
    learning: LearningMethod,
    metrics: MetricsCollector,
    seed: "Seed",
    initial_assignment: Optional[Dict[VariableId, Value]] = None,
) -> List[AwcAgent]:
    """Build one AWC agent per agent id of *problem*.

    Each agent gets an independent RNG derived from *seed*, and (optionally)
    its initial value from *initial_assignment* — the paper's trials fix the
    instance and vary exactly these initial values.
    """
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
            AwcAgent(
                agent_id,
                problem,
                learning,
                metrics,
                derive_rng(seed, "awc-agent", agent_id),
                initial_value=initial,
            )
        )
    return agents
