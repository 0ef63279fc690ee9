"""The distributed breakout algorithm (DB), Section 4.3.

DB is concurrent hill-climbing with mutual exclusion between neighbors plus
Morris's breakout strategy for escaping local minima:

* each constraint (nogood) carries a positive integer *weight*, initially 1;
* an agent's *eval* of a value is the weighted sum of violated nogoods;
* agents alternate two message waves: ``ok?`` (current values) and
  ``improve`` (current eval and best possible improvement);
* after an ``improve`` wave, only the agent with the locally greatest
  improvement (ties broken by agent id) actually moves — neighbors skip
  their change, which prevents simultaneous oscillating moves;
* an agent in a *quasi-local-minimum* — it violates something, and neither
  it nor any neighbor can improve — increases the weights of its violated
  constraints by one (the breakout), changing the landscape.

Footnote 7 of the paper: this DB assigns a weight **per nogood** rather than
per variable pair as in the original DB paper, because the authors found it
better. Both modes are implemented (``weight_mode="nogood"`` /
``"pair"``); the ablation benchmark compares them.

Each message wave costs one cycle on the synchronous network, which is why
DB consumes roughly two cycles per move round — the structural reason AWC
beats it on ``cycle`` while DB, which never accumulates nogoods, wins on
``maxcck``.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..core.assignment import AgentView
from ..core.exceptions import ModelError
from ..core.nogood import Nogood
from ..core.problem import AgentId, DisCSP
from ..core.variables import Value, VariableId
from ..runtime.messages import (
    ImproveMessage,
    Message,
    OkRoundMessage,
    Outgoing,
)
from .base import SingleVariableAgent

if TYPE_CHECKING:  # the builder imports derive_rng lazily at runtime
    from ..runtime.random_source import Seed

#: Weighting modes: this paper's per-nogood weights, or the original DB's
#: per-variable-pair weights.
WEIGHT_MODES = ("nogood", "pair")


class BreakoutAgent(SingleVariableAgent):
    """One distributed-breakout agent."""

    def __init__(
        self,
        agent_id: AgentId,
        problem: DisCSP,
        rng: random.Random,
        initial_value: Optional[Value] = None,
        weight_mode: str = "nogood",
    ) -> None:
        super().__init__(agent_id, problem, rng, initial_value)
        if weight_mode not in WEIGHT_MODES:
            raise ModelError(
                f"weight_mode must be one of {WEIGHT_MODES}, got "
                f"{weight_mode!r}"
            )
        self.weight_mode = weight_mode
        #: One weight per variable set ("pair") rather than per nogood.
        self._pair_mode = weight_mode == "pair"
        self.view = AgentView()
        self.weights: Dict[object, int] = {}
        self.round_index = 0
        self.phase = "ok"  # waiting for this round's ok? wave
        self._ok_waves: Dict[int, Dict[AgentId, OkRoundMessage]] = {}
        self._improve_waves: Dict[int, Dict[AgentId, ImproveMessage]] = {}
        self._my_eval = 0
        self._my_improve = 0
        self._best_value: Value = self.value
        self.breakouts = 0

    # -- simulator protocol ----------------------------------------------------

    def initialize(self) -> List[Outgoing]:
        self.value = self.pick_initial_value()
        if not self.recipients:
            # An unconstrained agent is trivially satisfied and silent.
            return []
        return self._broadcast(
            OkRoundMessage(self.id, self.variable, self.value, 0)
        )

    def step(self, messages: Sequence[Message]) -> List[Outgoing]:
        if not self.recipients:
            return []
        for message in messages:
            if isinstance(message, OkRoundMessage):
                self._ok_waves.setdefault(message.round_index, {})[
                    message.sender
                ] = message
            elif isinstance(message, ImproveMessage):
                self._improve_waves.setdefault(message.round_index, {})[
                    message.sender
                ] = message
        outgoing: List[Outgoing] = []
        progressed = True
        while progressed:
            progressed = False
            if self.phase == "ok" and self._wave_complete(self._ok_waves):
                outgoing.extend(self._finish_ok_wave())
                progressed = True
            elif self.phase == "improve" and self._wave_complete(
                self._improve_waves
            ):
                outgoing.extend(self._finish_improve_wave())
                progressed = True
        return outgoing

    # -- the two waves -----------------------------------------------------------

    def _wave_complete(self, waves: Dict[int, Dict[AgentId, Message]]) -> bool:
        wave = waves.get(self.round_index)
        return wave is not None and len(wave) == len(self.recipients)

    def _finish_ok_wave(self) -> List[Outgoing]:
        """All neighbors announced: evaluate, announce possible improvement.

        The whole domain is scored in one batch consultation; the
        candidates (and the rng's tie draw) are the other values, in
        domain order.
        """
        wave = self._ok_waves.pop(self.round_index)
        for message in wave.values():
            self.view.update(message.variable, message.value, 0)
        values = self.domain.values
        scores = self._weighted_sums(
            self.store.violated_batch(self.view, values)
        )
        current = self.value
        best_eval = self._my_eval = scores[values.index(current)]
        ties: List[Value] = []
        for value, score in zip(values, scores):
            if value == current:
                continue
            if score < best_eval:
                best_eval = score
                ties = [value]
            elif score == best_eval and ties:
                ties.append(value)
        if ties:
            self._best_value = (
                ties[0]
                if len(ties) == 1
                else ties[self.rng.randrange(len(ties))]
            )
        else:
            self._best_value = current
        self._my_improve = self._my_eval - best_eval
        self.phase = "improve"
        return self._broadcast(
            ImproveMessage(
                self.id, self._my_eval, self._my_improve, self.round_index
            )
        )

    def _finish_improve_wave(self) -> List[Outgoing]:
        """All improvements known: move or break out, start the next round."""
        wave = self._improve_waves.pop(self.round_index)
        can_move = self._my_improve > 0
        all_stuck = self._my_improve <= 0
        for sender, message in wave.items():
            if message.improve > self._my_improve or (
                message.improve == self._my_improve and sender < self.id
            ):
                can_move = False
            if message.improve > 0:
                all_stuck = False
        if self._my_eval > 0 and self._my_improve <= 0 and all_stuck:
            self._break_out()
        if can_move:
            self.value = self._best_value
        self.round_index += 1
        self.phase = "ok"
        return self._broadcast(
            OkRoundMessage(self.id, self.variable, self.value, self.round_index)
        )

    # -- weighted evaluation ------------------------------------------------------

    def _weight_key(self, nogood: Nogood) -> object:
        if self._pair_mode:
            return nogood.variables  # one weight shared per variable set
        return nogood

    def _weighted_sums(
        self, violated_per_value: Sequence[Sequence[Nogood]]
    ) -> List[int]:
        """The eval of each candidate value from its violated nogoods."""
        get = self.weights.get
        sums = []
        for violated in violated_per_value:
            total = 0
            if self._pair_mode:
                for nogood in violated:
                    total += get(nogood.variables, 1)
            else:
                for nogood in violated:
                    total += get(nogood, 1)
            sums.append(total)
        return sums

    def _break_out(self) -> None:
        """Increase the weight of every currently violated nogood by one."""
        self.breakouts += 1
        for nogood in self.store.violated(self.view, self.value):
            key = self._weight_key(nogood)
            self.weights[key] = self.weights.get(key, 1) + 1

    def _broadcast(self, message: Message) -> List[Outgoing]:
        return [(recipient, message) for recipient in self.sorted_recipients()]


def build_breakout_agents(
    problem: DisCSP,
    seed: "Seed",
    initial_assignment: Optional[Dict[VariableId, Value]] = None,
    weight_mode: str = "nogood",
) -> List[BreakoutAgent]:
    """Build one DB agent per agent id of *problem* (cf. build_awc_agents)."""
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
            BreakoutAgent(
                agent_id,
                problem,
                derive_rng(seed, "db-agent", agent_id),
                initial_value=initial,
                weight_mode=weight_mode,
            )
        )
    return agents
