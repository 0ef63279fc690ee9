"""The synchronous distributed-system simulator.

Section 4 of the paper: "A synchronous distributed system is one of possible
distributed systems, where all processes (agents) do their cycles
synchronously. One cycle consists of activities so that all agents read
incoming messages, do their local computation, and send messages to relevant
agents."

:class:`SynchronousSimulator` implements those semantics over any
:class:`~repro.runtime.network.Network`. With the default
:class:`~repro.runtime.network.SynchronousNetwork` every message takes one
cycle (the paper's setting); with a delay network the same loop models a
slower or asynchronous medium, and with
:class:`~repro.runtime.network.ScheduledNetwork` it runs the interleaving
verifier's chosen delivery orders.

Termination:

* a global observer sees a solution (``cycle`` = cycles consumed so far);
* an agent derives the empty nogood (the problem is unsolvable);
* the system quiesces without a solution (possible for the incomplete
  variants: no messages are in flight and no agent will ever act again);
* the cycle cap is reached (the paper uses 10 000 and reports the at-cap
  measurements; so do we, via ``capped=True``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..core.exceptions import SimulationError
from ..core.problem import AgentId, DisCSP
from ..core.variables import Value, VariableId
from .agent import SimulatedAgent
from .messages import Outgoing
from .metrics import MetricsCollector
from .network import Network, SynchronousNetwork
from .termination import (
    GlobalSolutionDetector,
    IncrementalSolutionDetector,
    collect_assignment,
)

if TYPE_CHECKING:
    from .trace import TraceRecorder

#: The paper's cycle cap.
DEFAULT_MAX_CYCLES = 10_000


@dataclass
class RunResult:
    """The outcome and cost of one simulated trial."""

    solved: bool
    unsolvable: bool
    capped: bool
    quiescent: bool
    cycles: int
    maxcck: int
    total_checks: int
    messages_sent: int
    generated_nogoods: int
    redundant_generations: int
    assignment: Dict[VariableId, Value] = field(default_factory=dict)
    wall_time: float = 0.0
    #: Wall-clock seconds minus time spent inside the tracer's hooks: the
    #: simulation cost proper, comparable across traced and untraced runs.
    sim_time: float = 0.0
    max_history: List[int] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        """True if the run ended with a definite answer (solved/unsolvable)."""
        return self.solved or self.unsolvable


class SynchronousSimulator:
    """Runs a set of agents to completion under synchronous cycles."""

    def __init__(
        self,
        problem: DisCSP,
        agents: Sequence[SimulatedAgent],
        network: Optional[Network] = None,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        metrics: Optional[MetricsCollector] = None,
        detector: Optional[GlobalSolutionDetector] = None,
        tracer: Optional["TraceRecorder"] = None,
    ) -> None:
        if max_cycles < 1:
            raise SimulationError(f"max_cycles must be positive: {max_cycles}")
        ids = [agent.id for agent in agents]
        if len(set(ids)) != len(ids):
            raise SimulationError(f"duplicate agent ids: {sorted(ids)}")
        if set(ids) != set(problem.agents):
            raise SimulationError(
                "agents do not match the problem: "
                f"expected {sorted(problem.agents)}, got {sorted(ids)}"
            )
        self.problem = problem
        self.agents: List[SimulatedAgent] = sorted(agents, key=lambda a: a.id)
        self.network = network if network is not None else SynchronousNetwork()
        self.max_cycles = max_cycles
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.detector = (
            detector
            if detector is not None
            else IncrementalSolutionDetector(problem)
        )
        #: Optional TraceRecorder-compatible observer (on_message /
        #: on_cycle_end hooks). Purely observational.
        self.tracer = tracer
        #: Seconds spent inside tracer hooks; subtracted from ``wall_time``
        #: to report ``sim_time``.
        self._tracer_seconds = 0.0
        self._ids = frozenset(ids)
        #: The cycle currently executing: 0 during initialization, then the
        #: 1-based cycle whose agent steps are running. Used to tag traced
        #: messages with the cycle they were *sent* in.
        self._current_cycle = 0
        #: The global assignment as last observed, and each agent's local
        #: assignment at that observation (see _observe).
        self._assignment: Dict[VariableId, Value] = {}
        self._seen: List[Dict[VariableId, Value]] = [{} for _ in self.agents]
        for agent in self.agents:
            self.metrics.attach(agent.id, agent.check_counter)

    # -- driving --------------------------------------------------------------

    def run(self) -> RunResult:
        """Run to termination and return the trial's result."""
        started = time.perf_counter()
        for agent in self.agents:
            self._route(agent.id, agent.initialize())
        # The paper counts "cycles consumed until a solution is found"; if
        # the random initial values already solve the problem, that is zero.
        solved = self.detector.is_solution(self._assignment, self._observe())
        quiescent = False
        unsolvable = self._any_failure()
        while (
            not solved
            and not unsolvable
            and not quiescent
            and self.metrics.cycles < self.max_cycles
        ):
            self._current_cycle = self.metrics.cycles + 1
            mail = self.network.deliver().get
            for agent in self.agents:
                outgoing = agent.step(mail(agent.id, ()))
                if outgoing:
                    self._route(agent.id, outgoing)
            self.metrics.end_cycle()
            changed = self._observe()
            if self.tracer is not None:
                traced_at = time.perf_counter()
                self.tracer.on_cycle_end(
                    self.metrics.cycles, dict(self._assignment)
                )
                self._tracer_seconds += time.perf_counter() - traced_at
            solved = self.detector.is_solution(self._assignment, changed)
            unsolvable = self._any_failure()
            if (
                not solved
                and not unsolvable
                and self.network.is_idle()
                and not any(agent.has_pending_work() for agent in self.agents)
            ):
                quiescent = True
        capped = (
            not solved
            and not unsolvable
            and not quiescent
            and self.metrics.cycles >= self.max_cycles
        )
        wall_time = time.perf_counter() - started
        return RunResult(
            solved=solved,
            unsolvable=unsolvable,
            capped=capped,
            quiescent=quiescent,
            cycles=self.metrics.cycles,
            maxcck=self.metrics.maxcck,
            total_checks=self.metrics.total_checks,
            messages_sent=self.network.sent_count,
            generated_nogoods=self.metrics.generated_count,
            redundant_generations=self.metrics.redundant_generations,
            assignment=collect_assignment(self.agents),
            wall_time=wall_time,
            sim_time=wall_time - self._tracer_seconds,
            max_history=list(self.metrics.max_history),
        )

    # -- internals -------------------------------------------------------------

    def _route(self, sender: AgentId, outgoing: Sequence[Outgoing]) -> None:
        if self.tracer is not None:
            traced_at = time.perf_counter()
            for recipient, message in outgoing:
                self.tracer.on_message(
                    self._current_cycle, sender, recipient, message
                )
            self._tracer_seconds += time.perf_counter() - traced_at
        self.network.send_all(sender, outgoing, self._ids)

    def _observe(self) -> List[VariableId]:
        """Fold every agent's values into the global assignment.

        Returns the variables whose values changed since the last
        observation, which is all the detector needs to look at.
        """
        assignment = self._assignment
        seen = self._seen
        changed: List[VariableId] = []
        for index, agent in enumerate(self.agents):
            local = agent.local_assignment()
            previous = seen[index]
            if local == previous:
                continue
            seen[index] = dict(local)
            for variable, value in local.items():
                if variable not in previous or previous[variable] != value:
                    changed.append(variable)
                    assignment[variable] = value
            for variable in previous.keys() - local.keys():
                changed.append(variable)
                del assignment[variable]
        return changed

    def _any_failure(self) -> bool:
        return any(agent.failure is not None for agent in self.agents)
